"""Tests of the benchmark itself.

    python3 -m pytest bench/tests -q

The smoke runs take about a minute: they start real workloads at the
shortest length (one pass each).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads as wl  # noqa: E402
import worker  # noqa: E402
from spans import self_times, summarize  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(tmp_cwd: Path, *args: str) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=tmp_cwd,
                          capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout.strip().splitlines()


def _result(*args: str) -> dict:
    code, lines = _run(ROOT, *args)
    assert code == 0, lines
    return json.loads(lines[-1])


def test_self_time_of_nested_spans():
    # a[0,10] has children b[1,4] and c[3,6], which overlap, and e[9,12],
    # which runs past its parent's end; d[2,3] is nested in b.
    spans = [("a", 0.0, 10.0, -1, "p0"), ("b", 1.0, 4.0, 0, "p0"),
             ("c", 3.0, 6.0, 0, "p0"), ("d", 2.0, 3.0, 1, "p0"),
             ("e", 9.0, 12.0, 0, "p0")]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_summarize_uses_self_time_and_only_the_given_ops():
    spans = [("stripe.propagate", 0.0, 5.0, -1, "p0"),
             ("components.amplifier", 1.0, 3.0, 0, "p0"),
             ("components.amplifier", 10.0, 11.0, -1, "setup")]
    counts = {"p0": {"components.amplifier": 1, "stripe.element": 2},
              "setup": {"components.amplifier": 1}}
    layers = summarize(spans, counts, ["p0"])
    assert layers["stripe.propagate_self_s"] == pytest.approx(3.0)
    assert layers["components.amplifier_s"] == pytest.approx(2.0)
    assert layers["components.amplifier_calls"] == 1
    assert layers["stripe.chain_stages"] == 2


def test_corrupted_reference_digest_counts_as_failed(tmp_path):
    from stripesim.streams import derive_seed

    reference = wl.load_reference()
    first = wl.sweep_pass_ops(wl.sweep_passes(5)[0], derive_seed)[0].key
    good = worker.run_inproc("sweep_ul", 5, 0, False, tmp_path / "good", reference)
    assert (good["attempted"], good["failed"]) == (1, 0)
    reference["sweep_ul"][first] = "0" * 64
    bad = worker.run_inproc("sweep_ul", 5, 0, False, tmp_path / "bad", reference)
    assert (bad["attempted"], bad["failed"]) == (1, 1)
    assert bad["mismatches"] == [first]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_end_to_end_metrics(workload):
    line = _result("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in line["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_per_layer_metrics(workload):
    line = _result("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
    assert line["correct"] and line["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected


def test_traced_counts_repeat_and_match_the_walk():
    args = ("--workload", "sweep_ul", "--seed", "4", "--seconds", "1", "--trace", "1")
    first, second = _result(*args), _result(*args)
    counts = {k for k, v in first["metrics"].items() if v["unit"] in ("count", "bytes")}
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}
    assert first["metrics"]["stripe.chain_stages"]["value"] == 250
    assert first["metrics"]["components.amplifier_calls"]["value"] == 95
    assert first["metrics"]["streams.stream_calls"]["value"] == 145


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    code, lines = _run(tmp_path, "--workload", "sweep_ul", "--seed", "1",
                       "--seconds", "1", "--trace", "0")
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
