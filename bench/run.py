"""stripesim benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload sweep_ul --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports ``stripesim`` from
``src/`` and uses the ``docs/examples/`` scenario. With ``--trace 0`` it
reports the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1``
a separate traced run reports the per-layer metrics. Every operation's
output is checked against ``bench/reference.json``. The last line of
standard output is one JSON object; a result file with the environment
record goes to ``bench/results/``. The exit code is 0 only when every
output matched. See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads as wl  # noqa: E402
from spans import COUNT_METRICS, TIME_METRICS  # noqa: E402

RESULTS = wl.BENCH_DIR / "results"
WORK = wl.BENCH_DIR / ".work"
WORKER = wl.BENCH_DIR / "worker.py"
SETUP_SAMPLES = 3  # set-ups per run; setup_s is their median
DEADLINE_S = 170.0  # every run ends within 180 s
# The percentile named link_ms_tail. It is fixed per workload so that
# runs of different speed compare the same statistic; in-process runs of
# 30 s give 150-200 links, so p90 has at least ten links beyond it. A
# cli_cold run times only ~6 `run` commands, too few for any percentile
# above the median to have ten beyond it, so its tail is the median.
TAIL_PERCENTILE = {"sweep_ul": 90.0, "dl_dataset_cal": 90.0, "cli_cold": 50.0}
# What a `stripesim` console script runs.
CONSOLE = "import sys; from stripesim.cli import main; sys.exit(main())"

END_TO_END_UNITS = {"setup_s": "s", "links_per_s": "1/s", "link_ms_p50": "ms",
                    "link_ms_tail": "ms", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    units = {name: "s" for name in TIME_METRICS}
    units.update({name: "count" for name in COUNT_METRICS})
    units["dataset.bytes_read"] = "bytes"
    units["cli.import_s"] = "s"
    units["trace.overhead_pct"] = "%"
    return units


class Budget:
    """Wall-clock deadline shared by every child of one run."""

    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise TimeoutError("benchmark run exceeded its time limit")
        return left


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(wl.SRC), env.get("PYTHONPATH")]))
    return env


def run_child(cmd: list[str], budget: Budget, capture: bool) -> tuple[int, str]:
    """Run one child to completion; (exit code, standard output)."""
    proc = subprocess.Popen(cmd, cwd=wl.ROOT, env=child_env(), text=True,
                            stdout=subprocess.PIPE if capture else subprocess.DEVNULL)
    try:
        out, _ = proc.communicate(timeout=budget.left())
    except BaseException:  # time-out, interrupt or termination: stop the child first
        proc.kill()
        proc.wait()
        raise
    return proc.returncode, out or ""


def worker(role: str, budget: Budget, *args: str) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    spawned_at = time.monotonic()
    code, out = run_child([sys.executable, str(WORKER), role,
                           "--spawned-at", repr(spawned_at), *args], budget, capture=True)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        raise RuntimeError(f"worker {role} exited with code {code}")
    return json.loads(lines[-1])


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def latency_metrics(workload: str, latencies_s: list[float]) -> tuple[dict, dict]:
    ms = [x * 1e3 for x in latencies_s]
    pct = TAIL_PERCENTILE[workload]
    tail = percentile(ms, pct)
    detail = {"tail_percentile": pct, "latency_samples": len(ms),
              "samples_beyond_tail": sum(1 for x in ms if x > tail)}
    return {"link_ms_p50": statistics.median(ms), "link_ms_tail": tail}, detail


# ---------------------------------------------------------------------------
# In-process workloads
# ---------------------------------------------------------------------------

def run_inproc(args, workdir: Path, budget: Budget) -> tuple[dict, dict]:
    def inproc(index: int, seconds: float, trace: int, *extra: str) -> dict:
        sub = workdir / f"w{index}"
        sub.mkdir(parents=True)
        return worker("inproc", budget, "--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(seconds), "--trace", str(trace),
                      "--workdir", str(sub), *extra)

    if args.trace:
        spans_out = RESULTS / f"spans_{args.workload}_seed{args.seed}.json"
        main = inproc(0, args.seconds, 1, "--spans-out", str(spans_out))
        counts = {"attempted": main["attempted"], "failed": main["failed"]}
        detail = {"traced_passes": main["passes"], "untraced_passes": main["plain_passes"],
                  "untraced_pass_s": main["pass_s"][0], "traced_pass_s": main["pass_s"][1],
                  "counts_repeat": main["counts_repeat"], "counts_per_pass": main["pass_counts"],
                  "mismatches": main["mismatches"], "spans_file": str(spans_out.relative_to(wl.ROOT))}
        return {"metrics": main["layers"], **counts}, detail

    # Set-up probes run before and after the timed worker, so the median
    # set-up spans the run rather than one moment of a noisy host.
    runs = [inproc(0, 0, 0)]
    main = inproc(1, args.seconds, 0)
    runs += [main] + [inproc(i, 0, 0) for i in range(2, SETUP_SAMPLES)]
    setups = [r["setup_s"] for r in runs]
    metrics, detail = latency_metrics(args.workload, main["latencies_s"])
    metrics["setup_s"] = statistics.median(setups)
    metrics["links_per_s"] = len(main["latencies_s"]) / main["loop_s"]
    metrics["peak_rss_mb"] = main["peak_rss_kb"] / 1024.0
    detail.update(setup_samples_s=setups, passes=main["passes"], loop_s=main["loop_s"],
                  import_s=main["import_s"],
                  mismatches=[m for r in runs for m in r["mismatches"]])
    return {"metrics": metrics, "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs)}, detail


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

def run_cli(args, workdir: Path, budget: Budget) -> tuple[dict, dict]:
    seeds = wl.cli_passes(args.seed)
    if args.trace:
        return run_cli_traced(args, workdir, budget, seeds)

    checker = wl.Checker(wl.load_reference(), "cli_cold")
    setups = [worker("cli-setup", budget)["setup_s"]]
    walls: dict[str, list[float]] = {"run": [], "sweep-ru": []}
    links = 0
    start = time.monotonic()
    k = 0
    while True:
        seed = seeds[k % len(seeds)]
        for command in ("run", "sweep-ru"):
            out_dir = workdir / f"{k}-{command}"
            t0 = time.monotonic()
            code, _ = run_child([sys.executable, "-c", CONSOLE,
                                 *wl.cli_argv(command, seed, out_dir)], budget, capture=False)
            walls[command].append(time.monotonic() - t0)
            output = out_dir / wl.CLI_OUTPUT[command]
            digest = wl.file_digest(output) if code == 0 and output.is_file() else None
            if checker.check(f"{command}/{seed}", digest):
                links += len(output.read_text().splitlines()) - 1
            else:
                print(f"bench: `{command} --seed {seed}` exited {code} or its output "
                      f"differs from the reference", file=sys.stderr)
            shutil.rmtree(out_dir, ignore_errors=True)
        k += 1
        if time.monotonic() - start >= args.seconds:
            break
    loop_s = time.monotonic() - start
    setups += [worker("cli-setup", budget)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    metrics, detail = latency_metrics("cli_cold", walls["run"])
    metrics["setup_s"] = statistics.median(setups)
    metrics["links_per_s"] = links / loop_s
    # ru_maxrss of waited-for children is that of the largest one, pool
    # workers of `sweep-ru` included.
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    detail.update(setup_samples_s=setups, passes=k, loop_s=loop_s,
                  cli_run_s=statistics.median(walls["run"]),
                  cli_sweep_s=statistics.median(walls["sweep-ru"]),
                  command_walls_s=walls, mismatches=checker.mismatches)
    return {"metrics": metrics, "attempted": checker.attempted,
            "failed": checker.failed}, detail


def run_cli_traced(args, workdir: Path, budget: Budget, seeds: list[int]) -> tuple[dict, dict]:
    """Each command in a fresh interpreter through cli.main, sweep-ru with
    --jobs 1: the first half untraced, the second traced."""
    attempted = failed = 0
    halves = []
    k = 0
    for trace in (0, 1):
        passes = []
        start = time.monotonic()
        while True:
            seed = seeds[k % len(seeds)]
            results = []
            for command in ("run", "sweep-ru"):
                out_dir = workdir / f"{k}-{command}"
                results.append(worker("cli-command", budget, "--command", command,
                                      "--seed", str(seed), "--trace", str(trace),
                                      "--workdir", str(out_dir)))
                shutil.rmtree(out_dir, ignore_errors=True)
            attempted += sum(r["attempted"] for r in results)
            failed += sum(r["failed"] for r in results)
            passes.append(results)
            k += 1
            if time.monotonic() - start >= args.seconds / 2:
                break
        halves.append(passes)
    plain, traced = halves
    pass_counts = [{m: sum(r["counts"][m] for r in p) for m in p[0]["counts"]} for p in traced]
    layers = {name: statistics.fmean(sum(r["layers"][name] for r in p) for p in traced)
              for name in TIME_METRICS}
    layers.update(pass_counts[0])
    imports = [r["import_s"] for p in traced for r in p]
    layers["cli.import_s"] = statistics.median(imports)
    pass_wall = [statistics.fmean(sum(r["wall_s"] for r in p) for p in h) for h in (plain, traced)]
    layers["trace.overhead_pct"] = 100.0 * (pass_wall[1] / pass_wall[0] - 1.0)
    detail = {"traced_passes": len(traced), "untraced_passes": len(plain),
              "untraced_pass_s": pass_wall[0], "traced_pass_s": pass_wall[1],
              "counts_repeat": all(c == pass_counts[0] for c in pass_counts),
              "counts_per_pass": pass_counts[0],
              "note": "sweep-ru runs with --jobs 1 in the traced run: pool workers "
                      "cannot be traced from outside"}
    return {"metrics": layers, "attempted": attempted, "failed": failed}, detail


# ---------------------------------------------------------------------------
# Result
# ---------------------------------------------------------------------------

def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "not installed"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        top = subprocess.run(["git", "-C", str(wl.ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != wl.ROOT:
        return "unavailable (not a git checkout)"
    return lines[1]


def _source_digest() -> str:
    """SHA-256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((wl.SRC / "stripesim").rglob("*.py")):
        h.update(path.relative_to(wl.SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args, detail: dict) -> dict:
    return {"python": platform.python_version(), "numpy": _version("numpy"),
            "scipy": _version("scipy"), "pyyaml": _version("PyYAML"),
            "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "git_commit": _git_commit(), "source_sha256": _source_digest(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace,
            "tail_percentile": detail.get("tail_percentile"),
            "tail_samples": detail.get("latency_samples")}


def check_checkout() -> str | None:
    """Why this directory cannot be benchmarked, or None."""
    needed = [wl.SRC / "stripesim" / "cli.py", wl.REFERENCE, *wl.CONFIGS.values()]
    missing = [str(p.relative_to(wl.ROOT)) for p in needed if not p.is_file()]
    return f"missing {', '.join(missing)}" if missing else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="stripesim benchmark")
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    problem = check_checkout()
    if problem:
        print(f"bench: not a stripesim source checkout: {problem}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # SIGTERM unwinds like an interrupt, so running children are stopped
    # and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    budget = Budget(DEADLINE_S)
    RESULTS.mkdir(parents=True, exist_ok=True)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        runner = run_cli if args.workload == "cli_cold" else run_inproc
        result, detail = runner(args, workdir, budget)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = per_layer_units() if args.trace else END_TO_END_UNITS
    correct = result["failed"] == 0 and detail.get("counts_repeat", True)
    line = {"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                        for name, unit in units.items()}}
    detail["error_rate"] = result["failed"] / result["attempted"]
    record = {"environment": environment(args, detail), "result": line, "detail": detail}
    out_file = RESULTS / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    for name, metric in line["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    for name in ("cli_run_s", "cli_sweep_s"):
        if name in detail:
            print(f"{args.workload} {name} = {detail[name]:.6g} s (median per command)")
    if "tail_percentile" in detail:
        print(f"{args.workload} link_ms_tail is p{detail['tail_percentile']:g} of "
              f"{detail['latency_samples']} samples, {detail['samples_beyond_tail']} beyond it")
    print(f"{args.workload} error_rate = {detail['error_rate']:.6g} "
          f"({result['failed']} of {result['attempted']} operations failed)")
    print(f"{args.workload} result file: {out_file.relative_to(wl.ROOT)}")
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
