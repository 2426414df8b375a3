"""Inputs, operations and output digests of the benchmark workloads.

Every workload draws its inputs from a fixed pool, and the workload seed
picks the order in which the pool is used. The pool is small enough for
``reference.json`` to hold the digest of every operation's output at the
commit that recorded it, so every run checks every output bit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXAMPLES = ROOT / "docs" / "examples"
CONFIGS = {name: EXAMPLES / f"{name}.yaml"
           for name in ("environment", "waveform", "components")}
REFERENCE = BENCH_DIR / "reference.json"

WORKLOADS = ("sweep_ul", "dl_dataset_cal", "cli_cold")
N_RUS = 10  # RUs of stripe 0 in docs/examples/environment.yaml

# sweep_ul: one pass is the sweep-ru cell loop (uplink, LoS, UE 0, RUs
# 0-9 of stripe 0) for one master seed.
SWEEP_MASTERS = tuple(range(1000, 1032))
# dl_dataset_cal: the seed picks one TDL dataset; one pass is every
# (RU, UE) pair on it for one link seed.
DL_DATASET_SEEDS = (11, 12, 13, 14)
DL_LINK_SEEDS = tuple(range(2000, 2008))
DL_UES = (0, 1)
TDL_TAPS, TDL_BETA = 8, 0.5  # the gen-channels defaults
# cli_cold: one pass is `run --ru 9` then `sweep-ru --jobs 2` for one seed.
CLI_SEEDS = tuple(range(3000, 3008))
CLI_RUN_RU = 9


@dataclasses.dataclass(frozen=True)
class Op:
    """One operation: its reference key and its arguments."""

    key: str
    ru: int
    seed: int
    ue: int = 0


def sweep_passes(seed: int) -> list[int]:
    """Master seeds in the order this workload seed visits them."""
    return random.Random(f"sweep_ul:{seed}").sample(SWEEP_MASTERS, len(SWEEP_MASTERS))


def sweep_pass_ops(master: int, derive_seed) -> list[Op]:
    """The sweep-ru cells of one pass; ``derive_seed`` is the program's."""
    return [Op(f"{master}/{ru}", ru, derive_seed(master, 0, ru)) for ru in range(N_RUS)]


def dl_plan(seed: int) -> tuple[int, list[int]]:
    """(dataset seed, link seeds in visiting order) for a workload seed."""
    rng = random.Random(f"dl_dataset_cal:{seed}")
    dataset_seed = rng.choice(DL_DATASET_SEEDS)
    return dataset_seed, rng.sample(DL_LINK_SEEDS, len(DL_LINK_SEEDS))


def dl_pass_ops(dataset_seed: int, link_seed: int) -> list[Op]:
    return [Op(f"{dataset_seed}/{link_seed}/{ue}/{ru}", ru, link_seed, ue)
            for ru in range(N_RUS) for ue in DL_UES]


def cli_passes(seed: int) -> list[int]:
    """CLI seeds in the order this workload seed visits them."""
    return random.Random(f"cli_cold:{seed}").sample(CLI_SEEDS, len(CLI_SEEDS))


def cli_argv(command: str, cli_seed: int, out_dir: Path, jobs: int = 2) -> list[str]:
    """Arguments of one CLI command on the example scenario."""
    argv = [command, "--env", str(CONFIGS["environment"]),
            "--waveform", str(CONFIGS["waveform"]),
            "--components", str(CONFIGS["components"]),
            "--seed", str(cli_seed), "--out", str(out_dir)]
    if command == "run":
        return argv + ["--ru", str(CLI_RUN_RU)]
    return argv + ["--jobs", str(jobs)]


CLI_OUTPUT = {"run": "metrics.csv", "sweep-ru": "heatmap.csv"}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def link_digest(result) -> str:
    """Digest of every MetricReport field plus stage-tap count and delay."""
    fields = []
    for field in dataclasses.fields(result.metrics):
        value = getattr(result.metrics, field.name)
        if value is None or isinstance(value, int):
            fields.append(value)
        elif hasattr(value, "tobytes"):
            fields.append(_sha256(value.tobytes()) if value.ndim else repr(float(value)))
        else:
            fields.append(repr(float(value)))
    fields += [len(result.stage_taps), int(result.delay_samples)]
    return _sha256(json.dumps(fields).encode())


def file_digest(path: Path) -> str:
    return _sha256(Path(path).read_bytes())


def load_reference(path: Path = REFERENCE) -> dict:
    return json.loads(Path(path).read_text())


class Checker:
    """Counts operations and failures against the reference digests.

    A missing reference counts as a mismatch: every output must match.
    """

    def __init__(self, reference: dict, workload: str):
        self.expected = reference.get(workload, {})
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def check(self, key: str, digest: str | None) -> bool:
        """Record one operation; ``digest`` None means it raised or exited non-zero."""
        self.attempted += 1
        ok = digest is not None and self.expected.get(key) == digest
        if not ok:
            self.failed += 1
            if len(self.mismatches) < 10:
                self.mismatches.append(key)
        return ok
