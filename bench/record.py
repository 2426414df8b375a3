"""Record the reference digest of every operation any workload seed can run.

    python3 bench/record.py

Writes ``bench/reference.json``. Run it only for a change that alters
results on purpose, and say in that change that it is a results change.
Takes a few minutes: it runs every link in the workload pools once.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads as wl  # noqa: E402
import worker  # noqa: E402


def main() -> int:
    worker._import_cli()
    from stripesim import cli, streams

    env, wf, bank = worker.load_configs()
    reference = {"sweep_ul": {}, "dl_dataset_cal": {}, "cli_cold": {}}
    run_op = worker.sweep_runner(env, wf, bank)
    for master in wl.SWEEP_MASTERS:
        for op in wl.sweep_pass_ops(master, streams.derive_seed):
            reference["sweep_ul"][op.key] = wl.link_digest(run_op(op))
    with tempfile.TemporaryDirectory(dir=wl.BENCH_DIR) as tmp:
        for dataset_seed in wl.DL_DATASET_SEEDS:
            run_op = worker.dl_runner(env, wf, bank, dataset_seed, Path(tmp) / str(dataset_seed))
            for link_seed in wl.DL_LINK_SEEDS:
                for op in wl.dl_pass_ops(dataset_seed, link_seed):
                    reference["dl_dataset_cal"][op.key] = wl.link_digest(run_op(op))
        for cli_seed in wl.CLI_SEEDS:
            for command, output in wl.CLI_OUTPUT.items():
                out_dir = Path(tmp) / f"{command}-{cli_seed}"
                if cli.main(wl.cli_argv(command, cli_seed, out_dir, jobs=1)) != 0:
                    raise RuntimeError(f"{command} --seed {cli_seed} failed")
                reference["cli_cold"][f"{command}/{cli_seed}"] = wl.file_digest(out_dir / output)
    wl.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, reference.values()))} digests to {wl.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
