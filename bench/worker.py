"""One benchmark process: a set-up probe, an in-process workload loop or
one CLI command run in-process.

``run.py`` starts this file in a fresh interpreter and reads the JSON
object it prints as its last line. Roles:

- ``inproc``: set up ``sweep_ul`` or ``dl_dataset_cal`` and, unless
  ``--seconds 0``, run whole passes in a closed loop for that long.
- ``cli-setup``: import ``stripesim.cli`` and load the example configs,
  the cold-start work every CLI command repeats.
- ``cli-command``: run one CLI command through ``cli.main`` in this
  interpreter, traced or not. ``sweep-ru`` runs with ``--jobs 1`` here
  because spans cannot be seen inside pool workers.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads as wl  # noqa: E402
from spans import TIME_METRICS, Tracer, op_counts, summarize  # noqa: E402

sys.path.insert(0, str(wl.SRC))

# In-process workloads run these layers in set-up only, so the traced run
# reports them for its one traced set-up instead of per pass.
SETUP_SCOPED = ("config.load_s", "config.load_calls", "touchstone.parse_s",
                "touchstone.parse_calls", "dataset.generate_s", "dataset.write_s")


def _import_cli() -> float:
    """Import the CLI module (and so the whole package); seconds taken."""
    start = time.perf_counter()
    import stripesim.cli  # noqa: F401
    import stripesim
    taken = time.perf_counter() - start
    if not Path(stripesim.__file__).resolve().is_relative_to(wl.SRC):
        raise RuntimeError(f"stripesim imported from {stripesim.__file__}, not {wl.SRC}")
    return taken


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def load_configs():
    from stripesim import config
    return (config.load_environment(wl.CONFIGS["environment"]),
            config.load_waveform(wl.CONFIGS["waveform"]),
            config.load_components(wl.CONFIGS["components"]))


def sweep_runner(env, wf, bank):
    """run_op of sweep_ul: one sweep-ru cell, in this process."""
    from stripesim import stripe

    def run_op(op):
        return stripe.run_link(env, wf, bank, "los", ue_index=0, stripe_id=0,
                               active_ru=op.ru, direction="ul", seed=op.seed)
    return run_op


def dl_runner(env, wf, bank, dataset_seed: int, workdir: Path):
    """Write the TDL dataset of dl_dataset_cal; return its run_op, which
    opens the dataset afresh for every link as each CLI call does."""
    from stripesim import dataset, stripe
    from stripesim.channel import TdlParams
    from stripesim.waveform import SubcarrierGrid

    sub = env.sub_thz
    grid = SubcarrierGrid(sub.fc, sub.bw, sub.num_subcarriers, 1)
    generated = dataset.generate_synthetic(
        env, grid, model="tdl", seed=dataset_seed,
        tdl_params=TdlParams(n_taps=wl.TDL_TAPS, beta=wl.TDL_BETA),
        n_tx=env.antenna.n_antennas, n_rx=env.antenna.n_antennas)
    ds_dir = workdir / "dataset"
    dataset.write_dataset(generated, ds_dir)

    def run_op(op):
        reader = dataset.read_dataset(ds_dir)
        return stripe.run_link(env, wf, bank, reader, ue_index=op.ue, stripe_id=0,
                               active_ru=op.ru, direction="dl", seed=op.seed,
                               calibrate=True)
    return run_op


def _link_workload(workload: str, seed: int, workdir: Path):
    """(pass_ops, run_op) of an in-process workload after its set-up."""
    from stripesim import streams

    env, wf, bank = load_configs()
    if workload == "sweep_ul":
        masters = wl.sweep_passes(seed)
        return (lambda k: wl.sweep_pass_ops(masters[k % len(masters)], streams.derive_seed),
                sweep_runner(env, wf, bank))
    dataset_seed, link_seeds = wl.dl_plan(seed)
    return (lambda k: wl.dl_pass_ops(dataset_seed, link_seeds[k % len(link_seeds)]),
            dl_runner(env, wf, bank, dataset_seed, workdir))


def run_inproc(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
               reference: dict, spawned_at: float | None = None,
               spans_out: Path | None = None) -> dict:
    """Set up an in-process workload, then loop over whole passes.

    Untraced, the loop runs ``seconds``. Traced, the first half runs
    untraced and the second half traced, so the pass times of the two
    halves give the tracing overhead.
    """
    import_s = _import_cli()
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    pass_ops, run_op = _link_workload(workload, seed, workdir)
    checker = wl.Checker(reference, workload)

    def attempt(op) -> float:
        start = time.perf_counter()
        try:
            digest = wl.link_digest(run_op(op))
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc()
            digest = None
        elapsed = time.perf_counter() - start
        if not checker.check(op.key, digest):
            print(f"bench: output of {workload} {op.key} differs from the reference",
                  file=sys.stderr)
        return elapsed

    if tracer:
        tracer.op = "warmup"
    attempt(pass_ops(0)[0])
    setup_s = None if spawned_at is None else time.monotonic() - spawned_at
    if tracer:
        tracer.uninstall()

    def run_passes(first: int, budget: float, label: bool = False):
        latencies, k = [], first
        start = time.monotonic()
        while True:
            if label:
                tracer.op = f"p{k}"
            latencies += [attempt(op) for op in pass_ops(k)]
            k += 1
            if time.monotonic() - start >= budget:
                return latencies, k - first, time.monotonic() - start

    out = {"import_s": import_s, "setup_s": setup_s}
    if seconds > 0 and not trace:
        latencies, passes, loop_s = run_passes(0, seconds)
        out.update(latencies_s=latencies, passes=passes, loop_s=loop_s)
    elif seconds > 0:
        _, plain_passes, plain_s = run_passes(0, seconds / 2)
        tracer.install()
        first = plain_passes
        _, passes, traced_s = run_passes(first, seconds / 2, label=True)
        tracer.uninstall()
        ops = [f"p{k}" for k in range(first, first + passes)]
        pass_counts = [op_counts(tracer.counts, op) for op in ops]
        totals = summarize(tracer.spans, tracer.counts, ops)
        layers = {name: totals[name] / passes for name in TIME_METRICS}
        layers.update(pass_counts[0])
        setup = summarize(tracer.spans, tracer.counts, ["setup"])
        layers.update({name: setup[name] for name in SETUP_SCOPED})
        layers["cli.import_s"] = import_s
        layers["trace.overhead_pct"] = 100.0 * ((traced_s / passes) / (plain_s / plain_passes) - 1.0)
        out.update(layers=layers, passes=passes, plain_passes=plain_passes,
                   pass_s=[plain_s / plain_passes, traced_s / passes],
                   counts_repeat=all(c == pass_counts[0] for c in pass_counts),
                   pass_counts=pass_counts[0])
        if spans_out is not None:
            spans_out.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op"],
                                             "spans": tracer.spans}))
    out.update(attempted=checker.attempted, failed=checker.failed,
               mismatches=checker.mismatches, peak_rss_kb=_peak_rss_kb())
    return out


def run_cli_setup(spawned_at: float) -> dict:
    import_s = _import_cli()
    load_configs()
    return {"import_s": import_s, "setup_s": time.monotonic() - spawned_at}


def run_cli_command(command: str, cli_seed: int, out_dir: Path, trace: bool,
                    reference: dict) -> dict:
    import_s = _import_cli()
    from stripesim import cli
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
        tracer.op = "cmd"
    start = time.perf_counter()
    code = cli.main(wl.cli_argv(command, cli_seed, out_dir, jobs=1))
    wall_s = time.perf_counter() - start
    if tracer:
        tracer.uninstall()
    output = out_dir / wl.CLI_OUTPUT[command]
    digest = wl.file_digest(output) if code == 0 and output.is_file() else None
    checker = wl.Checker(reference, "cli_cold")
    checker.check(f"{command}/{cli_seed}", digest)
    out = {"import_s": import_s, "wall_s": wall_s,
           "attempted": checker.attempted, "failed": checker.failed}
    if tracer:
        out["layers"] = summarize(tracer.spans, tracer.counts, ["cmd"])
        out["counts"] = op_counts(tracer.counts, "cmd")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("role", choices=("inproc", "cli-setup", "cli-command"))
    parser.add_argument("--workload", choices=("sweep_ul", "dl_dataset_cal"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.monotonic() of the parent when it started this process")
    parser.add_argument("--workdir", type=Path)
    parser.add_argument("--spans-out", type=Path)
    parser.add_argument("--command", choices=tuple(wl.CLI_OUTPUT))
    args = parser.parse_args(argv)
    reference = wl.load_reference()
    if args.role == "inproc":
        result = run_inproc(args.workload, args.seed, args.seconds, bool(args.trace),
                            args.workdir, reference, args.spawned_at, args.spans_out)
    elif args.role == "cli-setup":
        result = run_cli_setup(args.spawned_at)
    else:
        result = run_cli_command(args.command, args.seed, args.workdir, bool(args.trace),
                                 reference)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
