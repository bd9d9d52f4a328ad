"""dualitylab benchmark: closed-loop bundles from one client thread.

Run from the repository root:

    python3 perfbench/run.py --workload report_ensemble --seed 1 --seconds 40 --trace 0

One timed operation is a *bundle*: a fixed composition of library or CLI
calls (see ``workloads.py``).  The loop is closed with a single client: the
next bundle starts when the previous one has returned and its outputs have
been checked.  Inputs come from ``--seed`` and are generated between bundles,
outside the timed interval, as are the output checks.

``--trace 0`` patches nothing and prints the end-to-end metrics.  Set-up time
is the median over several fresh interpreters (this process plus probe
processes), each timed from before numpy and dualitylab are imported to the
point where the first bundle could start.  The probes run one at a time
between bundles, spread evenly over the timed run and outside every timed
interval, so they sample the same machine speed as the bundles do.

``--trace 1`` alternates untraced and traced cycles of bundles, prints the
per-layer metrics (per traced bundle) and the tracing overhead, and writes the
spans of the first traced bundles to ``.perfbench_out/``.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Exit status is non-zero, with no result printed, when the
dualitylab sources are not present next to this directory.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402

# BLAS/OpenMP pools must be pinned before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
# Artifacts embed a timestamp only when this is set; they must stay identical.
os.environ.pop("SOURCE_DATE_EPOCH", None)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = ("src/dualitylab/__init__.py", "tests/oracles.py")
SETUP_PROBES = 8        # probe interpreters timed for setup_s, besides this one
PROBE_TIMEOUT_S = 60
WORKLOAD_NAMES = ("report_ensemble", "fringe_scan", "cli_batch")


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print the set-up time and exit")
    return parser.parse_args(argv)


def _set_up(args, workdir: str):
    """Import the program, build the workload and warm it up."""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    for index in range(workload.warmup):
        inp = workload.inputs(index)
        workload.check(inp, workload.bundle(inp))
    return workload


def make_workdir(prefix: str) -> str:
    """Fresh directory for scenario files and artifacts, inside the checkout."""
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=scratch)


def _probe_setup_time(args) -> float:
    """Set-up time of one fresh interpreter running this workload."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        check=True)
    return float(proc.stdout.split()[-1])


def _run_bundle(workload, index: int, tracer=None):
    """One timed bundle plus its untimed input generation and check.

    Returns (seconds, ok, vis_err).  A bundle or check that raises counts as
    failed, and the run goes on.
    """
    inp = workload.inputs(index)
    if tracer is not None:
        tracer.begin_bundle()
    start = time.perf_counter()
    try:
        out = workload.bundle(inp)
    except Exception as exc:
        out = exc
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.end_bundle()
    if isinstance(out, Exception):
        print(f"bundle {index} raised {out!r}", file=sys.stderr)
        return seconds, False, 0.0
    try:
        ok, vis_err = workload.check(inp, out)
    except Exception as exc:
        print(f"bundle {index}: check raised {exc!r}", file=sys.stderr)
        return seconds, False, 0.0
    if not ok:
        print(f"bundle {index}: output check failed", file=sys.stderr)
    return seconds, ok, vis_err


def _measure(workload, seconds: float, tracer=None, pauses=()):
    """Closed loop of whole cycles until ``seconds`` of wall time have passed.

    ``pauses`` are (offset_s, action) pairs: each action runs once between
    cycles, when its offset into the run has passed, and at the latest after
    the last cycle.  With a tracer, cycles alternate untraced and traced;
    returns (untraced_times, traced_times, failed, worst_vis_err).
    """
    plain, traced = [], []
    failed, worst = 0, 0.0
    index = workload.warmup
    start = time.perf_counter()
    deadline = start + seconds
    pending = sorted(pauses, key=lambda pause: pause[0])
    cycle = 0
    while time.perf_counter() < deadline or (tracer is not None and not traced):
        while pending and time.perf_counter() >= start + pending[0][0]:
            pending.pop(0)[1]()
        use_tracer = tracer if (tracer is not None and cycle % 2) else None
        for _ in range(workload.cycle):
            duration, ok, vis_err = _run_bundle(workload, index, use_tracer)
            index += 1
            (traced if use_tracer else plain).append(duration)
            failed += not ok
            worst = max(worst, vis_err)
        cycle += 1
    for _, action in pending:
        action()
    return plain, traced, failed, worst


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(args, workload) -> dict:
    setup_times = [time.perf_counter() - _START]
    probes = [((k + 0.5) * args.seconds / SETUP_PROBES,
               lambda: setup_times.append(_probe_setup_time(args)))
              for k in range(SETUP_PROBES)]
    times, _, failed, _ = _measure(workload, args.seconds, pauses=probes)
    deciles = statistics.quantiles(times, n=10)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "op_p90_ms": _metric(deciles[8] * 1e3, "ms"),
        "peak_rss_mb": _metric(peak_kib / 1024.0, "MiB"),
    }
    # The median and the throughput follow the machine's speed phases (see
    # RATIONALE.md), so they are printed for reading but not gated on.
    print(f"{args.workload}: closed loop, 1 client; {len(times)} bundles, "
          f"{failed} failed (failed_frac {failed / len(times):.6g}); "
          f"ops_per_s {len(times) / sum(times):.6g}, "
          f"op_p50_ms {statistics.median(times) * 1e3:.6g}; "
          f"setup over {len(setup_times)} interpreters")
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    return {"correct": failed == 0, "attempted": len(times), "failed": failed,
            "metrics": metrics}


def _per_layer(args, workload) -> dict:
    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        plain, traced, failed, worst = _measure(workload, args.seconds, tracer)
    finally:
        tracer.restore()
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"trace-{args.workload}-seed{args.seed}.json")

    per_bundle_ms = 1e3 / tracer.bundles
    self_s, counts, timers = tracer.self_s, tracer.counts, tracer.timers
    metrics = {
        "core_state.self_ms": _metric(self_s["core_state"] * per_bundle_ms, "ms"),
        "core_state.states_built": _metric(
            counts["core_state.states_built"] / tracer.bundles, "count"),
        "core_state.eig_calls": _metric(
            counts["core_state.eig_calls"] / tracer.bundles, "count"),
        "pairwise.self_ms": _metric(self_s["pairwise"] * per_bundle_ms, "ms"),
        "pairwise.calls": _metric(counts["pairwise.calls"] / tracer.bundles, "count"),
        "pairwise.dark_pairs": _metric(
            counts["pairwise.dark_pairs"] / tracer.bundles, "count"),
        "multipath.self_ms": _metric(self_s["multipath"] * per_bundle_ms, "ms"),
        "multipath.eig_calls": _metric(
            counts["multipath.eig_calls"] / tracer.bundles, "count"),
        "fringes.self_ms": _metric(self_s["fringes"] * per_bundle_ms, "ms"),
        "fringes.samples": _metric(counts["fringes.samples"] / tracer.bundles, "count"),
        "fringes.vis_err_max": _metric(worst, "abs"),
        "uqsd.self_ms": _metric(self_s["uqsd"] * per_bundle_ms, "ms"),
        "uqsd.trials_per_s": _metric(
            counts["uqsd.trials"] / timers["uqsd.simulate_s"]
            if timers["uqsd.simulate_s"] else 0.0, "1/s"),
        "cli.parse_ms": _metric(timers["cli.parse_s"] * per_bundle_ms, "ms"),
        "cli.self_ms": _metric(self_s["cli"] * per_bundle_ms, "ms"),
        "cli.validate_only_ms": _metric(
            timers["cli.validate_only_s"] * per_bundle_ms, "ms"),
        "cli.bytes_written": _metric(
            float(sum(map(len, workload.artifacts().values()))), "B"),
    }
    for layer in tracing.LAYERS + ("bundle",):
        name = "unattributed" if layer == "bundle" else layer
        metrics[f"{name}.share_pct"] = _metric(
            100.0 * self_s[layer] / tracer.bundle_s, "%")
    traced_ms = statistics.median(traced) * 1e3
    plain_ms = statistics.median(plain) * 1e3
    metrics["trace.overhead_pct"] = _metric(100.0 * (traced_ms / plain_ms - 1.0), "%")

    attempted = len(plain) + len(traced)
    print(f"{args.workload}: {len(traced)} traced and {len(plain)} untraced "
          f"bundles, {failed} failed; median traced bundle {traced_ms:.6g} ms")
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = _parse_args(argv)
    missing = [path for path in REQUIRED if not (ROOT / path).is_file()]
    if missing:
        print(f"perfbench: missing {', '.join(missing)}; run from a dualitylab "
              "checkout", file=sys.stderr)
        return 2
    workdir = make_workdir(f"{args.workload}-")
    try:
        workload = _set_up(args, workdir)
        if args.setup_probe:
            print(time.perf_counter() - _START)
            return 0
        result = _per_layer(args, workload) if args.trace else \
            _end_to_end(args, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
