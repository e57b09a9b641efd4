"""Repository benchmark: one workload per invocation, result as JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs the workload's operation once untraced and once with
every layer it passes through wrapped, and reports the per-layer metrics
(see ``layers.py``) plus the tracing overhead.  Every metric is printed
by name with its unit; the last line of standard output is the result
object ``{"correct", "attempted", "failed", "metrics"}``.

The program is imported from ``src/`` next to this directory; without
it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

# one thread per process: a numeric library's own thread pool would
# compete with the city's pool workers for the few cores there are
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
FINGERPRINTS = HERE / "fingerprints.json"


def _import_program() -> None:
    """Import everything the workloads use."""
    sys.path.insert(0, str(ROOT / "src"))
    import repro.experiments.scaling  # noqa: F401
    import repro.obs.ops  # noqa: F401
    import repro.service  # noqa: F401
    import repro.shard.runner  # noqa: F401


def _import_wall() -> float:
    """Wall from spawning a fresh interpreter until it has imported the program."""
    t0 = time.time()
    done = subprocess.run(
        [sys.executable, __file__, "--import-probe"],
        check=True, capture_output=True, text=True,
    )
    return float(done.stdout) - t0


def _parse(argv: list[str] | None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
        help="one workload, or all of them in turn, each in its own process",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", action="store_true",
        help="store this run's fingerprints in fingerprints.json instead of "
        "only checking them (use for the default seed after an intended "
        "output change)",
    )
    return parser.parse_args(argv)


def _print_report(args: argparse.Namespace, run) -> None:
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    for name, (value, unit) in run.metrics.items():
        print(f"  {name:<28} {value:>16.6f} {unit}")
    for name, (value, unit) in run.info.items():
        shown = f"{value:.6f}" if isinstance(value, float) else str(value)
        print(f"  ({name:<26} {shown:>16} {unit})")
    ratio = run.failed / run.attempted if run.attempted else 1.0
    print(f"  {'failed_ratio':<28} {ratio:>16.6f} ratio "
          f"({run.failed} of {run.attempted})")
    tally: dict[tuple[str, str], list[int]] = {}
    for name, how, ok in run.checks:
        seen = tally.setdefault((name, how), [0, 0])
        seen[0] += ok
        seen[1] += 1
    for (name, how), (good, total) in tally.items():
        verdict = "ok" if good == total else "MISMATCH"
        print(f"  check {name} against {how}: {good} of {total} {verdict}")
    if run.tracer is not None:
        print("  self time by span (share of operation time):")
        for span, secs, share in run.tracer.self_shares():
            print(f"    {span:<26} {secs:>10.4f} s {share:>8.2%}")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        _import_program()
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if argv == ["--import-probe"]:
        print(repr(time.time()))
        return 0

    from workloads import WORKLOADS, Run

    args = _parse(argv)
    if args.workload == "all":
        common = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--trace", str(args.trace)] + (["--record"] if args.record else [])
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", w] + common).returncode
            for w in sorted(WORKLOADS)
        ]
        return max(codes)
    recorded = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.exists() else {}
    run = Run(
        seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        probe=None if args.trace else _import_wall, recorded=recorded, record=args.record,
    )
    WORKLOADS[args.workload](run)
    if args.record:
        FINGERPRINTS.write_text(json.dumps(run.recorded, indent=1, sort_keys=True) + "\n")

    _print_report(args, run)
    print(json.dumps({
        # every fingerprint mismatch is also a failed operation
        "correct": run.failed == 0 and bool(run.checks),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in run.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
