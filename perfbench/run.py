"""End-to-end benchmark: run one workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload scale_burst --seed 0 --seconds 18 --trace 0

``--trace 0`` prints the end-to-end metrics of untraced runs; ``--trace 1``
makes one untraced and one traced run of the same inputs and prints the
per-layer metrics, writing the spans to ``.perfbench/``.  Every line but the
last is for people; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any failed
correctness check exits with status 1.  See ``perfbench/README.md``.
"""

import os

# Pin every BLAS / OpenMP pool to one thread before numpy is imported:
# numpy here links a threaded OpenBLAS, and pool threads would make the
# single-threaded program's wall times depend on the machine's idle cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("scale_burst", "slo_chaos_live", "w4ax_decode")
DEFAULT_SECONDS = 18


def _import_path() -> None:
    """Make ``repro`` (from ``src/``) and ``perfbench`` importable."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"perfbench: no program source at {ROOT / 'src' / 'repro'}")
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))


def execute(workload: str, seed: int, seconds: float, trace: bool,
            small: bool = False, out_dir: Path | None = None):
    """Run one workload; returns its :class:`perfbench.common.Outcome`.
    ``small`` shrinks every size for the benchmark's own tests."""
    from perfbench import numerics, sim

    spec, runner = {
        "scale_burst": (sim.ScaleBurst(), sim.run),
        "slo_chaos_live": (sim.SloChaos(), sim.run),
        "w4ax_decode": (numerics.W4AxDecode(), numerics.run),
    }[workload]
    if small:
        spec = spec.small()
    return runner(spec, seed, seconds, trace, out_dir or ROOT / ".perfbench",
                  f"{workload}-seed{seed}")


def result_line(outcome, units: dict[str, str]) -> str:
    return json.dumps({
        "correct": not outcome.failures,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": float(outcome.metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    })


def main(argv=None, small: bool = False, out_dir: Path | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one workload of the end-to-end benchmark."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="seed the workload's inputs are drawn from")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measure about this long (whole repetitions)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced run reporting per-layer metrics")
    args = parser.parse_args(argv)

    from perfbench.common import E2E_UNITS, LAYER_UNITS

    outcome = execute(args.workload, args.seed, args.seconds,
                      bool(args.trace), small=small, out_dir=out_dir)
    units = LAYER_UNITS if args.trace else E2E_UNITS
    for note in outcome.notes:
        print(note)
    print(f"{args.workload} seed {args.seed}: sent {outcome.attempted}, "
          f"succeeded {outcome.attempted - outcome.failed}, "
          f"failed {outcome.failed}")
    for name, unit in units.items():
        print(f"  {name:<32} {outcome.metrics[name]:>16.6g} {unit}")
    for failure in outcome.failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(result_line(outcome, units), flush=True)
    return 1 if outcome.failures else 0


if __name__ == "__main__":
    _import_path()
    sys.exit(main())
