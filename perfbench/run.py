"""priorad benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload desk_pipeline --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

Run from the repository root. The workload builds its inputs from --seed
and sets up at least three times (setup_s is the median). It then repeats
its job with that seed, at least twice, while another job is expected to
end within --seconds, checks every job's outputs and prints one line per
metric followed by a JSON result as the last line of standard output.
``--workload all`` runs every workload in turn, each in its own process. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced jobs and reports the
per-layer metrics of the traced ones. A run record with the environment
(and the spans, when traced) is written under .bench_out/.

Exit status: 0 with correct results, 1 when a check failed, 2 when the
priorad sources are missing or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

# Both sides of a comparison run with this BLAS thread count. One thread is
# as fast as two here and steadier on a shared machine.
BLAS_THREADS = 1

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_blas_threads():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not (SRC / "priorad" / "__init__.py").is_file():
        print(f"error: no priorad sources under {SRC}", file=sys.stderr)
        return 2
    pin_blas_threads()   # before numpy is first imported
    sys.path.insert(0, str(SRC))
    import measure
    from workloads import WORKLOADS
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed),
                                 "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in WORKLOADS]
        return max(codes)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    return measure.run(args, WORKLOADS[args.workload], ROOT, OUT,
                       blas_threads=BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
