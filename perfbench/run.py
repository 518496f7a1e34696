"""Benchmark entry point: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload long-train --seed 1 --seconds 40 --trace 0

Run from the root of a squadlab checkout; the benchmark imports squadlab
from that checkout's ``src/`` and writes only under ``.perfbench/`` there.
It prints one line per metric (with its sample count), the operation
failure share, the run's provenance, and as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones from a traced run.
Exit code 2 means the benchmark could not run at all.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1  # at most nproc; one thread keeps tiny matmuls steady


def _source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "squadlab" / "__init__.py").is_file():
        print(f"error: no squadlab sources under {src}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.dont_write_bytecode = True  # every run compiles the same sources
    sys.path.insert(0, str(src))

    import importlib.util

    import numpy

    import pipeline

    origin = Path(importlib.util.find_spec("squadlab").origin).resolve()
    if origin.parent != src / "squadlab":
        print(f"error: squadlab resolves to {origin}, not {src}",
              file=sys.stderr)
        return 2
    workload = pipeline.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose one of "
              f"{sorted(pipeline.WORKLOADS)}", file=sys.stderr)
        return 2

    state = ROOT / ".perfbench"
    work = state / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    trace_out = state / f"trace-{args.workload}-seed{args.seed}.jsonl"
    work.mkdir(parents=True)
    try:
        result = pipeline.measure(workload, args.seed, args.seconds,
                                  bool(args.trace), work,
                                  trace_out if args.trace else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{workload.why}")
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit:6s} {result.samples[name]}")
    for i, p in enumerate(result.passes):
        print(f"  pass {i}{' traced' if p.traced else ''}: {p.wall_s:.3f} s "
              f"(train {p.stage_seconds('train'):.3f}, predict "
              f"{p.stage_seconds('predict'):.3f}, ensemble+evaluate "
              f"{p.stage_seconds('ensemble', 'evaluate'):.3f})")
    failed = len(result.failures)
    print(f"  ops_failed_share {failed}/{result.attempted} = "
          f"{failed / result.attempted:.6g}")
    for why in result.failures[:10]:
        print(f"  failed: {why}")
    if args.trace:
        print(f"  spans written to {trace_out.relative_to(ROOT)}")
    for target in result.missing:
        print(f"  not traced, absent from this squadlab: {target}")
    provenance = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(),
        "nproc_affinity": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_commit": _git_commit(), "source_sha256": _source_digest(src),
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
