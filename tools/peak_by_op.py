"""Memory of each operation of one benchmark pass: the tracemalloc peak of
every CLI call and the process's peak resident set after it.

    python3 tools/peak_by_op.py --workload paper-infer --seed 5

The pass is ``perfbench/pipeline.py``'s: its workload's corpora
(``write_corpora``) and its op list (``pass_ops``), both imported as they
are, run in order through ``squadlab.cli.main`` in this process with one
BLAS thread, as ``perfbench/run.py`` runs them.  squadlab is imported from
the ``src/`` of the checkout given by ``--root`` (default: the one holding
this script), and the pass writes under ``--out`` (default: a temporary
directory, removed afterwards).

Each line names the op (command, architecture), its exit code, the peak of
the memory that tracemalloc saw allocated during the call (MB, blocks
allocated before the call not counted) and ``ru_maxrss`` after it (MB):
the process's peak so far, so it only rises.  tracemalloc slows the pass
down; read no timing from it.  Standard library plus squadlab.
"""

import argparse
import contextlib
import io
import os
import resource
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_pipeline(root: Path):
    """``perfbench/pipeline.py`` of ``root``, with squadlab importable from
    its ``src/``."""
    for path in (root / "perfbench", root / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import pipeline
    return pipeline


def peak_by_op(pipeline, workload, seed: int, directory: Path) -> list:
    """One pass of ``workload``: per op, (op, exit code or exception text,
    tracemalloc peak in bytes, ru_maxrss after it in MB)."""
    from squadlab import cli
    data = directory / "data"
    pipeline.write_corpora(workload, seed, data)
    rows = []
    sink = io.StringIO()
    for op in pipeline.pass_ops(workload, seed, data, directory):
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                rc = cli.main(op.argv)
        except Exception as e:  # report the op, go on with the pass
            rc = f"{type(e).__name__}: {e}"
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        sink.seek(0)
        sink.truncate()
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rows.append((op, rc, peak, rss))
    return rows


def format_rows(rows) -> list:
    lines = [f"{'op':<42} {'rc':>3} {'peak_mb':>9} {'maxrss_mb':>10}"]
    for op, rc, peak, rss in rows:
        name = f"{op.command} {op.arch or ''}".strip()
        lines.append(f"{name:<42} {rc!s:>3} {peak / 1e6:>9.2f} {rss:>10.1f}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", type=Path, default=ROOT)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    pipeline = load_pipeline(args.root.resolve())
    workload = pipeline.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose one of "
              f"{sorted(pipeline.WORKLOADS)}", file=sys.stderr)
        return 2
    with contextlib.ExitStack() as stack:
        out = args.out or Path(stack.enter_context(
            tempfile.TemporaryDirectory(prefix="peak-by-op-")))
        rows = peak_by_op(pipeline, workload, args.seed, out)
    print("\n".join(format_rows(rows)))
    return 0 if all(rc == 0 for _, rc, _, _ in rows) else 2


if __name__ == "__main__":
    sys.exit(main())
