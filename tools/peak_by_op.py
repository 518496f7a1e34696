"""Memory of each operation of benchmark passes: the tracemalloc peak of
every CLI call and the process's peak resident set after it.

    python3 tools/peak_by_op.py --workload paper-infer --seed 5 \
        [--top 5 | --rss-sites] [--passes 12]

A pass is ``perfbench/pipeline.py``'s: its ``set_up`` (squadlab imported
afresh and the workload's corpora written, ``SETUP_REPEATS`` times) and its
op list (``pass_ops``), both imported as they are, run in order through
``squadlab.cli.main`` in this process, on the package's default of one BLAS
thread, as ``perfbench/run.py`` runs them.  ``--passes N`` (default 1)
runs N such passes one after another in the one process, each in its own
``pass-NN`` directory, and prints each pass's lines under a ``pass k/N``
line, so the op and the pass that set the process's peak can be named.
squadlab is imported from the ``src/`` of the checkout given by ``--root``
(default: the one holding this script), and the passes write under
``--out`` (default: a temporary directory, removed afterwards).

Each line names the op (command, architecture), its exit code, the peak of
the memory that tracemalloc saw allocated during the call (MB, blocks
allocated before the call not counted), ``ru_maxrss`` after it (MB): the
process's peak so far, so it only rises, and the number of full
(generation-2) garbage collections that started during the call, counted
through ``gc.callbacks``: a full collection frees cycles, so it can move a
peak.  tracemalloc slows the pass down; read no timing from it.  Nor is
all of its own memory returned when it stops: on paper-infer ``ru_maxrss``
climbs about 0.6 MB a pass under it that an untraced run of the same
passes does not, so compare ops and passes with each other, not with
perfbench's ``peak_rss_mb``.  Standard library plus squadlab.

With ``--top N`` the traced memory is also sampled after every
``Tensor._op`` (each op of a forward) and every ``Tensor._accum`` (each
gradient a backward accumulates), both wrapped from outside and put back
afterwards, as perfbench's tracer wraps them.  Under each op that made a
sample come the highest sample, the squadlab function that was running
then, and the N largest allocation sites alive then, grouped by line.  A
peak between two samples is still counted in ``peak_mb``; the snapshots
the sampler takes are not.

With ``--rss-sites`` the passes run without tracemalloc, so ``maxrss_mb``
is the peak perfbench's ``peak_rss_mb`` reads, and the process's current
resident set (``/proc/self/statm``, so Linux only) is sampled at every
call of a squadlab function and every return from one, through
``sys.setprofile``; the profiler is removed after each op.  The
``rss_mb`` column is the op's highest sample, and under each op come the
squadlab function running then and its squadlab callers, innermost
first.  Memory numpy frees inside a squadlab function before it returns
is not seen, and the kernel's resident counters are approximate, so a
sample can read about 0.2 MB above ``maxrss_mb``; the profiler slows the
pass down several times.
"""

import argparse
import contextlib
import gc
import io
import os
import resource
import sys
import tempfile
import tracemalloc
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Row(NamedTuple):
    op: object  # pipeline.Op
    rc: object  # exit code, or the text of the exception it raised
    peak: int  # tracemalloc peak, or with --rss-sites the highest sample, bytes
    rss: float  # ru_maxrss after the op, MB
    gen2: int  # full garbage collections that started during the op
    # with --top: (highest sample in bytes, "module:function" running then,
    # [(file:line, bytes alive then)] largest first); with --rss-sites:
    # (highest sample in bytes, "module:function" running then, [its
    # squadlab callers' "module:function"], innermost first); else None
    sample: tuple = None


def load_pipeline(root: Path):
    """``perfbench/pipeline.py`` of ``root``, with squadlab importable from
    its ``src/``."""
    for path in (root / "perfbench", root / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import pipeline
    return pipeline


def _site(trace_stat) -> str:
    """file:line of a statistic; squadlab's files from the package down."""
    frame = trace_stat.traceback[0]
    parts = Path(frame.filename).parts
    if "squadlab" in parts:
        parts = parts[parts.index("squadlab"):]
    return f"{Path(*parts)}:{frame.lineno}"


@contextlib.contextmanager
def full_collections():
    """Within the block, count in the yielded list's one entry the
    generation-2 collections that start; the callback is removed on exit."""
    count = [0]

    def seen(phase, info):
        if phase == "start" and info["generation"] == 2:
            count[0] += 1

    gc.callbacks.append(seen)
    try:
        yield count
    finally:
        gc.callbacks.remove(seen)


@contextlib.contextmanager
def sampled(tensor_class, top: int, found: dict):
    """Within the block, sample the traced memory after every call of
    ``tensor_class._op`` and ``_accum``; on a new highest sample, keep its
    size, the caller's "module:function" and the ``top`` largest sites in
    ``found`` (keys ``sample`` and ``peak``, the tracemalloc peak without
    the sampler's snapshots).  The class's attributes are restored on exit.
    """
    raw_op = tensor_class.__dict__["_op"]
    raw_accum = tensor_class.__dict__["_accum"]
    skip = [tracemalloc.Filter(False, tracemalloc.__file__)]

    def sample():
        size, peak = tracemalloc.get_traced_memory()
        found["peak"] = max(found["peak"], peak)
        if found["sample"] is None or size > found["sample"][0]:
            frame = sys._getframe(2)  # the caller of _op or _accum
            where = (f"{frame.f_globals.get('__name__')}:"
                     f"{frame.f_code.co_qualname}")
            stats = tracemalloc.take_snapshot().filter_traces(skip) \
                .statistics("lineno")[:top]
            found["sample"] = (size, where,
                               [(_site(s), s.size) for s in stats])
            del stats
            # the snapshot's own memory is not the op's
            tracemalloc.reset_peak()

    def op(data, parents, backward):
        out = raw_op.__func__(data, parents, backward)
        sample()
        return out

    def accum(self, g):
        raw_accum(self, g)
        sample()

    tensor_class._op = staticmethod(op)
    tensor_class._accum = accum
    try:
        yield found
    finally:
        tensor_class._op = raw_op
        tensor_class._accum = raw_accum


def _squadlab_name(frame):
    """"module:function" of a frame of squadlab's code, else None."""
    module = frame.f_globals.get("__name__") or ""
    if module == "squadlab" or module.startswith("squadlab."):
        return f"{module}:{frame.f_code.co_qualname}"
    return None


@contextlib.contextmanager
def resident_sites(found: dict):
    """Within the block, sample the process's resident set at every call
    of a squadlab function and every return from one; on a new highest
    sample, keep its size, the running function and its squadlab callers
    in ``found`` (keys ``sample`` and ``peak``).  The profiler is removed
    on exit."""
    page = os.sysconf("SC_PAGE_SIZE")
    fd = os.open("/proc/self/statm", os.O_RDONLY)

    def profile(frame, event, arg):
        if event not in ("call", "return"):
            return
        where = _squadlab_name(frame)
        if where is None:
            return
        size = int(os.pread(fd, 128, 0).split()[1]) * page
        if size > found["peak"]:
            callers = []
            caller = frame.f_back
            while caller is not None:
                name = _squadlab_name(caller)
                if name is not None:
                    callers.append(name)
                caller = caller.f_back
            found["peak"] = size
            found["sample"] = (size, where, callers)

    try:
        sys.setprofile(profile)
        yield found
    finally:
        sys.setprofile(None)
        os.close(fd)


def peak_by_op(pipeline, workload, seed: int, directory: Path,
               top: int = 0, rss_sites: bool = False) -> list:
    """One pass of ``workload`` after ``pipeline.set_up``: one ``Row`` per
    op, with the highest sample and its ``top`` largest allocation sites
    when ``top`` > 0, or untraced with the highest resident sample and
    its squadlab stack when ``rss_sites``."""
    data = directory / "data"
    pipeline.set_up(workload, seed, data)
    from squadlab import cli
    from squadlab.autograd import Tensor
    rows = []
    sink = io.StringIO()
    for op in pipeline.pass_ops(workload, seed, data, directory):
        found = {"peak": 0, "sample": None}
        if rss_sites:
            sampler = resident_sites(found)
        else:
            tracemalloc.start()
            sampler = (sampled(Tensor, top, found) if top
                       else contextlib.nullcontext())
        try:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink), \
                    full_collections() as gen2, sampler:
                rc = cli.main(op.argv)
        except Exception as e:  # report the op, go on with the pass
            rc = f"{type(e).__name__}: {e}"
        finally:
            peak = found["peak"]
            if not rss_sites:
                peak = max(peak, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        sink.seek(0)
        sink.truncate()
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rows.append(Row(op, rc, peak, rss, gen2[0], found["sample"]))
    return rows


def format_rows(rows, rss_sites: bool = False) -> list:
    """The header and one line per row; under a row with a sample, the
    sample's line and its sites (``--top``) or callers (``rss_sites``)."""
    # a resident sample in ru_maxrss's unit (2^20 bytes, as perfbench's)
    peak, unit = ("rss_mb", 2 ** 20) if rss_sites else ("peak_mb", 1e6)
    lines = [f"{'op':<42} {'rc':>3} {peak:>9} {'maxrss_mb':>10} {'gen2':>4}"]
    for row in rows:
        name = f"{row.op.command} {row.op.arch or ''}".strip()
        lines.append(f"{name:<42} {row.rc!s:>3} {row.peak / unit:>9.2f} "
                     f"{row.rss:>10.1f} {row.gen2:>4}")
        if row.sample is None:
            continue
        size, where, below = row.sample
        lines.append(f"    highest sample {size / unit:.2f} MB in {where}")
        if rss_sites:
            lines += [f"      called from {caller}" for caller in below]
        else:
            lines += [f"    {n / unit:>9.2f} MB  {site}" for site, n in below]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", type=Path, default=ROOT)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--top", type=int, default=0,
                        help="largest allocation sites to show at each op's "
                             "highest sample (default: none, no sampling)")
    parser.add_argument("--passes", type=int, default=1,
                        help="passes to run in this process (default: 1)")
    parser.add_argument("--rss-sites", action="store_true",
                        help="run untraced and name the squadlab stack at "
                             "each op's highest resident-set sample")
    args = parser.parse_args(argv)
    if args.top < 0:
        parser.error("--top must be 0 or more")
    if args.top and args.rss_sites:
        parser.error("--top and --rss-sites exclude each other")
    if args.passes < 1:
        parser.error("--passes must be 1 or more")
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
        passes = [peak_by_op(pipeline, workload, args.seed,
                             out / f"pass-{k:02d}", args.top, args.rss_sites)
                  for k in range(args.passes)]
    for k, rows in enumerate(passes, 1):
        print(f"pass {k}/{args.passes}")
        print("\n".join(format_rows(rows, args.rss_sites)))
    return 0 if all(row.rc == 0 for rows in passes for row in rows) else 2


if __name__ == "__main__":
    sys.exit(main())
