"""``tools/peak_by_op.py`` on a tiny workload: one line per op of the
benchmark's pass, every op run and measured."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "peak_by_op", ROOT / "tools" / "peak_by_op.py")
peak_by_op = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(peak_by_op)


def _tiny(pipeline):
    return pipeline.Workload(why="test", train_questions=2,
                             train_context_words=8, eval_questions=3,
                             eval_context_words=8, max_seq_length=32,
                             doc_stride=4)


def test_one_measured_line_per_op(tmp_path):
    pipeline = peak_by_op.load_pipeline(ROOT)
    tiny = _tiny(pipeline)
    rows = peak_by_op.peak_by_op(pipeline, tiny, 3, tmp_path)
    ops = pipeline.pass_ops(tiny, 3, tmp_path / "data", tmp_path)
    assert [row.op.argv for row in rows] == [op.argv for op in ops]
    assert all(row.rc == 0 and row.peak > 0 for row in rows)
    assert all(row.sample is None for row in rows)
    rss = [row.rss for row in rows]
    assert rss == sorted(rss) and rss[0] > 0  # a peak so far only rises
    lines = peak_by_op.format_rows(rows)
    assert len(lines) == len(rows) + 1
    assert lines[0].split() == ["op", "rc", "peak_mb", "maxrss_mb", "gen2"]
    assert lines[6].split()[:3] == ["train", "highway_squad_out", "0"]
    assert [int(line.split()[-1]) for line in lines[1:]] == \
        [row.gen2 for row in rows]


def test_full_collections_are_counted_per_op(tmp_path, monkeypatch):
    """A full collection inside an op counts in its ``gen2``, a younger
    one does not, and the counting callback is removed afterwards."""
    import gc

    from squadlab import cli
    pipeline = peak_by_op.load_pipeline(ROOT)
    raw_main = cli.main

    def collecting(argv):
        gc.collect(0)
        gc.collect(1)
        gc.collect()
        return raw_main(argv)

    callbacks = list(gc.callbacks)
    monkeypatch.setattr(cli, "main", collecting)
    rows = peak_by_op.peak_by_op(pipeline, _tiny(pipeline), 3, tmp_path)
    assert gc.callbacks == callbacks
    assert all(row.rc == 0 and row.gen2 >= 1 for row in rows)
    with peak_by_op.full_collections() as count:
        gc.collect(1)
        assert count == [0]
        gc.collect(2)
        assert count == [1]
    assert gc.callbacks == callbacks


def test_top_sites_at_each_ops_highest_sample(tmp_path):
    """``--top 3``: every BiDAF op names the function running at its
    highest sample and three allocation sites alive then, and the
    sampler puts ``Tensor._op`` and ``Tensor._accum`` back."""
    pipeline = peak_by_op.load_pipeline(ROOT)
    from squadlab.autograd import Tensor
    before = Tensor.__dict__["_op"], Tensor.__dict__["_accum"]
    rows = peak_by_op.peak_by_op(pipeline, _tiny(pipeline), 3, tmp_path,
                                 top=3)
    assert (Tensor.__dict__["_op"], Tensor.__dict__["_accum"]) == before
    bidaf = [row for row in rows if (row.op.arch or "").endswith("_bidaf")]
    assert len(bidaf) == 6  # train and predict of three architectures
    for row in bidaf:
        size, where, sites = row.sample
        assert row.rc == 0 and 0 < size <= row.peak
        assert where.startswith("squadlab.")
        assert len(sites) == 3
        assert [n for _, n in sites] == sorted((n for _, n in sites),
                                               reverse=True)
        assert all(":" in site and n > 0 for site, n in sites)
    lines = peak_by_op.format_rows(rows)
    train = lines.index(next(line for line in lines
                             if line.startswith("train bilstm_attn")))
    assert lines[train + 1].startswith("    highest sample ")
    assert len(lines) == 1 + len(rows) + sum(
        1 + len(row.sample[2]) for row in rows if row.sample is not None)


def test_two_passes_in_one_process(tmp_path, capsys, monkeypatch):
    """``--passes 2``: each pass sets up and runs every op in its own
    directory, and prints its lines under its own ``pass k/2`` line; the
    process's peak so far only rises across both."""
    pipeline = peak_by_op.load_pipeline(ROOT)
    tiny = _tiny(pipeline)
    monkeypatch.setitem(pipeline.WORKLOADS, "tiny", tiny)
    # main sets it for the process; put it back afterwards
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    assert peak_by_op.main(["--workload", "tiny", "--seed", "3", "--passes",
                            "2", "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    ops = pipeline.pass_ops(tiny, 3, tmp_path / "pass-00" / "data",
                            tmp_path / "pass-00")
    each = len(ops) + 2  # the pass line, the header, one line per op
    assert len(lines) == 2 * each
    assert [lines[0], lines[each]] == ["pass 1/2", "pass 2/2"]
    rss = []
    for k in range(2):
        header, *rows = lines[k * each + 1:(k + 1) * each]
        assert header.split() == ["op", "rc", "peak_mb", "maxrss_mb", "gen2"]
        assert [row.split()[0] for row in rows] == [op.command for op in ops]
        assert all(row.split()[-4] == "0" for row in rows)
        rss += [float(row.split()[-2]) for row in rows]
        assert (tmp_path / f"pass-{k:02d}" / "data" / "eval.json").is_file()
    assert rss == sorted(rss) and rss[0] > 0


def test_rss_sites_sample_the_resident_set_untraced(tmp_path, monkeypatch):
    """``--rss-sites``: every op runs without tracemalloc, and its row has
    the highest resident-set sample taken at a squadlab call or return,
    the squadlab function running then and its squadlab callers down to
    ``cli.main``; the profiler is removed after each op."""
    import tracemalloc

    from squadlab import cli
    pipeline = peak_by_op.load_pipeline(ROOT)
    raw_main = cli.main
    seen = []

    def watched(argv):
        seen.append((tracemalloc.is_tracing(), sys.getprofile() is not None))
        return raw_main(argv)

    monkeypatch.setattr(cli, "main", watched)
    rows = peak_by_op.peak_by_op(pipeline, _tiny(pipeline), 3, tmp_path,
                                 rss_sites=True)
    assert sys.getprofile() is None
    assert seen == [(False, True)] * len(rows)
    assert all(row.rc == 0 for row in rows)
    for row in rows:
        size, where, callers = row.sample
        assert size == row.peak > 0
        # the kernel's resident counters are approximate to a few pages
        assert size <= (row.rss + 1) * 2 ** 20
        stack = [where, *callers]
        assert all(name.startswith("squadlab.") for name in stack)
        assert stack[-1] == "squadlab.cli:main"
    lines = peak_by_op.format_rows(rows, rss_sites=True)
    assert lines[0].split() == ["op", "rc", "rss_mb", "maxrss_mb", "gen2"]
    assert len(lines) == 1 + sum(2 + len(row.sample[2]) for row in rows)
    assert lines[2].startswith("    highest sample ")
    with pytest.raises(SystemExit):
        peak_by_op.main(["--workload", "tiny", "--seed", "3", "--top", "2",
                         "--rss-sites"])
