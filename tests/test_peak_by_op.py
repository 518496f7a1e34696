"""``tools/peak_by_op.py`` on a tiny workload: one line per op of the
benchmark's pass, every op run and measured."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "peak_by_op", ROOT / "tools" / "peak_by_op.py")
peak_by_op = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(peak_by_op)


def test_one_measured_line_per_op(tmp_path):
    pipeline = peak_by_op.load_pipeline(ROOT)
    tiny = pipeline.Workload(why="test", train_questions=2,
                             train_context_words=8, eval_questions=3,
                             eval_context_words=8, max_seq_length=32,
                             doc_stride=4)
    rows = peak_by_op.peak_by_op(pipeline, tiny, 3, tmp_path)
    ops = pipeline.pass_ops(tiny, 3, tmp_path / "data", tmp_path)
    assert [op.argv for op, *_ in rows] == [op.argv for op in ops]
    assert all(rc == 0 and peak > 0 for _, rc, peak, _ in rows)
    rss = [r for *_, r in rows]
    assert rss == sorted(rss) and rss[0] > 0  # a peak so far only rises
    lines = peak_by_op.format_rows(rows)
    assert len(lines) == len(rows) + 1
    assert lines[0].split() == ["op", "rc", "peak_mb", "maxrss_mb"]
    assert lines[6].split()[:3] == ["train", "highway_squad_out", "0"]
