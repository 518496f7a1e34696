"""Checks of the benchmark itself: it reports exactly the metrics that
BENCHMARK.json names, its counters repeat exactly from run to run, a failing
operation is counted, and tracing leaves squadlab as it found it."""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import pipeline  # noqa: E402
from squadlab import cli  # noqa: E402
from squadlab.autograd import Tensor  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = pipeline.Workload(why="test", train_questions=2, train_context_words=8,
                         eval_questions=3, eval_context_words=8,
                         max_seq_length=32, doc_stride=4)
# preprocess + pseudo-embed per split, train and predict per architecture,
# then 3 ensembles + 3 evaluates per ensemble round
OPS_PER_PASS = 4 + 5 + 5 + 6 * pipeline.ENSEMBLE_ROUNDS


def _names(section):
    return [m["name"] for m in BENCH[section]]


def test_workloads_match_benchmark_json():
    assert {w["name"]: w["why"] for w in BENCH["workloads"]} == {
        name: w.why for name, w in pipeline.WORKLOADS.items()}


def test_untraced_run_reports_end_to_end_metrics(tmp_path):
    m = pipeline.measure(TINY, 3, 0, False, tmp_path / "w")
    assert m.failures == []
    assert m.attempted == OPS_PER_PASS
    assert list(m.metrics) == _names("end_to_end")
    units = {e["name"]: e["unit"] for e in BENCH["end_to_end"]}
    for name, (value, unit) in m.metrics.items():
        assert value > 0, name
        assert unit == units[name]


def test_traced_counters_repeat_exactly(tmp_path):
    raw_op = Tensor.__dict__["_op"]
    predict = cli.predict
    runs = [pipeline.measure(TINY, 3, 0, True, tmp_path / f"w{i}",
                             trace_out=tmp_path / f"trace{i}.jsonl")
            for i in range(2)]
    assert Tensor.__dict__["_op"] is raw_op and cli.predict is predict
    units = {e["name"]: e["unit"] for e in BENCH["per_layer"]}
    for m in runs:
        assert m.failures == [] and m.missing == []
        assert list(m.metrics) == _names("per_layer")
        assert all(m.metrics[n][1] == units[n] for n in units)
    counts = [{n: v for n, (v, u) in m.metrics.items() if u == "count"}
              for m in runs]
    assert counts[0] == counts[1]
    assert counts[0]["layers.charcnn_calls_per_feature"] == 16
    assert counts[0]["heads.candidates_built_per_feature"] == 37
    times = runs[0].metrics
    assert all(times[n][0] > 0 for n in units if units[n] == "ms")
    first = (tmp_path / "trace0.jsonl").read_text().splitlines()[0]
    assert json.loads(first)["command"] == "preprocess"


def test_failing_operation_is_counted(tmp_path):
    # a 8-token window leaves no room for context: preprocess exits 2 and
    # every later op of the pass fails on the missing files
    broken = pipeline.Workload(why="test", train_questions=1,
                               train_context_words=8, eval_questions=1,
                               eval_context_words=8, max_seq_length=8,
                               doc_stride=4)
    m = pipeline.measure(broken, 3, 0, False, tmp_path / "w")
    assert m.attempted == OPS_PER_PASS
    assert len(m.failures) == OPS_PER_PASS
    assert "returned 2" in m.failures[0]
