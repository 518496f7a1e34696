"""In-memory span tracer that wraps squadlab's public functions from outside.

Nothing in ``src/`` knows about tracing.  ``Tracer.install`` replaces each
target named in ``SPANS`` with a wrapper that opens a span around the call,
and wraps ``Tensor._op``, ``Tensor.__init__`` and ``AnswerCandidate.__init__``
with counters.  ``Tracer.uninstall`` puts every original back.

Callers import by name (``from .layers import bigru_forward``), so a function
is wrapped where it is looked up: ``squadlab.training.bigru_forward``, not
``squadlab.layers.bigru_forward``.  Methods are wrapped on their class.

A span records its name, start, end, parent span, the CLI call it ran under
(which gives its stage, e.g. ``train`` or ``predict``, and its pass), two unit
counts taken from the wrapped call's arguments and result, and the counters
that fired while it was the innermost open span.  Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

# fixed here, not read from squadlab, so the workloads stay the same
ARCHITECTURES = ("squad_out", "highway_squad_out", "bilstm_attn_bilstm_bidaf",
                 "gru_highway_gru_bidaf", "gru_attn_selfattn_gru_bidaf")


def _once(args, result):
    return 1, 0


# span name -> (targets, units).  A target is "module:attribute" or
# "module:Class.method".  ``units(args, result)`` gives the span's two unit
# counts (e.g. questions in, features out) from the wrapped call.
SPANS = {
    "data.preprocess": (["squadlab.cli:preprocess_dataset"],
                        lambda a, r: (len(a[0]), len(r))),
    "data.read_features": (["squadlab.cli:read_features"],
                           lambda a, r: (1, len(r))),
    "embeddings.embed": (["squadlab.embeddings:PseudoEmbedder.embed"], _once),
    "embeddings.fixture_save": (["squadlab.cli:save_embedding_fixture"],
                                _once),
    "embeddings.fixture_load": (["squadlab.cli:load_embedding_fixture"],
                                _once),
    "training.train": (["squadlab.cli:train"], _once),
    "training.predict": (["squadlab.cli:predict"], _once),
    "model.forward": (["squadlab.training:QaModel.forward"], _once),
    "layers.combiner": (["squadlab.layers:EmbeddingCombiner.forward"], _once),
    "layers.charcnn": (["squadlab.layers:CharCNN.forward"], _once),
    "layers.highway": (["squadlab.layers:Highway.forward"], _once),
    "layers.birnn": (["squadlab.training:bigru_forward",
                      "squadlab.training:bilstm_forward"], _once),
    "layers.attention": (["squadlab.training:dot_product_attention"], _once),
    "layers.dropout": (["squadlab.training:dropout"], _once),
    "heads.span_head": (["squadlab.heads:AlbertSquadOut.forward",
                         "squadlab.heads:BidafOut.forward"], _once),
    "heads.end_rnn": (["squadlab.heads:gru_forward"], _once),
    "heads.span_loss": (["squadlab.training:span_loss"], _once),
    "heads.decode": (["squadlab.training:decode_spans"],
                     lambda a, r: (1, len(r))),
    "heads.aggregate": (["squadlab.training:aggregate_features"], _once),
    "autograd.backward": (["squadlab.autograd:Tensor.backward"], _once),
    "autograd.clip": (["squadlab.training:clip_global_norm"], _once),
    "autograd.adam": (["squadlab.training:adam_step"], _once),
    "autograd.checkpoint_save": (["squadlab.training:save_checkpoint"], _once),
    "autograd.checkpoint_load": (["squadlab.training:load_checkpoint"], _once),
    "ensemble.mean_logits": (["squadlab.cli:mean_logits",
                              "squadlab.ensemble:mean_logits"],
                             lambda a, r: (len(r), 0)),
    "ensemble.decode_logit_set": (["squadlab.cli:decode_logit_set",
                                   "squadlab.ensemble:decode_logit_set"],
                                  lambda a, r: (len(a[0]), 0)),
    "ensemble.voting": (["squadlab.cli:weighted_voting",
                         "squadlab.ensemble:weighted_voting"],
                        lambda a, r: (len(r), 0)),
    "ensemble.dump_save": (["squadlab.cli:save_logits_dump"], _once),
    "ensemble.dump_load": (["squadlab.cli:load_logits_dump"], _once),
    "scoring.evaluate": (["squadlab.cli:evaluate"],
                         lambda a, r: (len(a[1]), 0)),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "call", "units", "out",
                 "child", "ops", "nodes", "tensors", "cands")

    def __init__(self, name, start, parent, call):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.call = call
        self.units = self.out = self.child = 0
        self.ops = self.nodes = self.tensors = self.cands = 0

    def self_ns(self):
        return self.end - self.start - self.child


def _resolve(target):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Spans and counters of one process, kept in memory until ``write``."""

    def __init__(self):
        self.spans = []
        self.stack = []  # indices of open spans
        self.calls = []  # per CLI call: {"command", "arch", "pass"}
        self.missing = []  # targets this version of squadlab does not have
        self._saved = []  # (owner, attr, original raw attribute)

    # -- recording ---------------------------------------------------------

    def begin_call(self, command, arch, pass_index):
        """Open the root span of one CLI call; close it with ``end``."""
        self.calls.append({"command": command, "arch": arch,
                           "pass": pass_index})
        return self._push("cli." + command)

    def _push(self, name):
        span = Span(name, time.perf_counter_ns(),
                    self.stack[-1] if self.stack else -1, len(self.calls) - 1)
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span):
        span.end = time.perf_counter_ns()
        self.stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child += span.end - span.start

    def _current(self):
        return self.spans[self.stack[-1]]

    # -- installation ------------------------------------------------------

    def _replace(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _span_wrapper(self, name, func, units):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = tracer._push(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.end(span)
            try:
                span.units, span.out = units(args, result)
            except (IndexError, TypeError):  # the call's signature changed
                span.units, span.out = 1, 0
            return result

        return traced

    def install(self):
        """Wrap every span target and counter.  A target this version of
        squadlab lacks is listed in ``missing``; its metrics read 0."""
        self.missing = []
        for name, (targets, units) in SPANS.items():
            for target in targets:
                try:
                    owner, attr = _resolve(target)
                    func = owner.__dict__[attr]
                except (AttributeError, KeyError, ImportError):
                    self.missing.append(target)
                    continue
                self._replace(owner, attr,
                              self._span_wrapper(name, func, units))
        from squadlab.autograd import Tensor
        from squadlab.heads import AnswerCandidate
        current = self._current
        op = Tensor.__dict__["_op"].__func__
        tensor_init = Tensor.__init__
        cand_init = AnswerCandidate.__init__

        def counted_op(data, parents, backward):
            out = op(data, parents, backward)
            span = current()
            span.ops += 1
            if out._backward is not None:
                span.nodes += 1
            return out

        def counted_tensor_init(self, *args, **kwargs):
            tensor_init(self, *args, **kwargs)
            current().tensors += 1

        def counted_cand_init(self, *args, **kwargs):
            cand_init(self, *args, **kwargs)
            current().cands += 1

        self._replace(Tensor, "_op", staticmethod(counted_op))
        self._replace(Tensor, "__init__", counted_tensor_init)
        self._replace(AnswerCandidate, "__init__", counted_cand_init)

    def uninstall(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- output ------------------------------------------------------------

    def write(self, path):
        """JSON lines: one per CLI call, then one per span."""
        with open(path, "w", encoding="utf-8") as f:
            for i, call in enumerate(self.calls):
                f.write(json.dumps({"call": i, **call}) + "\n")
            for i, s in enumerate(self.spans):
                f.write(json.dumps({
                    "span": i, "name": s.name, "parent": s.parent,
                    "call": s.call, "stage": self.calls[s.call]["command"],
                    "pass": self.calls[s.call]["pass"],
                    "start_ns": s.start, "end_ns": s.end,
                    "self_ns": s.self_ns(), "units": s.units, "out": s.out,
                    "ops": s.ops, "nodes": s.nodes, "tensors": s.tensors,
                    "candidates": s.cands,
                }) + "\n")


# -- per-layer metrics -----------------------------------------------------


class _Sum:
    __slots__ = ("calls", "self_ns", "total_ns", "units", "out", "cands",
                 "forwards")

    def __init__(self):
        self.calls = self.self_ns = self.total_ns = 0
        self.units = self.out = self.cands = 0
        self.forwards = set()  # model.forward spans this layer ran under

    def add(self, span, forward):
        self.calls += 1
        self.self_ns += span.self_ns()
        self.total_ns += span.end - span.start
        self.units += span.units
        self.out += span.out
        self.cands += span.cands
        if forward >= 0:
            self.forwards.add(forward)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Per-layer metrics from a finished trace: name -> (value, unit).

    "per_feature" divides a layer's self time by the model forwards it ran
    under, so a layer only some architectures have is not diluted by the
    others.  A ``.train``/``.predict`` suffix names the CLI stage.
    """
    spans, calls = tracer.spans, tracer.calls
    sums = defaultdict(_Sum)  # (name, stage) and (name, None)
    by_arch = defaultdict(_Sum)  # (name, stage, arch)
    counts = defaultdict(lambda: [0, 0, 0])  # stage -> ops, nodes, tensors
    forward_of = []
    for i, s in enumerate(spans):
        stage = calls[s.call]["command"]
        parent_forward = forward_of[s.parent] if s.parent >= 0 else -1
        forward = i if s.name == "model.forward" else parent_forward
        forward_of.append(forward)
        sums[(s.name, stage)].add(s, forward)
        sums[(s.name, None)].add(s, forward)
        by_arch[(s.name, stage, calls[s.call]["arch"])].add(s, forward)
        c = counts[stage]
        c[0] += s.ops
        c[1] += s.nodes
        c[2] += s.tensors

    def ms(n):
        return n / 1e6

    def per_call(name, stage=None):
        a = sums[(name, stage)]
        return ms(_ratio(a.self_ns, a.calls)), "ms"

    def per_feature(name, stage=None):
        a = sums[(name, stage)]
        return ms(_ratio(a.self_ns, len(a.forwards))), "ms"

    def per_unit(name, stage=None):
        a = sums[(name, stage)]
        return ms(_ratio(a.self_ns, a.units)), "ms"

    m = {}
    for stage in ("train", "predict"):
        forwards = sums[("model.forward", stage)].calls
        ops, nodes, tensors = counts[stage]
        m[f"autograd.ops_per_feature.{stage}"] = (_ratio(ops, forwards),
                                                  "count")
        m[f"autograd.graph_nodes_per_feature.{stage}"] = (
            _ratio(nodes, forwards), "count")
        m[f"autograd.tensors_per_feature.{stage}"] = (
            _ratio(tensors, forwards), "count")
    m["autograd.backward_ms_per_step"] = per_call("autograd.backward",
                                                  "train")
    m["autograd.clip_ms_per_step"] = per_call("autograd.clip", "train")
    m["autograd.adam_ms_per_step"] = per_call("autograd.adam", "train")
    m["autograd.checkpoint_save_ms"] = per_call("autograd.checkpoint_save")
    m["autograd.checkpoint_load_ms"] = per_call("autograd.checkpoint_load")

    for layer in ("birnn", "attention", "highway", "combiner", "charcnn"):
        for stage in ("train", "predict"):
            m[f"layers.{layer}_ms_per_feature.{stage}"] = per_feature(
                f"layers.{layer}", stage)
    cnn = sums[("layers.charcnn", None)]
    m["layers.charcnn_calls_per_feature"] = (
        _ratio(cnn.calls, len(cnn.forwards)), "count")
    m["layers.dropout_ms_per_feature"] = per_feature("layers.dropout",
                                                     "train")

    for head in ("span_head", "end_rnn"):
        for stage in ("train", "predict"):
            m[f"heads.{head}_ms_per_feature.{stage}"] = per_feature(
                f"heads.{head}", stage)
    m["heads.span_loss_ms_per_feature"] = per_call("heads.span_loss",
                                                   "train")
    m["heads.decode_ms_per_feature"] = per_call("heads.decode", "predict")
    decode = sums[("heads.decode", "predict")]
    m["heads.candidates_built_per_feature"] = (
        _ratio(decode.cands, decode.calls), "count")
    m["heads.candidates_kept_share"] = (_ratio(decode.out, decode.cands),
                                        "share")
    m["heads.aggregate_ms_per_question"] = per_call("heads.aggregate",
                                                    "predict")

    for arch in ARCHITECTURES:
        train = by_arch[("training.train", "train", arch)]
        steps = by_arch[("autograd.adam", "train", arch)].calls
        m[f"training.step_ms.{arch}"] = (ms(_ratio(train.total_ns, steps)),
                                         "ms")
    for arch in ARCHITECTURES:
        pred = by_arch[("training.predict", "predict", arch)]
        forwards = by_arch[("model.forward", "predict", arch)].calls
        m[f"training.predict_ms_per_feature.{arch}"] = (
            ms(_ratio(pred.total_ns, forwards)), "ms")

    m["ensemble.mean_logits_ms_per_feature"] = per_unit(
        "ensemble.mean_logits")
    m["ensemble.decode_ms_per_feature"] = per_unit(
        "ensemble.decode_logit_set")
    m["ensemble.voting_ms_per_question"] = per_unit("ensemble.voting")
    m["ensemble.dump_save_ms"] = per_call("ensemble.dump_save")
    m["ensemble.dump_load_ms"] = per_call("ensemble.dump_load")

    m["data.preprocess_ms_per_question"] = per_unit("data.preprocess")
    m["data.read_features_ms_per_call"] = per_call("data.read_features")
    pre = sums[("data.preprocess", None)]
    m["data.features_per_question"] = (_ratio(pre.out, pre.units), "count")

    m["embeddings.embed_ms_per_feature"] = per_call("embeddings.embed")
    m["embeddings.fixture_load_ms"] = per_call("embeddings.fixture_load")
    m["embeddings.fixture_save_ms"] = per_call("embeddings.fixture_save")
    m["scoring.evaluate_ms_per_question"] = per_unit("scoring.evaluate")
    return m
