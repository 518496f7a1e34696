"""Model assembly and desk-scale training for the five architecture tags.

Tags:
  squad_out                     embeddings -> linear span head
  highway_squad_out             embeddings -> 2x highway -> linear span head
  bilstm_attn_bilstm_bidaf      char combiner -> BiLSTM -> attention -> BiLSTM -> BiDAF head
  gru_highway_gru_bidaf         char combiner -> BiGRU -> highway -> BiGRU -> BiDAF head
  gru_attn_selfattn_gru_bidaf   char combiner -> BiGRU -> attention -> causal
                                self-attention -> BiGRU -> BiDAF head

Every BiDAF tag builds the char combiner.  The dropout rate lives in
``ModelConfig``, which a checkpoint records as ``model_config``.

Training is mini-batch Adam with gradient clipping; everything is driven
by a single seed so checkpoints and loss curves reproduce bit-exactly.
``QaModel.forward`` takes a list of features and their embedding matrices
and runs them as one packed batch, with dropout when given a dropout rng.
``_forward_chunks`` is the one caller: ``train`` passes it one feature at
a time and its rng, and backprops that feature's share of the mean loss
before the next forward, so a step holds one feature's graph;
``predict`` passes one question's chunks.  It turns a
non-finite value into an error naming the chunk (``qid``,
``feature_index``) it came from, or the question when no chunk fails
alone.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from itertools import groupby

import numpy as np

from .autograd import (AdamState, Module, Rng, Tensor, adam_step,
                       chunk_bounds, clip_global_norm, load_checkpoint,
                       no_grad, save_checkpoint, zero_grads)
from .embeddings import CharEmbeddingTable
from .heads import (DEFAULT_MAX_ANSWER_LENGTH, DEFAULT_N_BEST,
                    AlbertSquadOut, BidafOut, aggregate_features,
                    decode_spans, prediction_record, span_loss,
                    to_span_logits)
from .layers import (BiCells, EmbeddingCombiner, GRUCell, Highway, LSTMCell,
                     bigru_forward, bilstm_forward, dot_product_attention,
                     dropout)

ARCHITECTURES = (
    "squad_out",
    "highway_squad_out",
    "bilstm_attn_bilstm_bidaf",
    "gru_highway_gru_bidaf",
    "gru_attn_selfattn_gru_bidaf",
)

_BIDAF_TAGS = set(ARCHITECTURES[2:])


@dataclass
class ModelConfig:
    architecture: str
    d_model: int = 64
    hidden: int = 32
    d_char: int = 16
    d_char_out: int = 16
    dropout_rate: float = 0.2

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ValueError(
                f"unknown architecture {self.architecture!r}; "
                f"choose one of {ARCHITECTURES}"
            )
        for name in ("d_model", "hidden", "d_char", "d_char_out"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got "
                                 f"{getattr(self, name)}")
        if not 0 <= self.dropout_rate < 1:
            raise ValueError(f"dropout_rate must be in [0, 1), got "
                             f"{self.dropout_rate}")


@dataclass
class Hyperparams:
    learning_rate: float = 1e-3
    batch_size: int = 8
    epochs: int = 3
    max_seq_length: int = 64
    doc_stride: int = 16
    seed: int = 0

    def __post_init__(self):
        for name in ("learning_rate", "batch_size", "epochs",
                     "max_seq_length", "doc_stride"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got "
                                 f"{value}")


# hyperparameter presets used for the full-scale runs (all at ModelConfig's
# default dropout rate, 0.2); desk-scale defaults above are what tests
# exercise
PRESETS = {
    "base": Hyperparams(learning_rate=3e-5, batch_size=7, epochs=3,
                        max_seq_length=384, doc_stride=128),
    "base-extra-layers": Hyperparams(learning_rate=3e-5, batch_size=5,
                                     epochs=3, max_seq_length=384,
                                     doc_stride=128),
    "xlarge": Hyperparams(learning_rate=1e-5, batch_size=1, epochs=2,
                          max_seq_length=280, doc_stride=128),
    "xxlarge": Hyperparams(learning_rate=8e-6, batch_size=1, epochs=1,
                           max_seq_length=280, doc_stride=128),
}

GRAD_CLIP_NORM = 5.0


class QaModel(Module):
    def __init__(self, cfg: ModelConfig, seed: int):
        self.cfg = cfg
        self.seed = int(seed)
        self.hyperparams = {}  # what the checkpoint recorded (load_model)
        rng = Rng(seed)
        tag = cfg.architecture
        # assigned in checkpoint order: parameters() walks attributes in
        # the order they were first assigned
        self.highway = []
        self.combiner = None
        self.encoder = None
        self.decoder = None
        self.mid_highway = None
        if tag == "highway_squad_out":
            self.highway = [Highway(cfg.d_model, rng.spawn(1)),
                            Highway(cfg.d_model, rng.spawn(2))]
        if tag not in _BIDAF_TAGS:
            self.head = AlbertSquadOut(cfg.d_model, rng.spawn(3))
            return
        self.combiner = EmbeddingCombiner(
            cfg.d_model, cfg.d_char, cfg.d_char_out, rng.spawn(4),
            CharEmbeddingTable(cfg.d_char, seed=0))
        d_comb = self.combiner.d_comb
        h = cfg.hidden
        cell = LSTMCell if tag == "bilstm_attn_bilstm_bidaf" else GRUCell
        self.encoder = BiCells(cell(d_comb, h, rng.spawn(5)),
                               cell(d_comb, h, rng.spawn(6)))
        self.decoder = BiCells(cell(2 * h, h, rng.spawn(7)),
                               cell(2 * h, h, rng.spawn(8)))
        if tag == "gru_highway_gru_bidaf":
            self.mid_highway = Highway(2 * h, rng.spawn(9))
        self.head = BidafOut(2 * h, 2 * h, h, rng.spawn(10))

    def parameter_count(self) -> int:
        return sum(p.data.size for p in self.parameters().values())

    def forward(self, features, embeddings, drop_rng: Rng | None = None):
        """Return (start_logits, end_logits) tensors for a list of features
        (one question's chunks) and their embedding matrices, run as one
        batch.  The logits are the chunks' rows packed in order; row-wise
        layers run once on them, the scans advance every chunk together,
        and attention and pooling stay within each chunk.  Dropout at
        ``cfg.dropout_rate`` runs when a ``drop_rng`` is given."""
        lengths = [len(f.tokens) for f in features]
        rows = [np.shape(e)[0] for e in embeddings]
        if rows != lengths:
            raise ValueError(f"embedding rows {rows} do not match the "
                             f"features' token counts {lengths}")
        context_mask = np.concatenate([f.context_mask for f in features])
        cfg = self.cfg
        rate = cfg.dropout_rate if drop_rng is not None else 0.0
        x = Tensor(np.concatenate(embeddings))
        if rate > 0:
            x = dropout(x, rate, drop_rng)
        tag = cfg.architecture
        if tag not in _BIDAF_TAGS:
            for hw in self.highway:
                x = hw.forward(x)
            return self.head.forward(x, context_mask, lengths)

        tokens = [t for f in features for t in f.tokens]
        x = self.combiner.forward(x, tokens, lengths)
        if rate > 0:
            x = dropout(x, rate, drop_rng)
        birnn = (bilstm_forward if tag == "bilstm_attn_bilstm_bidaf"
                 else bigru_forward)
        enc = birnn(self.encoder.fwd, self.encoder.bwd, x, lengths)
        if self.mid_highway is not None:
            att = self.mid_highway.forward(enc)
        else:
            att = dot_product_attention(enc, lengths=lengths)
            if tag == "gru_attn_selfattn_gru_bidaf":
                att = dot_product_attention(att, causal=True, lengths=lengths)
        dec = birnn(self.decoder.fwd, self.decoder.bwd, att, lengths)
        return self.head.forward(att, dec, context_mask, lengths)


def build_model(cfg: ModelConfig, seed: int) -> QaModel:
    return QaModel(cfg, seed)


def save_model(path, model: QaModel, hyperparams: dict | None = None) -> None:
    hp = dict(hyperparams or {})
    hp["model_config"] = asdict(model.cfg)
    save_checkpoint(path, model.parameters(), model.seed, hp)


def load_model(path) -> QaModel:
    params, seed, hp = load_checkpoint(path)
    try:
        if not isinstance(hp, dict) or not isinstance(
                hp.get("model_config"), dict):
            raise TypeError("hyperparams.model_config must be an object")
        model = build_model(ModelConfig(**hp["model_config"]), seed)
    except (TypeError, ValueError) as e:
        raise ValueError(f"{path}: bad model config: {e}") from None
    model.hyperparams = hp
    own = model.parameters()
    if set(own) != set(params):
        missing = sorted(set(own) ^ set(params))
        raise ValueError(f"checkpoint parameter names do not match the "
                         f"architecture; first differences: {missing[:5]}")
    for name, arr in params.items():
        if own[name].data.shape != arr.shape:
            raise ValueError(f"checkpoint parameter {name!r} has shape "
                             f"{arr.shape}, model expects {own[name].data.shape}")
        own[name].data[...] = arr
    return model


@dataclass
class TrainResult:
    loss_curve: list = field(default_factory=list)  # (step, loss)

    def final_loss(self):
        return self.loss_curve[-1][1] if self.loss_curve else None


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _forward_chunks(model: QaModel, chunks, provider, what: str,
                    drop_rng: Rng | None = None, then=None):
    """Packed (start, end) logits of one forward over ``chunks`` (features
    of one question) and their ``provider`` embeddings, or ``then`` of
    them (``train``'s span loss).

    A non-finite value, in the forward or in ``then``, becomes a
    RuntimeError that starts with ``what`` and names the chunk it came
    from: a lone chunk at once; of several, the first whose forward fails
    when rerun alone, else the question.

    numpy's floating-point warnings are off in here: ``Tensor`` checks
    every value the forward makes, so an overflow is reported once, as
    that error, and not also as stray ``RuntimeWarning`` lines.
    """
    embeddings = [provider(f) for f in chunks]
    try:
        logits = model.forward(chunks, embeddings, drop_rng=drop_rng)
        return logits if then is None else then(*logits)
    except FloatingPointError as e:
        error = e
    named = chunks
    if len(chunks) > 1:
        for feat, emb in zip(chunks, embeddings):
            try:
                model.forward([feat], [emb], drop_rng=drop_rng)
            except FloatingPointError as e:
                error, named = e, [feat]
                break
    where = f"qid={named[0].qid!r}"
    if len(named) == 1:
        where += f", feature_index={named[0].feature_index}"
    raise RuntimeError(f"{what} ({where}): {error}") from None


def train(model: QaModel, features, provider, hp: Hyperparams,
          max_steps: int | None = None) -> TrainResult:
    """Mini-batch Adam over seeded shuffles of the feature list.

    A step whose gradients' global norm is not finite raises RuntimeError
    naming the step, before the optimiser uses them.
    """
    if not features:
        raise ValueError("no features to train on")
    params = model.parameters()
    state = AdamState()
    order_rng = Rng(hp.seed).spawn(101)
    drop_rng = Rng(hp.seed).spawn(102)
    result = TrainResult()
    step = 0
    for _ in range(hp.epochs):
        order = order_rng.permutation(len(features))
        for lo in range(0, len(features), hp.batch_size):
            batch = [features[i] for i in order[lo : lo + hp.batch_size]]
            step += 1
            zero_grads(params)
            scale = 1.0 / len(batch)
            total = 0.0
            # an overflow in backward or in the clip's sum of squares makes
            # the norm non-finite, and that is reported once, as the error
            # below, not also as numpy RuntimeWarnings
            with np.errstate(over="ignore", invalid="ignore",
                             divide="ignore"):
                for feat in batch:
                    loss = _forward_chunks(
                        model, [feat], provider,
                        f"non-finite loss at step {step}", drop_rng,
                        then=lambda start, end: span_loss(
                            start, end, feat.start_position,
                            feat.end_position, feat.context_mask))
                    # backprop this feature's share of the mean loss and
                    # drop its graph before the next forward; the parameters
                    # get the addends, in order, of one backward of the
                    # summed losses
                    (loss * scale).backward()
                    total += float(loss.data)
                    del loss
                norm = clip_global_norm(params, GRAD_CLIP_NORM)
            if not math.isfinite(norm):
                raise RuntimeError(f"non-finite gradient at step {step}: "
                                   f"global norm {norm}")
            adam_step(params, state, hp.learning_rate)
            result.loss_curve.append((step, total * scale))
            if max_steps is not None and step >= max_steps:
                return result
    return result


def decode_logit_set(logit_sets: dict, features_by_key: dict,
                     context_by_qid: dict,
                     n_best: int = DEFAULT_N_BEST,
                     max_answer_length: int = DEFAULT_MAX_ANSWER_LENGTH,
                     model_f1_weight: float | None = None) -> list:
    """Prediction records from a (qid, feature_index) -> SpanLogits map:
    decode each chunk, then merge each question's chunks, in key order.

    This is the one decode-and-aggregate path; ``predict`` and the
    mean-logits ensemble (``ensemble.decode_logit_set``) both use it.
    Logits without a feature of their key or a context of their qid, and
    logits whose length is not their feature's token count (a dump made
    from features of another ``max_seq_length``), raise ValueError.
    """
    by_qid = {}
    for (qid, fi), logits in sorted(logit_sets.items()):
        feature = features_by_key.get((qid, fi))
        if feature is None:
            raise ValueError(f"logits for (qid={qid!r}, feature_index={fi}) "
                             f"have no feature of that key in the features")
        if qid not in context_by_qid:
            raise ValueError(f"logits for (qid={qid!r}, feature_index={fi}) "
                             f"have no context: the data has no question "
                             f"{qid!r}")
        lengths = (len(logits.start_logits), len(logits.end_logits))
        if lengths != (len(feature.tokens),) * 2:
            raise ValueError(
                f"logits for (qid={qid!r}, feature_index={fi}) have start/end "
                f"lengths {lengths[0]}/{lengths[1]} but the feature has "
                f"{len(feature.tokens)} tokens")
        cands = decode_spans(logits, feature, context_by_qid[qid],
                             n_best=n_best,
                             max_answer_length=max_answer_length)
        by_qid.setdefault(qid, []).append(cands)
    return [prediction_record(qid, *aggregate_features(by_qid[qid], n_best),
                              model_f1_weight)
            for qid in sorted(by_qid)]


def predict(model: QaModel, features, provider, context_by_qid: dict,
            n_best: int = DEFAULT_N_BEST,
            max_answer_length: int = DEFAULT_MAX_ANSWER_LENGTH,
            model_f1_weight: float | None = None):
    """Inference over features, one forward per question (its chunks as
    one batch) that records no autograd graph; returns (prediction
    records, logit map)."""
    features = sorted(features, key=lambda f: (f.qid, f.feature_index))
    features_by_key = {(f.qid, f.feature_index): f for f in features}
    logit_sets = {}
    for _, chunks in groupby(features, key=lambda f: f.qid):
        chunks = list(chunks)
        with no_grad():
            start, end = _forward_chunks(model, chunks, provider, "predict")
        bounds = chunk_bounds([len(f.tokens) for f in chunks],
                              len(start.data), "predict")
        for feat, (lo, hi) in zip(chunks, bounds):
            logit_sets[(feat.qid, feat.feature_index)] = to_span_logits(
                feat, start.data[lo:hi], end.data[lo:hi])
    records = decode_logit_set(logit_sets, features_by_key, context_by_qid,
                               n_best=n_best,
                               max_answer_length=max_answer_length,
                               model_f1_weight=model_f1_weight)
    return records, logit_sets


def write_loss_curve(path, result: TrainResult) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("step,loss\n")
        for step, loss in result.loss_curve:
            f.write(f"{step},{loss!r}\n")
