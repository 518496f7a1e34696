"""Span-prediction output heads, loss, decoding, and per-question aggregation.

Both heads mask every position outside the context chunk to ``MASK_FILL``
except index 0, the sentinel, which stays live to score the no-answer
hypothesis; given packed chunks (``lengths``, as in ``layers``), each chunk
keeps its own sentinel.  A span's score is start_logit + end_logit.

One order ranks every answer, ``AnswerCandidate.sort_key``: the higher
score first, then a span before no-answer, then the smaller start, end and
chunk (``feature_index``).  Decode, aggregation and voting all rank by it,
so each is deterministic.  One tuple, ``ENTRY_FIELDS``, lists an n-best
entry's fields in the order prediction files hold them.

Both heads are ``autograd.Module``s, so their parameter names come from the
attribute walk (``W``, ``end_rnn.W_ur``, ...).  ``decode_spans`` ranks one
chunk's candidates with array ops: it scores every legal (start, end) pair
at once and marks the best ``n_best - 1`` with ``top_k`` (a partition to the
cut, then a stable sort of the pairs at or above it).  It builds one
candidate per pair in band order, ``DECODE_BLOCK`` pairs at a time, and
keeps only the marked ones, so neither the band's Python values nor its
unmarked candidates are ever all alive at once.
``aggregate_features`` merges a question's chunks into its n-best
list; ``training.decode_logit_set`` is the one path that runs both, for
``predict`` and for the mean-logits ensemble.
``best_answer`` is the one no-answer rule, applied to a prediction record
by ``evaluate`` and by the voting ensembles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .autograd import (MASK_FILL, Module, Rng, Tensor, chunk_bounds,
                       cross_entropy_from_logits, init_uniform, masked_fill,
                       matmul)
from .data import (NULL_POSITION, DataError, Feature, _chunk_name,
                   read_jsonl, write_jsonl)
from .layers import GRUCell, gru_forward

DEFAULT_N_BEST = 20
DEFAULT_MAX_ANSWER_LENGTH = 30
DEFAULT_NULL_THRESHOLD = 0.0
# legal pairs turned into Python values at once while decode builds its
# candidates, so the whole band never lies in Python lists
DECODE_BLOCK = 512


@dataclass
class SpanLogits:
    qid: str
    feature_index: int
    start_logits: np.ndarray
    end_logits: np.ndarray


@dataclass(slots=True)
class AnswerCandidate:
    qid: str
    text: str  # empty string = no-answer
    start_token: int | None
    end_token: int | None
    score: float
    feature_index: int = 0

    @property
    def is_null(self):
        return self.start_token is None

    def sort_key(self):
        """The answer order (module docstring)."""
        return (-self.score, self.is_null, self.start_token or 0,
                self.end_token or 0, self.feature_index)


def _masked(start: Tensor, end: Tensor, context_mask, lengths=None):
    """The start and end logits, ``MASK_FILL`` at every position outside
    the context but each chunk's null sentinel."""
    blocked = ~np.asarray(context_mask, dtype=bool)
    for first, _ in chunk_bounds(lengths, len(blocked), "span head"):
        blocked[first + NULL_POSITION] = False
    return (masked_fill(start, blocked, MASK_FILL),
            masked_fill(end, blocked, MASK_FILL))


class AlbertSquadOut(Module):
    """Linear d -> 2; column 0 start logits, column 1 end logits."""

    def __init__(self, d: int, rng: Rng):
        self.d = d
        self.W = init_uniform(rng, (d, 2), d)
        self.b = init_uniform(rng, (2,), d)

    def forward(self, x: Tensor, context_mask, lengths=None):
        if x.shape[1] != self.d:
            raise ValueError(f"head width {self.d}, input width {x.shape[1]}")
        logits = matmul(x, self.W) + self.b  # [seq, 2]
        return _masked(logits[:, 0], logits[:, 1], context_mask, lengths)


class BidafOut(Module):
    """Start: w1 att + w2 dec.  End: w3 att + w4 gru(dec), per-token sums."""

    def __init__(self, d_att: int, d_dec: int, end_hidden: int, rng: Rng):
        self.d_att = d_att
        self.d_dec = d_dec
        self.w1 = init_uniform(rng, (d_att, 1), d_att)
        self.w2 = init_uniform(rng, (d_dec, 1), d_dec)
        self.w3 = init_uniform(rng, (d_att, 1), d_att)
        self.w4 = init_uniform(rng, (end_hidden, 1), end_hidden)
        self.end_rnn = GRUCell(d_dec, end_hidden, rng.spawn(17))

    def forward(self, att_out: Tensor, dec_out: Tensor, context_mask,
                lengths=None):
        if att_out.shape[1] != self.d_att or dec_out.shape[1] != self.d_dec:
            raise ValueError(
                f"bidaf head widths ({self.d_att}, {self.d_dec}), inputs "
                f"({att_out.shape[1]}, {dec_out.shape[1]})"
            )
        m2 = gru_forward(self.end_rnn, dec_out, lengths=lengths)
        start = (matmul(att_out, self.w1) + matmul(dec_out, self.w2))[:, 0]
        end = (matmul(att_out, self.w3) + matmul(m2, self.w4))[:, 0]
        return _masked(start, end, context_mask, lengths)


def span_loss(start_logits: Tensor, end_logits: Tensor, gold_start: int,
              gold_end: int, context_mask) -> Tensor:
    """Mean of the start and end cross-entropies for one feature."""
    cm = np.asarray(context_mask, dtype=bool)
    for name, pos in (("start", gold_start), ("end", gold_end)):
        if pos != NULL_POSITION and not cm[pos]:
            raise ValueError(
                f"gold {name} position {pos} is masked and not the null "
                f"position; feature is corrupt"
            )
    ce_start = cross_entropy_from_logits(start_logits.reshape(1, -1), [gold_start])
    ce_end = cross_entropy_from_logits(end_logits.reshape(1, -1), [gold_end])
    return (ce_start + ce_end) * 0.5


def to_span_logits(feature: Feature, start, end) -> SpanLogits:
    """A copy of one feature's start and end logits (Tensors or arrays)."""
    def values(t):
        return np.array(t.data if isinstance(t, Tensor) else t, copy=True)

    return SpanLogits(
        qid=feature.qid,
        feature_index=feature.feature_index,
        start_logits=values(start),
        end_logits=values(end),
    )


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` highest ``scores``, highest first, equal scores
    in index order: ``np.lexsort((np.arange(n), -scores))[:k]``.

    A partition finds the k-th highest score; only the scores at or above
    it, ties at the cut included, are sorted.
    """
    if k <= 0:
        return np.zeros(0, dtype=np.intp)
    neg = -scores
    kept = np.arange(len(neg))
    if k < len(neg):
        kept = np.flatnonzero(neg <= np.partition(neg, k - 1)[k - 1])
    return kept[np.argsort(neg[kept], kind="stable")[:k]]


def decode_spans(logits: SpanLogits, feature: Feature, context_text: str,
                 n_best: int = DEFAULT_N_BEST,
                 max_answer_length: int = DEFAULT_MAX_ANSWER_LENGTH) -> list:
    """Top-n candidates over legal (start, end) pairs plus the null candidate.

    A pair is legal when both ends are context positions, start <= end,
    and the span covers at most ``max_answer_length`` tokens
    (``end - start < max_answer_length``, as in BERT's decoder).  Both
    ``n_best`` and ``max_answer_length`` must be at least 1.  A span or
    null score that overflows raises ValueError naming the feature.

    Every legal pair is scored at once (``sl[s] + el[e]``).  The band lists
    the pairs in (start, end) order, so ``top_k`` of the scores, a stable
    ranking, marks the best ``n_best - 1`` by ``sort_key``.  One
    ``AnswerCandidate`` is built per pair, in band order, a block of
    ``DECODE_BLOCK`` pairs at a time: only that block's positions, scores
    and marks are turned into Python values, and ``itertools.compress``
    keeps its marked candidates.  So at most ``n_best`` candidates and one
    block's values are alive at once, whatever the band's length.
    """
    if n_best < 1 or max_answer_length < 1:
        raise ValueError(f"n_best and max_answer_length must be >= 1, got "
                         f"{n_best} and {max_answer_length}")
    sl, el = logits.start_logits, logits.end_logits
    ctx = np.flatnonzero(feature.context_mask)
    # the band: context indices i <= j with ctx[j] - ctx[i] < max length
    first = np.arange(len(ctx))
    width = np.searchsorted(ctx, ctx + max_answer_length) - first
    i = np.repeat(first, width)
    j = np.arange(len(i)) - np.repeat(np.cumsum(width) - width - first, width)
    s, e = ctx[i], ctx[j]
    qid, fi = feature.qid, feature.feature_index
    with np.errstate(over="ignore"):
        scores = sl[s] + el[e]
        null_score = sl[NULL_POSITION] + el[NULL_POSITION]
    if not (np.isfinite(scores).all() and np.isfinite(null_score)):
        raise ValueError(f"decode {_chunk_name(qid, fi)}: a span or null "
                         f"score overflows")
    kept = np.zeros(len(scores), dtype=bool)
    kept[top_k(scores, n_best - 1)] = True
    chars = np.array([feature.token_word_span[t] for t in ctx.tolist()],
                     dtype=np.int64).reshape(-1, 2)
    first_char, last_char = chars[i, 0], chars[j, 1]
    out = []
    for lo in range(0, len(scores), DECODE_BLOCK):
        block = slice(lo, lo + DECODE_BLOCK)
        built = (AnswerCandidate(qid, context_text[a:b], st, en, score, fi)
                 for a, b, st, en, score in zip(
                     first_char[block].tolist(), last_char[block].tolist(),
                     s[block].tolist(), e[block].tolist(),
                     scores[block].tolist()))
        out.extend(itertools.compress(built, kept[block].tolist()))
    out.append(AnswerCandidate(qid, "", None, None, float(null_score), fi))
    out.sort(key=AnswerCandidate.sort_key)
    return out


def aggregate_features(candidates_per_feature, n_best: int = DEFAULT_N_BEST):
    """Merge one question's per-chunk candidates into its n-best list.

    Returns (nbest, null_score): the top ``n_best - 1`` spans over all
    chunks plus one null candidate scored with the minimum null score over
    the chunks, in ``AnswerCandidate.sort_key`` order.
    """
    if not candidates_per_feature:
        raise ValueError("question has zero features")
    merged = [c for cands in candidates_per_feature for c in cands]
    nulls = [c.score for c in merged if c.is_null]
    if not nulls:
        qid = merged[-1].qid if merged else None
        raise ValueError(f"qid {qid}: no null candidate present")
    null_score = min(nulls)
    spans = sorted((c for c in merged if not c.is_null),
                   key=AnswerCandidate.sort_key)[: n_best - 1]
    null = AnswerCandidate(merged[0].qid, "", None, None, null_score)
    return sorted(spans + [null], key=AnswerCandidate.sort_key), null_score


def best_answer(record, null_threshold: float = DEFAULT_NULL_THRESHOLD):
    """The no-answer rule: the span a prediction record answers with, or
    None for no-answer.

    The first highest-scoring span entry of ``nbest`` is the best span;
    no-answer wins iff there is none or ``null_score`` minus its score
    exceeds ``null_threshold``.
    """
    spans = [c for c in record["nbest"] if c["start_token"] is not None]
    best = max(spans, key=lambda c: c["score"], default=None)
    if best is None or record["null_score"] - best["score"] > null_threshold:
        return None
    return best


# -- prediction file ------------------------------------------------------


def write_predictions(path, records) -> None:
    """JSON-lines per question: {qid, nbest, null_score[, model_f1_weight]}.

    nbest entries carry feature_index so ensemble voting can key on the
    chunk a span came from.
    """
    write_jsonl(path, records)


# an n-best entry's fields, in the order prediction files hold them
ENTRY_FIELDS = ("text", "start_token", "end_token", "feature_index", "score")


def nbest_entry(c: AnswerCandidate) -> dict:
    """``c`` as an n-best entry of a prediction record."""
    return {f: getattr(c, f) for f in ENTRY_FIELDS}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_index(v) -> bool:
    return type(v) is int and v >= 0


def _prediction(rec) -> dict:
    """``rec`` if it is a prediction record, else DataError saying why."""
    if not isinstance(rec, dict):
        raise DataError(f"expected a JSON object, got {type(rec).__name__}")
    if not isinstance(rec.get("qid"), str):
        raise DataError("qid must be a string")
    if not isinstance(rec.get("nbest"), list):
        raise DataError("nbest must be a list")
    if not _is_number(rec.get("null_score")):
        raise DataError("null_score must be a number")
    if "model_f1_weight" in rec and not _is_number(rec["model_f1_weight"]):
        raise DataError("model_f1_weight must be a number")
    for i, c in enumerate(rec["nbest"]):
        if not (isinstance(c, dict) and c.keys() >= set(ENTRY_FIELDS)):
            raise DataError(f"nbest[{i}] must be an object with "
                            f"{', '.join(sorted(ENTRY_FIELDS))}")
        s, e = c["start_token"], c["end_token"]
        if not _is_number(c["score"]):
            raise DataError(f"nbest[{i}].score must be a number")
        if not isinstance(c["text"], str):
            raise DataError(f"nbest[{i}].text must be a string")
        if not (s is e is None or (_is_index(s) and _is_index(e) and s <= e)):
            raise DataError(f"nbest[{i}]: start_token and end_token must both "
                            f"be null, or ints with 0 <= start_token <= "
                            f"end_token")
        if not _is_index(c["feature_index"]):
            raise DataError(f"nbest[{i}].feature_index must be an int >= 0")
    return rec


def read_predictions(path) -> list:
    """Read a prediction file; a line that is not a prediction record, or
    whose qid repeats an earlier line's, raises DataError naming the path
    and the line number."""
    return read_jsonl(path, _prediction, key=lambda r: f"qid {r['qid']!r}")


def prediction_record(qid: str, nbest, null_score: float,
                      model_f1_weight: float | None = None) -> dict:
    rec = {"qid": qid, "nbest": [nbest_entry(c) for c in nbest],
           "null_score": null_score}
    if model_f1_weight is not None:
        rec["model_f1_weight"] = model_f1_weight
    return rec
