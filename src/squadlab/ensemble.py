"""Ensembling over prediction files: mean logits, weighted voting, and
weighted voting with the mean-logits model as an extra voter.

Voting keys a prediction by (feature_index, start_token, end_token) so the
same token span coming from different chunks counts as different votes;
the no-answer vote is keyed separately.  Weights are the member models'
dev-set F1 values, used as given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import DataError, read_records, write_records
from .heads import (DEFAULT_MAX_ANSWER_LENGTH, DEFAULT_N_BEST,
                    DEFAULT_NULL_THRESHOLD, AnswerCandidate, SpanLogits,
                    best_answer, prediction_record)
from .training import decode_logit_set

DUMP_MAGIC = b"SQLD"
DUMP_VERSION = 1

NULL_KEY = ("null",)


def check_weight(what: str, weight) -> None:
    """A voting weight is a finite number above 0: a NaN or an infinity
    would make the tallies NaN or infinite and the winner arbitrary."""
    if (isinstance(weight, bool) or not isinstance(weight, (int, float))
            or not math.isfinite(weight) or weight <= 0):
        raise ValueError(f"{what} must be finite and positive, got "
                         f"{weight!r}")


@dataclass
class PredictionSet:
    model_id: str
    records: dict  # qid -> prediction-file record
    weight: float

    def __post_init__(self):
        check_weight(f"model {self.model_id}: weight", self.weight)

    @classmethod
    def from_records(cls, model_id, records, weight=None):
        by_qid = {}
        for rec in records:
            if rec["qid"] in by_qid:
                raise ValueError(f"duplicate qid {rec['qid']!r} in predictions")
            by_qid[rec["qid"]] = rec
        if weight is None:
            weights = {rec.get("model_f1_weight") for rec in records}
            if len(weights) != 1 or None in weights:
                raise ValueError(
                    f"model {model_id}: no single model_f1_weight in file and "
                    f"none supplied"
                )
            weight = weights.pop()
        return cls(model_id=model_id, records=by_qid, weight=weight)

    def top_vote(self, qid: str,
                 null_threshold: float = DEFAULT_NULL_THRESHOLD):
        """(vote key, candidate dict) for this model's single best prediction."""
        rec = self.records[qid]
        best = best_answer(rec, null_threshold)
        if best is None:
            return NULL_KEY, {"text": "", "start_token": None,
                              "end_token": None, "feature_index": 0,
                              "score": rec["null_score"]}
        key = (best["feature_index"], best["start_token"], best["end_token"])
        return key, best


def _check_same_qids(sets):
    qids = set(sets[0].records)
    for s in sets[1:]:
        if set(s.records) != qids:
            extra = sorted(set(s.records) ^ qids)
            raise ValueError(
                f"models {sets[0].model_id!r} and {s.model_id!r} cover "
                f"different qids; first differences: {extra[:5]}"
            )
    return sorted(qids)


# -- mean logits ----------------------------------------------------------


def mean_logits(dumps) -> dict:
    """Elementwise sum of members' logits per (qid, feature_index) key; a
    sum that overflows raises ValueError naming the key."""
    dumps = list(dumps)
    if len(dumps) < 2:
        raise ValueError(f"mean_logits needs at least 2 dumps, got {len(dumps)}")
    keys = sorted(dumps[0])
    for d in dumps[1:]:
        if sorted(d) != keys:
            diff = sorted(set(d) ^ set(keys))
            raise ValueError(f"logits dumps disagree on key {diff[0]!r}")
    combined = {}
    for key in keys:
        qid, fi = key
        ref = dumps[0][key]
        start = np.array(ref.start_logits, copy=True)
        end = np.array(ref.end_logits, copy=True)
        for d in dumps[1:]:
            rec = d[key]
            if (rec.start_logits.shape != start.shape
                    or rec.end_logits.shape != end.shape):
                raise ValueError(
                    f"logits dumps disagree on sequence length at key {key!r}"
                )
            with np.errstate(over="ignore"):
                start += rec.start_logits
                end += rec.end_logits
        if not (np.isfinite(start).all() and np.isfinite(end).all()):
            raise ValueError(f"summed logits overflow at key {key!r}")
        combined[key] = SpanLogits(qid=qid, feature_index=fi,
                                   start_logits=start, end_logits=end)
    return combined


# -- weighted voting ------------------------------------------------------


def weighted_voting(sets,
                    null_threshold: float = DEFAULT_NULL_THRESHOLD) -> list:
    """Each model's best prediction votes with the model's F1 weight.

    A model votes no-answer when its null score beats its best span by
    more than ``null_threshold``.  Winner per qid by (highest total weight,
    then highest single contributing weight, then earlier start, then
    earlier end, then non-null).  Returns prediction-file records.
    """
    sets = list(sets)
    if not sets:
        raise ValueError("weighted_voting needs at least one prediction set")
    qids = _check_same_qids(sets)
    records = []
    for qid in qids:
        tallies = {}  # key -> [total, max_single, candidate]
        for s in sets:
            key, cand = s.top_vote(qid, null_threshold)
            if key not in tallies:
                tallies[key] = [0.0, 0.0, cand]
            tallies[key][0] += s.weight
            tallies[key][1] = max(tallies[key][1], s.weight)

        def rank(item):
            key, (total, max_single, cand) = item
            is_null = key == NULL_KEY
            start = 0 if is_null else cand["start_token"]
            end = 0 if is_null else cand["end_token"]
            return (-total, -max_single, is_null, start, end)

        _, (total, _, winner) = min(tallies.items(), key=rank)
        null_scores = [s.records[qid]["null_score"] for s in sets]
        final = AnswerCandidate(
            qid=qid, text=winner["text"], start_token=winner["start_token"],
            end_token=winner["end_token"], score=total,
            feature_index=winner.get("feature_index") or 0,
        )
        records.append(prediction_record(qid, [final], min(null_scores)))
    return records


def weighted_voting_with_mean_logits(sets, dumps, mean_weight: float,
                                     features_by_key: dict,
                                     context_by_qid: dict,
                                     n_best: int = DEFAULT_N_BEST,
                                     max_answer_length: int = DEFAULT_MAX_ANSWER_LENGTH,
                                     null_threshold: float = DEFAULT_NULL_THRESHOLD) -> list:
    """Weighted voting over the member models plus the mean-logits model."""
    check_weight("mean_weight", mean_weight)
    combined = mean_logits(dumps)
    mean_records = decode_logit_set(
        combined, features_by_key, context_by_qid, n_best=n_best,
        max_answer_length=max_answer_length,
    )
    mean_set = PredictionSet.from_records("mean-logits", mean_records,
                                          weight=mean_weight)
    return weighted_voting(list(sets) + [mean_set], null_threshold)


# -- logits dump io -------------------------------------------------------


def save_logits_dump(path, logit_sets: dict) -> None:
    """Binary records (``data.write_records``), no header fields, one per
    feature in (qid, feature_index) order, payload [start; end] logits."""
    write_records(path, DUMP_MAGIC, DUMP_VERSION, (), [
        (qid, fi, len(rec.start_logits),
         np.stack([rec.start_logits, rec.end_logits]))
        for (qid, fi), rec in sorted(logit_sets.items())
    ])


def load_logits_dump(path) -> dict:
    _, records = read_records(path, DUMP_MAGIC, DUMP_VERSION, 0,
                              lambda h, seq_len: (2, seq_len))
    out = {}
    for qid, fi, logits in records:
        if not np.isfinite(logits).all():
            raise DataError(f"{path}: non-finite logit for (qid={qid!r}, "
                            f"feature_index={fi})")
        out[(qid, fi)] = SpanLogits(qid=qid, feature_index=fi,
                                    start_logits=logits[0],
                                    end_logits=logits[1])
    return out
