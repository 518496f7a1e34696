"""EM / F1 scoring with SQuAD 2.0 no-answer conventions.

Per question the score is the maximum over the available gold answers
(up to three).  Unanswerable questions score against the empty string:
both sides empty is a full match, exactly one side empty scores zero.
"""

from __future__ import annotations

import json
import re
import string
from collections import Counter
from dataclasses import dataclass, field

from .heads import DEFAULT_NULL_THRESHOLD, best_answer

_ARTICLE_RE = re.compile(r"\b(a|an|the)\b")
_PUNCT = set(string.punctuation)


@dataclass
class EvalReport:
    em: float
    f1: float
    answerable: int
    unanswerable: int
    per_question: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "em": self.em,
            "f1": self.f1,
            "answerable": self.answerable,
            "unanswerable": self.unanswerable,
            "per_question": {
                qid: {"em": em, "f1": f1, "prediction": pred, "best_gold": gold}
                for qid, (em, f1, pred, gold) in sorted(self.per_question.items())
            },
        }

    def summary(self) -> str:
        return (f"questions: {len(self.per_question)} "
                f"(answerable {self.answerable}, unanswerable {self.unanswerable})\n"
                f"EM: {self.em:.2f}\nF1: {self.f1:.2f}")


def normalize_answer(text: str) -> str:
    """Lowercase, strip punctuation, drop articles, collapse whitespace."""
    text = text.lower()
    text = "".join(ch for ch in text if ch not in _PUNCT)
    text = _ARTICLE_RE.sub(" ", text)
    return " ".join(text.split())


def _tokens(text: str) -> list:
    return normalize_answer(text).split()


def score_answer(pred: str, golds) -> tuple:
    """(EM, F1, best gold) of an answer against its golds, or against the
    empty string when there are none.  EM and F1 are each the maximum over
    the golds, and the best gold is the first with the top F1.  Each answer
    is normalized once."""
    pred_toks = _tokens(pred)
    em, f1, best_gold = 0, -1.0, None
    for gold in list(golds) or [""]:
        gold_toks = _tokens(gold)
        em = max(em, int(pred_toks == gold_toks))
        if not pred_toks or not gold_toks:
            score = float(pred_toks == gold_toks)
        else:
            overlap = sum((Counter(pred_toks) & Counter(gold_toks)).values())
            precision = overlap / len(pred_toks)
            recall = overlap / len(gold_toks)
            score = (2 * precision * recall / (precision + recall)
                     if overlap else 0.0)
        if score > f1:
            f1, best_gold = score, gold
    return em, f1, best_gold


def compute_em(pred: str, golds) -> int:
    return score_answer(pred, golds)[0]


def compute_f1(pred: str, golds) -> float:
    return score_answer(pred, golds)[1]


def evaluate(predictions: dict, examples) -> EvalReport:
    """Score a qid -> answer-text map against RawExamples."""
    seen = set()
    for ex in examples:
        if ex.qid in seen:
            raise ValueError(f"duplicate qid {ex.qid!r} in gold dataset")
        seen.add(ex.qid)
    missing = [ex.qid for ex in examples if ex.qid not in predictions]
    if missing:
        raise ValueError(f"predictions have no answer for {len(missing)} "
                         f"of {len(examples)} gold questions; first: "
                         f"{missing[:5]}")

    per_question = {}
    answerable = unanswerable = 0
    for ex in examples:
        golds = [text for text, _ in ex.answers]
        if ex.is_impossible:
            unanswerable += 1
        else:
            answerable += 1
        pred = predictions[ex.qid]
        em, f1, best_gold = score_answer(pred, golds)
        per_question[ex.qid] = (em, f1, pred, best_gold)

    n = len(per_question)
    return EvalReport(
        em=100.0 * sum(v[0] for v in per_question.values()) / n if n else 0.0,
        f1=100.0 * sum(v[1] for v in per_question.values()) / n if n else 0.0,
        answerable=answerable,
        unanswerable=unanswerable,
        per_question=per_question,
    )


def predictions_from_file(records,
                          null_threshold: float = DEFAULT_NULL_THRESHOLD) -> dict:
    """Final answer text per question from prediction-file records, by the
    no-answer rule ``heads.best_answer`` (empty string for no-answer)."""
    out = {}
    for rec in records:
        best = best_answer(rec, null_threshold)
        out[rec["qid"]] = "" if best is None else best["text"]
    return out


def write_report(path, report: EvalReport) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report.to_json(), f, ensure_ascii=False, indent=2)
