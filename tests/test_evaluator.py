import string
from collections import Counter

import pytest

from squadlab.autograd import Rng
from squadlab.data import RawExample
from squadlab.scoring import (EvalReport, compute_em, compute_f1, evaluate,
                              normalize_answer, predictions_from_file)

WORDS = ["the", "albert", "einstein", "cat", "a", "dog", "ran", "fast",
         "An", "House."]


def random_phrase(rng, max_words=4):
    n = int(rng.uniform(0, max_words + 1))
    return " ".join(WORDS[int(rng.uniform(0, len(WORDS)))] for _ in range(n))


def oracle_f1(pred, gold):
    """Independent multiset-overlap scorer, written against the definition."""
    def norm_tokens(s):
        s = s.lower()
        s = "".join(c for c in s if c not in string.punctuation)
        toks = s.split()
        return [t for t in toks if t not in ("a", "an", "the")]

    p, g = norm_tokens(pred), norm_tokens(gold)
    if not p or not g:
        return 1.0 if p == g else 0.0
    same = 0
    remaining = Counter(g)
    for tok in p:
        if remaining[tok] > 0:
            same += 1
            remaining[tok] -= 1
    if same == 0:
        return 0.0
    prec, rec = same / len(p), same / len(g)
    return 2 * prec * rec / (prec + rec)


class TestNormalize:
    def test_article_case_punct(self):
        assert normalize_answer("The Cat.") == "cat"

    def test_whitespace_collapse(self):
        assert normalize_answer("Albert  Einstein") == "albert einstein"

    def test_idempotent_on_random_strings(self):
        rng = Rng(0)
        alphabet = string.ascii_letters + string.punctuation + "  "
        for _ in range(500):
            n = int(rng.uniform(0, 30))
            s = "".join(alphabet[int(rng.uniform(0, len(alphabet)))]
                        for _ in range(n))
            once = normalize_answer(s)
            assert normalize_answer(once) == once


class TestEm:
    def test_partial_no_match(self):
        assert compute_em("Einstein", ["Albert Einstein"]) == 0

    def test_exact_match(self):
        assert compute_em("Albert Einstein", ["Albert Einstein"]) == 1

    def test_no_answer_agreement(self):
        assert compute_em("", []) == 1

    def test_no_answer_disagreement(self):
        assert compute_em("something", []) == 0
        assert compute_em("", ["answer"]) == 0

    def test_max_over_golds(self):
        assert compute_em("cat", ["dog", "the cat", "bird"]) == 1


class TestF1:
    def test_einstein_worked_example(self):
        assert abs(compute_f1("Einstein", ["Albert Einstein"]) - 2 / 3) < 1e-4

    def test_exact_is_one(self):
        assert compute_f1("the quick fox", ["the quick fox"]) == 1.0

    def test_empty_sides(self):
        assert compute_f1("", []) == 1.0
        assert compute_f1("word", []) == 0.0
        assert compute_f1("", ["word"]) == 0.0

    def test_matches_independent_oracle(self):
        rng = Rng(42)
        for _ in range(10000):
            pred = random_phrase(rng)
            gold = random_phrase(rng)
            assert abs(compute_f1(pred, [gold]) - oracle_f1(pred, gold)) \
                < 1e-12

    def test_symmetric_for_single_gold(self):
        rng = Rng(7)
        for _ in range(500):
            a, b = random_phrase(rng), random_phrase(rng)
            assert abs(compute_f1(a, [b]) - compute_f1(b, [a])) < 1e-12

    def test_invariant_to_articles_and_case(self):
        assert compute_f1("THE Cat", ["cat"]) == 1.0
        assert compute_em("An apple.", ["apple"]) == 1


def einstein_examples():
    ctx = "Albert Einstein developed relativity."
    return [
        RawExample(qid="t3-0", question="who?", context=ctx,
                   answers=[("Albert Einstein", 0)], is_impossible=False),
        RawExample(qid="t3-1", question="who?", context=ctx,
                   answers=[("Albert Einstein", 0)], is_impossible=False),
    ]


class TestEvaluate:
    def test_all_exact(self):
        examples = einstein_examples()
        preds = {ex.qid: "Albert Einstein" for ex in examples}
        report = evaluate(preds, examples)
        assert report.em == 100.0 and report.f1 == 100.0

    def test_einstein_corpus_em_50(self):
        examples = einstein_examples()
        preds = {"t3-0": "Einstein", "t3-1": "Albert Einstein"}
        report = evaluate(preds, examples)
        assert report.em == 50.0
        assert abs(report.f1 - 100 * (2 / 3 + 1) / 2) < 1e-9

    def test_em_leq_f1_per_question(self):
        rng = Rng(11)
        for _ in range(300):
            gold = random_phrase(rng, 3) or "x"
            ex = RawExample(qid="q", question="?", context=gold,
                            answers=[(gold, 0)], is_impossible=False)
            report = evaluate({"q": random_phrase(rng, 3)}, [ex])
            em, f1, _, _ = report.per_question["q"]
            assert em <= f1

    def test_aggregate_is_mean_times_100(self):
        examples = einstein_examples()
        preds = {"t3-0": "Einstein", "t3-1": "wrong"}
        report = evaluate(preds, examples)
        per = list(report.per_question.values())
        assert abs(report.em - 100 * sum(p[0] for p in per) / 2) < 1e-9
        assert abs(report.f1 - 100 * sum(p[1] for p in per) / 2) < 1e-9

    def test_missing_qid_listed(self):
        with pytest.raises(ValueError, match="t3-1"):
            evaluate({"t3-0": "x"}, einstein_examples())

    def test_duplicate_qid_rejected(self):
        ex = einstein_examples()[0]
        with pytest.raises(ValueError, match="duplicate"):
            evaluate({"t3-0": "x"}, [ex, ex])

    @pytest.mark.parametrize("golds", [("cat", "dog"), ("dog", "cat")])
    def test_first_of_two_golds_tied_on_f1_is_best(self, golds):
        context = " ".join(golds)
        ex = RawExample(qid="q", question="?", context=context,
                        answers=[(golds[0], 0),
                                 (golds[1], len(golds[0]) + 1)],
                        is_impossible=False)
        report = evaluate({"q": "the cat dog"}, [ex])
        em, f1, pred, best_gold = report.per_question["q"]
        assert (em, pred, best_gold) == (0, "the cat dog", golds[0])
        assert f1 == compute_f1("cat dog", ["cat"]) == 2 / 3

    def test_unanswerable_counting(self):
        ex = RawExample(qid="na", question="?", context="ctx", answers=[],
                        is_impossible=True)
        report = evaluate({"na": ""}, [ex])
        assert report.unanswerable == 1 and report.answerable == 0
        assert report.em == 100.0


class TestPredictionsFromFile:
    def _rec(self, qid, span_score, null_score):
        return {"qid": qid, "null_score": null_score, "nbest": [
            {"text": "ans", "start_token": 3, "end_token": 4,
             "feature_index": 0, "score": span_score}]}

    def test_span_wins_at_tie(self):
        answers = predictions_from_file([self._rec("q", 1.0, 1.0)])
        assert answers["q"] == "ans"

    def test_null_wins_above_threshold(self):
        answers = predictions_from_file([self._rec("q", 1.0, 3.0)])
        assert answers["q"] == ""

    def test_threshold_shifts_decision(self):
        answers = predictions_from_file([self._rec("q", 1.0, 3.0)],
                                        null_threshold=5.0)
        assert answers["q"] == "ans"
