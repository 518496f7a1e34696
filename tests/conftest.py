# squadlab first: imported before numpy, it sets the BLAS thread variables
# the environment left unset to one thread, so in-process tests compare
# the bytes the CLI writes
import squadlab  # noqa: F401

import math

import numpy as np
import pytest

from squadlab.autograd import Rng
from squadlab.data import (Feature, PreprocessConfig, RawExample,
                           TokenizedContext, chunk_context, toy_tokenize)
from squadlab.ensemble import NULL_KEY, PredictionSet, weighted_voting
from squadlab.selftest import (OBAMA_CONTEXT, OBAMA_SPANS,  # noqa: F401
                               OBAMA_VOCAB)


@pytest.fixture
def obama_ctx():
    return toy_tokenize(OBAMA_CONTEXT, OBAMA_VOCAB)


@pytest.fixture
def rng():
    return Rng(12345)


def make_feature(qid="q0", n_question=3, n_context=6, feature_index=0,
                 start=None, end=None):
    """Feature with real-looking packing; context tokens are w0..w{n-1}."""
    tokens = (["[CLS]"] + [f"q{i}" for i in range(n_question)] + ["[SEP]"]
              + [f"w{i}" for i in range(n_context)] + ["[SEP]"])
    offset = n_question + 2
    spans = [None] * offset + [(3 * i, 3 * i + 2) for i in range(n_context)] \
        + [None]
    return Feature(
        qid=qid, feature_index=feature_index, tokens=tokens,
        token_word_span=spans,
        start_position=offset + start if start is not None else 0,
        end_position=offset + end if end is not None else 0,
    )


def feature_context_text(n_context=6):
    """Context text matching make_feature's 3-char word spans."""
    return " ".join(f"x{i}" for i in range(n_context)) + " "


def check_random_elections(seed, n=1000):
    """``weighted_voting`` against an independent tally in ``n`` random
    3..5-model elections.  The votes include one span from two chunks.  The
    one winner has the highest total weight, then the highest single
    weight, then is a span before no-answer, then has the smaller start,
    end and chunk."""
    rng = Rng(seed)
    choices = [NULL_KEY, (0, 2, 3), (0, 2, 4), (1, 2, 3), (0, 5, 6)]
    for _ in range(n):
        n_models = 3 + int(rng.uniform(0, 3))
        sets, votes = [], []
        for m in range(n_models):
            key = choices[int(rng.uniform(0, len(choices)))]
            w = round(rng.uniform(0.1, 1.0), 2)
            if key == NULL_KEY:
                entry = {"text": "", "start_token": None, "end_token": None,
                         "feature_index": 0, "score": 10.0}
            else:
                fi, start, end = key
                entry = {"text": f"w{start}-{end}", "start_token": start,
                         "end_token": end, "feature_index": fi, "score": 1.0}
            rec = {"qid": "q", "nbest": [entry],
                   "null_score": 10.0 if key == NULL_KEY else -50.0}
            sets.append(PredictionSet.from_records(f"m{m}", [rec], weight=w))
            votes.append((key, w))

        def quality(key):
            weights = [w for k, w in votes if k == key]
            place = ((0, 0, 0, 0) if key == NULL_KEY
                     else (1, -key[1], -key[2], -key[0]))
            return (math.fsum(weights), max(weights)) + place

        winner = max({k for k, _ in votes}, key=quality)
        top = weighted_voting(sets)[0]["nbest"][0]
        got = (NULL_KEY if top["start_token"] is None else
               (top["feature_index"], top["start_token"], top["end_token"]))
        assert got == winner, (votes, got)
