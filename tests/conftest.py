import numpy as np
import pytest

from squadlab.autograd import Rng
from squadlab.data import (Feature, PreprocessConfig, RawExample,
                           TokenizedContext, chunk_context, toy_tokenize)
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
    mask = [False] * offset + [True] * n_context + [False]
    spans = [None] * offset + [(3 * i, 3 * i + 2) for i in range(n_context)] \
        + [None]
    return Feature(
        qid=qid, feature_index=feature_index, tokens=tokens,
        context_mask=mask, token_word_span=spans,
        start_position=offset + start if start is not None else 0,
        end_position=offset + end if end is not None else 0,
    )


def feature_context_text(n_context=6):
    """Context text matching make_feature's 3-char word spans."""
    return " ".join(f"x{i}" for i in range(n_context)) + " "
