"""Synthetic corpus generator for training and pipeline tests.

Questions ask for a number hidden in a short filler context; a configurable
share of questions is unanswerable (no number present).  Word-level
tokenization keeps alignment trivial, so models only have to learn span
selection.
"""

from __future__ import annotations

import json

from .autograd import Rng
from .data import _WORD, RawExample, TokenizedContext

_FILLER = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
           "hotel", "india", "juliet", "kilo", "lima", "mike", "november",
           "oscar", "papa", "quebec", "romeo", "sierra", "tango"]
_NUMBERS = ["11", "23", "37", "42", "58", "64", "71", "89", "95", "107"]


def word_tokenize(text: str) -> TokenizedContext:
    """One token per whitespace word, spanning the word verbatim."""
    words = list(_WORD.finditer(text))
    return TokenizedContext(tokens=[m.group() for m in words],
                            token_word_span=[m.span() for m in words])


def question_tokens(text: str) -> list:
    return text.split()


# every IMPOSSIBLE_EVERY-th example, the first included, is unanswerable
IMPOSSIBLE_EVERY = 5


def make_synthetic_examples(n: int = 50, seed: int = 0,
                            context_words: int = 8) -> list:
    """n examples; every ``IMPOSSIBLE_EVERY``-th one is unanswerable."""
    rng = Rng(seed)
    examples = []
    for i in range(n):
        words = [_FILLER[int(rng.uniform(0, len(_FILLER)))]
                 for _ in range(context_words)]
        impossible = i % IMPOSSIBLE_EVERY == 0
        answers = []
        if not impossible:
            number = _NUMBERS[int(rng.uniform(0, len(_NUMBERS)))]
            slot = 1 + int(rng.uniform(0, context_words - 2))
            words[slot] = number
            # slot >= 1, so a space precedes the number
            answers = [(number, len(" ".join(words[:slot])) + 1)]
        examples.append(RawExample(
            qid=f"synth-{i:04d}",
            question=f"what number is case {i}",
            context=" ".join(words),
            answers=answers,
            is_impossible=impossible,
        ))
    return examples


def write_squad_json(path, examples) -> None:
    """Serialize RawExamples in the official SQuAD 2.0 layout."""
    data = {
        "version": "v2.0",
        "data": [{
            "title": "synthetic",
            "paragraphs": [
                {
                    "context": ex.context,
                    "qas": [{
                        "id": ex.qid,
                        "question": ex.question,
                        "is_impossible": ex.is_impossible,
                        "answers": [
                            {"text": text, "answer_start": start}
                            for text, start in ex.answers
                        ],
                    }],
                }
                for ex in examples
            ],
        }],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(data, f, ensure_ascii=False)
