"""Contextual-embedding providers standing in for a pretrained encoder.

Two providers feed the layer stack: a file-backed fixture store and a
deterministic hash-based pseudo-embedder.  Both are frozen inputs; no
gradient flows into them.  The pseudo-embedder's token and position
vectors and ``CharEmbeddingTable``'s character vectors are pure functions
of their key, each memoized by a ``functools.cache`` that its instance
holds, so a vector is hashed once per object and the memo goes with it.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

from .autograd import Rng
from .data import DataError, _chunk_name, read_records, write_records

MAGIC = b"SQEM"
VERSION = 2


class EmbeddingError(DataError):
    """No embedding matrix, or one of the wrong length, for a feature."""


@dataclass
class EmbeddingMatrix:
    qid: str
    feature_index: int
    matrix: np.ndarray  # [seq_len, d_model] fp64


def _hash_u64(*parts) -> int:
    h = hashlib.blake2b(digest_size=8)
    for p in parts:
        h.update(str(p).encode("utf-8"))
        h.update(b"\x00")
    return int.from_bytes(h.digest(), "little")


def _hashed_vector(d: int, *parts) -> np.ndarray:
    return Rng(_hash_u64(*parts)).uniform(-1.0, 1.0, d)


class PseudoEmbedder:
    """Deterministic function of (token string, position, seed).

    Each token hash selects a base vector; a fixed positional vector is
    mixed in so the same token differs across positions.  Integer hashing
    only, so the stream is platform-independent.
    """

    POSITION_SCALE = 0.25

    def __init__(self, d_model: int, seed: int):
        if d_model <= 0:
            raise ValueError(f"d_model must be positive, got {d_model}")
        self.d_model = d_model
        self.seed = int(seed)
        self._token_vec = functools.cache(functools.partial(
            _hashed_vector, d_model, "tok", self.seed))
        self._pos_vec = functools.cache(functools.partial(
            _hashed_vector, d_model, "pos"))

    def embed(self, feature) -> EmbeddingMatrix:
        rows = [
            self._token_vec(tok) + self.POSITION_SCALE * self._pos_vec(i)
            for i, tok in enumerate(feature.tokens)
        ]
        return EmbeddingMatrix(
            qid=feature.qid,
            feature_index=feature.feature_index,
            matrix=np.asarray(rows, dtype=np.float64),
        )

    def __call__(self, feature) -> np.ndarray:
        return self.embed(feature).matrix

    def identity(self) -> dict:
        """What a checkpoint records of the embeddings it was trained on."""
        return {"kind": "pseudo", "d_model": self.d_model, "seed": self.seed}


def pseudo_embed(feature, d_model: int, seed: int) -> EmbeddingMatrix:
    return PseudoEmbedder(d_model, seed).embed(feature)


class CharEmbeddingTable:
    """Frozen character -> fp64 vector map; every character's vector is
    hashed from it, so no character is unknown."""

    def __init__(self, d_char: int):
        self.d_char = d_char
        # a fixed 0 where PseudoEmbedder hashes its seed
        self.vector = functools.cache(functools.partial(
            _hashed_vector, d_char, "char", 0))


# -- fixture file ---------------------------------------------------------


def save_embedding_fixture(path, matrices) -> None:
    """Binary records (``data.write_records``) under header {d_model}, one
    per matrix, keyed by (qid, feature_index), array [seq_len, d_model]."""
    matrices = list(matrices)
    if not matrices:
        raise ValueError(f"{path}: an embedding fixture needs at least one "
                         f"matrix")
    d_model = matrices[0].matrix.shape[1]
    for m in matrices:
        if m.matrix.shape[1] != d_model:
            raise ValueError(
                f"({m.qid}, {m.feature_index}) has width "
                f"{m.matrix.shape[1]}, fixture width is {d_model}"
            )
    write_records(path, MAGIC, VERSION, {"d_model": d_model},
                  [(m.qid, m.feature_index, m.matrix) for m in matrices])


class EmbeddingStore:
    """Lookup by (qid, feature_index) over a loaded fixture file."""

    def __init__(self, d_model: int, records: dict):
        self.d_model = d_model
        self._records = records

    def get(self, qid: str, feature_index: int) -> EmbeddingMatrix:
        key = (qid, feature_index)
        if key not in self._records:
            raise EmbeddingError(
                f"no embedding for {_chunk_name(qid, feature_index)}")
        return self._records[key]

    def __call__(self, feature) -> np.ndarray:
        m = self.get(feature.qid, feature.feature_index)
        if m.matrix.shape[0] != len(feature.tokens):
            name = _chunk_name(feature.qid, feature.feature_index)
            raise EmbeddingError(
                f"embedding for {name} has seq_len {m.matrix.shape[0]}, "
                f"feature has {len(feature.tokens)} tokens")
        return m.matrix

    def identity(self) -> dict:
        # the fixture file does not record the seed it was made with
        return {"kind": "fixture", "d_model": self.d_model, "seed": None}


def check_embedder(trained, provider, checkpoint) -> None:
    """Raise DataError if ``trained``, the embedder identity a checkpoint
    recorded (None: it recorded none), is malformed or ``provider`` cannot
    be that embedder."""
    if trained is None:
        return
    if not (isinstance(trained, dict) and "seed" in trained
            and trained.get("kind") in ("pseudo", "fixture")
            and type(trained.get("d_model")) is int):
        raise DataError(f"{checkpoint}: bad model config: "
                        f"hyperparams.embeddings must be an object with kind "
                        f"pseudo|fixture, an integer d_model and a seed")
    now = provider.identity()
    if trained["d_model"] != now["d_model"]:
        raise DataError(
            f"{checkpoint} was trained on d_model={trained['d_model']} "
            f"embeddings, these have d_model={now['d_model']}"
        )
    if trained["kind"] == now["kind"] == "pseudo" \
            and trained["seed"] != now["seed"]:
        raise DataError(
            f"{checkpoint} was trained on pseudo embeddings with seed "
            f"{trained['seed']}, predict would embed with seed {now['seed']}"
        )


def load_embedding_fixture(path) -> EmbeddingStore:
    """What ``save_embedding_fixture`` wrote; a header without an integer
    d_model, or a matrix not [seq_len, d_model], raises DataError."""
    header, records = read_records(path, MAGIC, VERSION)
    d_model = header.get("d_model")
    if type(d_model) is not int:
        raise DataError(f"{path}: header d_model {d_model!r} is not an int")
    store = {}
    for qid, fi, matrix in records:
        if matrix.ndim != 2 or matrix.shape[1] != d_model:
            raise DataError(
                f"{path}: matrix for {_chunk_name(qid, fi)} has "
                f"shape {list(matrix.shape)}, not [seq_len, {d_model}]")
        store[(qid, fi)] = EmbeddingMatrix(qid=qid, feature_index=fi,
                                           matrix=matrix)
    return EmbeddingStore(d_model, store)
