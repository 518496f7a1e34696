import struct
import weakref
from collections import Counter

import numpy as np
import pytest

from conftest import make_feature
from squadlab import embeddings
from squadlab.autograd import Rng, Tensor, no_grad
from squadlab.data import DataError, write_records
from squadlab.embeddings import (CharEmbeddingTable, EmbeddingError,
                                 EmbeddingMatrix, PseudoEmbedder,
                                 load_embedding_fixture, pseudo_embed,
                                 save_embedding_fixture)
from squadlab.layers import CharCNN, EmbeddingCombiner


class TestPseudoEmbed:
    def test_repeatable(self):
        f = make_feature()
        a = pseudo_embed(f, 16, seed=1).matrix
        b = pseudo_embed(f, 16, seed=1).matrix
        assert np.array_equal(a, b)

    def test_seeds_differ_almost_everywhere(self):
        f = make_feature(n_context=10)
        a = pseudo_embed(f, 32, seed=1).matrix
        b = pseudo_embed(f, 32, seed=2).matrix
        assert (a != b).mean() >= 0.99

    def test_same_token_different_positions_differ(self):
        f1 = make_feature()
        f2 = make_feature()
        f2.tokens[7], f2.tokens[8] = f2.tokens[8], f2.tokens[7]
        e1 = pseudo_embed(f1, 16, seed=0).matrix
        e2 = pseudo_embed(f2, 16, seed=0).matrix
        # token w0 sits at position 7 in f1 and position 8 in f2
        assert f1.tokens[7] == f2.tokens[8]
        assert not np.array_equal(e1[7], e2[8])

    def test_shape_and_width(self):
        f = make_feature(n_context=4)
        m = pseudo_embed(f, 24, seed=0)
        assert m.matrix.shape == (len(f.tokens), 24)

    def test_invalid_width(self):
        with pytest.raises(ValueError, match="d_model"):
            PseudoEmbedder(0, seed=1)


class TestCharTable:
    def test_deterministic_and_total(self):
        t1 = CharEmbeddingTable(8)
        t2 = CharEmbeddingTable(8)
        for ch in "abé中":
            assert np.array_equal(t1.vector(ch), t2.vector(ch))
            assert t1.vector(ch).shape == (8,)


class TestMemos:
    """Each frozen lookup computes a key's value once per object, and the
    memo lives and dies with that object."""

    @pytest.fixture
    def hashed(self, monkeypatch):
        calls = Counter()
        raw = embeddings._hashed_vector

        def counted(d, *parts):
            calls[parts] += 1
            return raw(d, *parts)
        monkeypatch.setattr(embeddings, "_hashed_vector", counted)
        return calls

    def test_embedder_hashes_each_token_and_position_once(self, hashed):
        f = make_feature(n_context=5)  # [SEP] appears twice
        emb = PseudoEmbedder(8, seed=3)
        first = emb.embed(f).matrix
        assert np.array_equal(emb.embed(f).matrix, first)
        assert hashed == Counter(
            [("tok", 3, t) for t in set(f.tokens)]
            + [("pos", i) for i in range(len(f.tokens))])
        assert np.array_equal(PseudoEmbedder(8, seed=3).embed(f).matrix,
                              first)
        assert set(hashed.values()) == {2}  # a new embedder, a new memo
        gone = weakref.ref(emb)
        del emb
        assert gone() is None

    def test_char_table_hashes_each_character_once(self, hashed):
        table = CharEmbeddingTable(4)
        for ch in "abcab\u3000a":
            table.vector(ch)
        assert hashed == Counter(("char", 0, ch) for ch in "abc\u3000")

    def test_combiner_makes_each_tokens_windows_once(self, monkeypatch):
        calls = Counter()
        raw = CharCNN.windows

        def counted(self, token, table):
            calls[token] += 1
            return raw(self, token, table)
        monkeypatch.setattr(CharCNN, "windows", counted)
        comb = EmbeddingCombiner(4, 3, 2, Rng(0),
                                 char_table=CharEmbeddingTable(3))
        tokens = ["ab", "cde", "ab", "f", "cde"]
        E = Tensor(Rng(1).normal((len(tokens), 4)))
        with no_grad():
            first = comb.forward(E, tokens).data
            comb.forward(E, tokens[::-1])
            assert np.array_equal(comb.forward(E, tokens).data, first)
        assert calls == Counter(set(tokens))
        assert "_token_windows" not in comb.parameters()


class TestFixtureFile:
    def _matrices(self, seed=0, d_model=16, count=10):
        feats = [make_feature(qid=f"q{i}", n_context=3 + i % 4)
                 for i in range(count)]
        emb = PseudoEmbedder(d_model, seed)
        return feats, [emb.embed(f) for f in feats]

    def test_round_trip_bit_identical(self, tmp_path):
        feats, mats = self._matrices()
        path = tmp_path / "emb.bin"
        save_embedding_fixture(path, mats)
        store = load_embedding_fixture(path)
        assert store.d_model == 16
        for f, m in zip(feats, mats):
            loaded = store.get(f.qid, f.feature_index)
            assert np.array_equal(loaded.matrix, m.matrix)

    def test_missing_key_names_it(self, tmp_path):
        _, mats = self._matrices(count=2)
        path = tmp_path / "emb.bin"
        save_embedding_fixture(path, mats)
        store = load_embedding_fixture(path)
        with pytest.raises(EmbeddingError, match="nope"):
            store.get("nope", 0)

    def test_seq_len_matches_features(self, tmp_path):
        feats, mats = self._matrices(count=3)
        path = tmp_path / "emb.bin"
        save_embedding_fixture(path, mats)
        store = load_embedding_fixture(path)
        for f in feats:
            assert store(f).shape == (len(f.tokens), 16)

    def test_seq_len_mismatch_rejected(self, tmp_path):
        feats, mats = self._matrices(count=1)
        path = tmp_path / "emb.bin"
        save_embedding_fixture(path, mats)
        store = load_embedding_fixture(path)
        feats[0].tokens.append("extra")
        with pytest.raises(EmbeddingError, match="seq_len"):
            store(feats[0])

    def test_width_mismatch_on_save(self, tmp_path):
        mats = [
            EmbeddingMatrix("a", 0, np.zeros((2, 4))),
            EmbeddingMatrix("b", 0, np.zeros((2, 5))),
        ]
        with pytest.raises(ValueError, match="width"):
            save_embedding_fixture(tmp_path / "x.bin", mats)

    def test_no_matrices_refused_on_save(self, tmp_path):
        # a fixture of zero matrices would record d_model=0
        path = tmp_path / "x.bin"
        with pytest.raises(ValueError, match="at least one matrix"):
            save_embedding_fixture(path, [])
        assert not path.exists()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"XXXX" + b"\x00" * 12)
        with pytest.raises(ValueError, match="magic"):
            load_embedding_fixture(path)

    @pytest.mark.parametrize("header", [{}, {"d_model": "2"}])
    def test_header_needs_an_integer_d_model(self, tmp_path, header):
        path = tmp_path / "emb.bin"
        write_records(path, b"SQEM", 2, header, [("q", 0, np.ones((1, 2)))])
        with pytest.raises(DataError, match="header d_model .* is not an int"):
            load_embedding_fixture(path)

    def test_documented_byte_layout(self, tmp_path):
        """Magic, u32 version, u32 header byte length, the JSON header
        {d_model}, u32 count, then per record u32 qid byte length, UTF-8
        qid, u32 feature_index, u32 rank 2, u32 seq_len and d_model, fp64
        LE rows."""
        a = np.arange(6, dtype=np.float64).reshape(3, 2) - 2.5
        b = np.array([[1e-300, -0.0]])
        qa = "q-\u00e9\u4e2d"
        head = b'{"d_model": 2}'
        expected = (b"SQEM" + struct.pack("<II", 2, len(head)) + head
                    + struct.pack("<I", 2))
        for qid, fi, m in ((qa, 4, a), ("b", 0, b)):
            qb = qid.encode("utf-8")
            expected += struct.pack("<I", len(qb)) + qb
            expected += struct.pack("<IIII", fi, 2, *m.shape)
            expected += struct.pack(f"<{m.size}d", *m.ravel())
        path = tmp_path / "emb.bin"
        save_embedding_fixture(path, [EmbeddingMatrix(qa, 4, a),
                                      EmbeddingMatrix("b", 0, b)])
        assert path.read_bytes() == expected
        store = load_embedding_fixture(path)
        assert store.d_model == 2
        assert np.array_equal(store.get(qa, 4).matrix, a)
        got = store.get("b", 0).matrix
        assert got.tobytes() == b.tobytes()
