import hashlib
import json
import random
import re
import struct

import numpy as np
import pytest

from conftest import OBAMA_CONTEXT, OBAMA_SPANS, OBAMA_VOCAB, make_feature
from squadlab.autograd import Rng
from squadlab.data import (DataError, PreprocessConfig, RawExample,
                           TokenizedContext, align_answer_to_tokens,
                           chunk_context, load_pretokenized, load_squad_json,
                           load_vocab, read_features, read_jsonl,
                           read_records, span_to_text, toy_tokenize,
                           write_features, write_jsonl, write_records)
from squadlab.selftest import JAY_TOKENS, jay_context
from squadlab.synth import (make_synthetic_examples, question_tokens,
                            word_tokenize, write_squad_json)

WORDS = ["apple", "boat", "cat", "door", "elephant", "fish", "grape",
         "house", "ink", "jump"]


def random_context(rng, n_words):
    """(text, ctx, word index -> (start_token, end_token)) with known offsets."""
    words = [WORDS[int(rng.uniform(0, len(WORDS)))] for _ in range(n_words)]
    text = " ".join(words)
    # subword-split each word into 1-3 character pieces
    tokens, spans, word_tok_range = [], [], []
    pos = 0
    for w in words:
        start = pos
        first = len(tokens)
        i = 0
        while i < len(w):
            k = min(len(w) - i, 1 + int(rng.uniform(0, 3)))
            tokens.append(w[i : i + k])
            spans.append((start, start + len(w)))
            i += k
        word_tok_range.append((first, len(tokens) - 1))
        pos = start + len(w) + 1
    return text, TokenizedContext(tokens, spans), words, word_tok_range


class TestToyTokenize:
    def test_obama_fixture(self):
        ctx = toy_tokenize(OBAMA_CONTEXT, OBAMA_VOCAB)
        assert ctx.tokens == OBAMA_VOCAB
        assert ctx.token_word_span == OBAMA_SPANS

    def test_single_word_in_vocab(self):
        ctx = toy_tokenize("hello", ["hello"])
        assert ctx.tokens == ["hello"]
        assert ctx.token_word_span == [(0, 5)]

    def test_single_char_fallback(self):
        ctx = toy_tokenize("xyz", ["ab"])
        assert ctx.tokens == ["x", "y", "z"]

    def test_greedy_matches_dp_oracle(self):
        rng = Rng(77)
        vocab = ["a", "b", "c", "ab", "bc", "abc", "cab", "bca"]
        for _ in range(200):
            n = 1 + int(rng.uniform(0, 10))
            word = "".join("abc"[int(rng.uniform(0, 3))] for _ in range(n))
            got = toy_tokenize(word, vocab).tokens
            # oracle: repeatedly take the longest vocab prefix
            expect, i = [], 0
            while i < len(word):
                for j in range(len(word), i, -1):
                    if word[i:j] in vocab:
                        expect.append(word[i:j])
                        i = j
                        break
                else:
                    expect.append(word[i])
                    i += 1
            assert got == expect


class TestAlignment:
    def test_obama_answer(self):
        ctx = toy_tokenize(OBAMA_CONTEXT, OBAMA_VOCAB)
        assert align_answer_to_tokens(ctx, (18, 24)) == (6, 7)

    def test_single_token_word(self):
        ctx = toy_tokenize("hi there", ["hi", "there"])
        assert align_answer_to_tokens(ctx, (0, 2)) == (0, 0)

    def test_no_overlap_error(self):
        ctx = TokenizedContext(["a"], [(0, 1)])
        with pytest.raises(DataError, match=r"\[5, 7\)"):
            align_answer_to_tokens(ctx, (5, 7))

    def test_round_trip_on_generated_contexts(self):
        rng = Rng(123)
        for _ in range(1000):
            text, ctx, words, ranges = random_context(
                rng, 2 + int(rng.uniform(0, 6)))
            wi = int(rng.uniform(0, len(words)))
            answer = words[wi]
            start = ctx.token_word_span[ranges[wi][0]][0]
            got = align_answer_to_tokens(ctx, (start, start + len(answer)))
            assert got == ranges[wi]
            assert answer in span_to_text(ctx, got[0], got[1], text)


class TestSpanToText:
    def test_obama_decode(self):
        ctx = toy_tokenize(OBAMA_CONTEXT, OBAMA_VOCAB)
        assert span_to_text(ctx, 6, 6, OBAMA_CONTEXT) == "August"

    def test_whole_single_word(self):
        ctx = toy_tokenize("magic", ["mag", "ic"])
        assert span_to_text(ctx, 0, 0, "magic") == "magic"

    def test_multi_word(self):
        ctx = toy_tokenize(OBAMA_CONTEXT, OBAMA_VOCAB)
        assert span_to_text(ctx, 3, 4, OBAMA_CONTEXT) == "was born"

    def test_out_of_range(self):
        ctx = toy_tokenize("hi", ["hi"])
        with pytest.raises(DataError, match="out of range"):
            span_to_text(ctx, 0, 5, "hi")


class TestChunking:
    def _jay(self):
        text, ctx = jay_context()
        example = RawExample(qid="jay", question="How old is Jay?",
                             context=text,
                             answers=[("12", text.index("12"))],
                             is_impossible=False)
        return text, ctx, example

    def test_jay_fixture(self):
        text, ctx, example = self._jay()
        cfg = PreprocessConfig(max_seq_length=12, doc_stride=2)
        feats = chunk_context(example, ctx, cfg,
                              ["How", "old", "is", "Jay?"])
        assert len(feats) >= 2
        first = feats[0]
        assert first.tokens[first.start_position] == "_12"
        assert first.start_position == first.end_position
        for f in feats[1:]:
            assert f.start_position == 0 and f.end_position == 0

    def test_jay_first_chunk_layout(self):
        text, ctx, example = self._jay()
        cfg = PreprocessConfig(max_seq_length=12, doc_stride=2)
        feats = chunk_context(example, ctx, cfg,
                              ["How", "old", "is", "Jay?"])
        first = feats[0]
        assert first.tokens == ["[CLS]", "How", "old", "is", "Jay?", "[SEP]",
                                "_jay", "_is", "_12", "_years", "_old",
                                "[SEP]"]
        assert len(first.tokens) <= 12
        assert first.context_mask == [False] * 6 + [True] * 5 + [False]

    def test_short_context_single_feature(self):
        ctx = toy_tokenize(OBAMA_CONTEXT, OBAMA_VOCAB)
        example = RawExample(qid="q", question="when", context=OBAMA_CONTEXT,
                             answers=[("August", 18)], is_impossible=False)
        cfg = PreprocessConfig(max_seq_length=30, doc_stride=4)
        feats = chunk_context(example, ctx, cfg, ["when"])
        assert len(feats) == 1
        f = feats[0]
        offset = 3  # [CLS] when [SEP]
        assert (f.start_position, f.end_position) == (offset + 6, offset + 7)

    def test_question_too_long(self):
        ctx = toy_tokenize("a", ["a"])
        example = RawExample(qid="q", question="x " * 20, context="a",
                             answers=[], is_impossible=True)
        cfg = PreprocessConfig(max_seq_length=10, doc_stride=2)
        with pytest.raises(DataError, match="no room for context"):
            chunk_context(example, ctx, cfg, ["x"] * 20)

    @pytest.mark.parametrize("impossible, answers", [
        (False, []), (True, [("ab", 0)])])
    def test_is_impossible_must_agree_with_answers(self, impossible,
                                                   answers):
        with pytest.raises(DataError) as e:
            RawExample(qid="q", question="?", context="ab cd",
                       answers=answers, is_impossible=impossible)
        assert str(e.value) == (f"qid q: is_impossible={impossible} but "
                                f"{len(answers)} answers given")

    @staticmethod
    def _words(n):
        """n two-letter words; word i spans characters 3i to 3i + 2."""
        text = " ".join(["ab"] * n)
        return text, TokenizedContext(["ab"] * n,
                                      [(3 * i, 3 * i + 2) for i in range(n)])

    def test_stride_must_leave_a_step_when_chunking(self):
        # budget 10 - 1 - 3 = 6 context tokens; a stride of 6 never advances
        cfg = PreprocessConfig(max_seq_length=10, doc_stride=6)

        def chunks(n):
            text, ctx = self._words(n)
            return chunk_context(RawExample("q", "?", text, [], True), ctx,
                                 cfg, ["?"])

        assert len(chunks(6)) == 1  # fits the budget: no stride is taken
        with pytest.raises(DataError) as e:
            chunks(7)
        assert str(e.value) == ("doc_stride=6 must be smaller than the "
                                "context budget 6 when chunking is needed")

    def test_gold_span_longer_than_a_chunk(self):
        text, ctx = self._words(20)
        # words 2..9: eight tokens against a budget of six
        example = RawExample(qid="q", question="?", context=text,
                             answers=[(text[6:29], 6)], is_impossible=False)
        cfg = PreprocessConfig(max_seq_length=10, doc_stride=2)
        with pytest.raises(DataError) as e:
            chunk_context(example, ctx, cfg, ["?"])
        assert str(e.value) == ("qid q: gold token span (2, 9) not fully "
                                "contained in any chunk (budget=6, "
                                "doc_stride=2)")

    def test_coverage_and_overlap_bookkeeping(self):
        rng = Rng(55)
        for _ in range(500):
            n = 1 + int(rng.uniform(0, 60))
            tokens = [f"t{i}" for i in range(n)]
            spans = [(2 * i, 2 * i + 1) for i in range(n)]
            ctx = TokenizedContext(tokens, spans)
            example = RawExample(qid="q", question="?", context="",
                                 answers=[], is_impossible=True)
            budget = 3 + int(rng.uniform(0, 12))
            stride = 1 + int(rng.uniform(0, budget - 1))
            cfg = PreprocessConfig(max_seq_length=budget + 4,
                                   doc_stride=stride)
            feats = chunk_context(example, ctx, cfg, ["?"])
            covered = set()
            chunks = []
            for f in feats:
                idxs = [i for i, m in enumerate(f.context_mask) if m]
                assert len(f.tokens) <= cfg.max_seq_length
                chunk = [f.tokens[i] for i in idxs]
                chunks.append(chunk)
                covered.update(chunk)
            assert covered == set(tokens)
            for a, b in zip(chunks, chunks[1:]):
                if len(a) == budget and len(b) == budget:
                    assert len(set(a) & set(b)) == stride

    def test_unanswerable_all_null(self):
        text, ctx, _ = self._jay()
        example = RawExample(qid="jay", question="How old is Jay?",
                             context=text, answers=[], is_impossible=True)
        cfg = PreprocessConfig(max_seq_length=12, doc_stride=2)
        feats = chunk_context(example, ctx, cfg,
                              ["How", "old", "is", "Jay?"])
        assert all(f.start_position == 0 and f.end_position == 0
                   for f in feats)

    def test_gold_span_uniqueness(self):
        # small stride makes several chunks contain the answer token
        text, ctx, example = self._jay()
        cfg = PreprocessConfig(max_seq_length=12, doc_stride=4)
        feats = chunk_context(example, ctx, cfg,
                              ["How", "old", "is", "Jay?"])
        carriers = [f for f in feats if f.start_position != 0]
        assert len(carriers) == 1


class TestSquadJson:
    def _write(self, tmp_path, payload):
        path = tmp_path / "data.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    def _dataset(self):
        return {"data": [{"paragraphs": [{
            "context": "Obama was born in August.",
            "qas": [
                {"id": "q1", "question": "when?",
                 "answers": [{"text": "August", "answer_start": 18},
                             {"text": "August", "answer_start": 18},
                             {"text": "in August", "answer_start": 15}],
                 "is_impossible": False},
                {"id": "q2", "question": "who?", "answers": [],
                 "is_impossible": True},
            ]}]}]}

    def test_load_counts(self, tmp_path):
        examples = load_squad_json(self._write(tmp_path, self._dataset()))
        assert len(examples) == 2
        assert sum(ex.is_impossible for ex in examples) == 1

    def test_three_answers_kept_in_order(self, tmp_path):
        examples = load_squad_json(self._write(tmp_path, self._dataset()))
        assert examples[0].answers == [("August", 18), ("August", 18),
                                       ("in August", 15)]

    def test_empty_data(self, tmp_path):
        assert load_squad_json(self._write(tmp_path, {"data": []})) == []

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(DataError, match="malformed JSON"):
            load_squad_json(path)

    def test_schema_error_names_json_path(self, tmp_path):
        payload = {"data": [{"paragraphs": [{
            "context": "x", "qas": [{"question": "?"}]}]}]}
        with pytest.raises(DataError,
                           match=r"\$\.data\[0\]\.paragraphs\[0\]\.qas\[0\]: "
                                 r"missing field 'id'$"):
            load_squad_json(self._write(tmp_path, payload))

    def test_repeated_question_id_names_second_occurrence(self, tmp_path):
        payload = self._dataset()
        qas = payload["data"][0]["paragraphs"][0]["qas"]
        qas[1]["id"] = qas[0]["id"]
        path = self._write(tmp_path, payload)
        with pytest.raises(DataError) as e:
            load_squad_json(path)
        assert str(e.value) == (
            f"{path}: $.data[0].paragraphs[0].qas[1]: question id 'q1' "
            f"repeats $.data[0].paragraphs[0].qas[0]")


class TestVocab:
    def test_lines_as_the_text_reader_splits_them(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_bytes(b"ab\r\ncd\n\n  \nx y\ref")
        assert load_vocab(path) == ["ab", "cd", "x y", "ef"]

    def test_invalid_utf8_names_path_and_line(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_bytes(b"ab\ncd\xff\n")
        with pytest.raises(DataError) as e:
            load_vocab(path)
        assert str(e.value).startswith(
            f"{path}: line 2: 'utf-8' codec can't decode byte 0xff"), e.value


class TestJsonLines:
    def test_round_trip_skips_blank_lines(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_jsonl(path, [{"a": "\u00e9"}, [1, 2]])
        assert path.read_text(encoding="utf-8") == '{"a": "\u00e9"}\n[1, 2]\n'
        path.write_text("\n" + path.read_text(encoding="utf-8") + "  \n",
                        encoding="utf-8")
        assert read_jsonl(path, lambda v: v) == [{"a": "\u00e9"}, [1, 2]]

    def test_crlf_lines(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_bytes(b'{"a": 1}\r\n\r\n[2]\r\n')
        assert read_jsonl(path, lambda v: v) == [{"a": 1}, [2]]

    @pytest.mark.parametrize("line, problem", [
        ("{", "line 3: Expecting property name"),
        ('{"b": 1}', "line 3: missing field 'a'"),
        ("[]", "line 3: list indices must be integers"),
        ('{"a": "x"}', "line 3: invalid literal for int()"),
    ], ids=["bad-json", "missing", "wrong-type", "bad-value"])
    def test_failure_names_path_and_line(self, tmp_path, line, problem):
        path = tmp_path / "r.jsonl"
        path.write_text('{"a": 1}\n\n' + line + "\n", encoding="utf-8")
        with pytest.raises(DataError) as e:
            read_jsonl(path, lambda rec: int(rec["a"]))
        assert str(e.value).startswith(f"{path}: {problem}"), str(e.value)

    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity",
                                        "1e999"])
    def test_non_finite_number_names_path_and_line(self, tmp_path, number):
        path = tmp_path / "r.jsonl"
        path.write_text('{"a": 1.5}\n{"a": ' + number + "}\n",
                        encoding="utf-8")
        with pytest.raises(DataError) as e:
            read_jsonl(path, lambda v: v)
        assert str(e.value) == f"{path}: line 2: non-finite number {number}"

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_number_is_not_written(self, tmp_path, value):
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_jsonl(tmp_path / "r.jsonl", [{"a": value}])

    def test_pretokenized_missing_field(self, tmp_path):
        path = tmp_path / "tok.jsonl"
        path.write_text('{"qid": "q", "tokens": ["a"]}\n', encoding="utf-8")
        with pytest.raises(DataError,
                           match=r"line 1: missing field 'spans'$"):
            load_pretokenized(path)

    @pytest.mark.parametrize("tokens, spans, problem", [
        (["a", "b"], [[0, 1]], "2 tokens but 1 spans entries"),
        (["a", "b"], [[0, 1], None], "spans entry None is not [start, end] "
                                     "with 0 <= start <= end"),
        (["a", "b"], [[0, 1], [3, 2]], "spans entry [3, 2] is not [start, "
                                       "end] with 0 <= start <= end"),
        (["a", "b"], [[0, 1], [2.0, 3]], "spans entry [2.0, 3] is not "
                                         "[start, end] with 0 <= start <= "
                                         "end"),
        (["b", "a"], [[6, 11], [0, 5]], "spans entry [0, 5] starts before "
                                        "the end of the span before it, "
                                        "[6, 11], and does not repeat it"),
        (["a", "b"], [[0, 1], [2, 3]], "qid 'p' repeats an earlier line"),
        (["a", ""], [[0, 1], [2, 3]], "tokens[1] '' is not a non-empty "
                                      "string"),
        (["a", 3], [[0, 1], [2, 3]], "tokens[1] 3 is not a non-empty "
                                     "string"),
        ("ab", [[0, 1], [2, 3]], "tokens is not a list"),
    ], ids=["one-short", "null", "reversed", "float", "backwards",
            "repeated-qid",
            "empty-token", "int-token", "tokens-not-a-list"])
    def test_pretokenized_records_follow_the_feature_rules(
            self, tmp_path, tokens, spans, problem):
        path = tmp_path / "tok.jsonl"
        good = {"qid": "p", "tokens": ["a"], "spans": [[0, 1]]}
        qid = "p" if problem.startswith("qid") else "q"
        bad = {"qid": qid, "tokens": tokens, "spans": spans}
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n",
                        encoding="utf-8")
        with pytest.raises(DataError) as e:
            load_pretokenized(path)
        assert str(e.value) == f"{path}: line 2: {problem}"


class TestRecords:
    """The one binary container: a JSON header and keyed fp64 arrays."""

    def test_round_trip_keeps_header_keys_shapes_and_bits(self, tmp_path):
        path = tmp_path / "x.bin"
        arrays = [np.array(-0.0), np.array([1e-300, np.inf, np.nan]),
                  np.arange(24.0).reshape(2, 3, 4), np.zeros((0, 5))]
        header = {"seed": 3, "nested": {"n": [1, 2.5, None]}}
        write_records(path, b"TEST", 7, header, [
            (f"k\u00e9{i}", i * 2, a) for i, a in enumerate(arrays)])
        got_header, records = read_records(path, b"TEST", 7)
        assert got_header == header
        assert [(k, i) for k, i, _ in records] == [
            (f"k\u00e9{i}", i * 2) for i in range(len(arrays))]
        for (_, _, got), want in zip(records, arrays):
            assert got.dtype == np.float64 and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert got.flags.writeable

    @pytest.mark.parametrize("header, why", [
        (b"[1, 2]", "header is not a JSON object"),
        (b'{"a": ', "header: Expecting value"),
        (b'{"a": NaN}', "header: non-finite number NaN"),
    ], ids=["a-list", "cut-json", "nan"])
    def test_header_must_be_a_finite_json_object(self, tmp_path, header,
                                                 why):
        path = tmp_path / "x.bin"
        path.write_bytes(b"TEST" + struct.pack("<II", 1, len(header)) + header
                         + struct.pack("<I", 0))
        with pytest.raises(DataError, match=f"^{path}: {re.escape(why)}"):
            read_records(path, b"TEST", 1)

    def test_repeated_key_and_index_is_refused(self, tmp_path):
        path = tmp_path / "x.bin"
        write_records(path, b"TEST", 1, {}, [
            ("a", 0, np.ones(1)), ("a", 1, np.ones(1)), ("a", 0, np.ones(2))])
        with pytest.raises(DataError, match=re.escape(
                f"{path}: record 2: (key='a', index=0) repeats an earlier "
                f"record")):
            read_records(path, b"TEST", 1)


class TestFeatureFile:
    def test_round_trip_and_determinism(self, tmp_path):
        text, ctx = jay_context()
        example = RawExample(qid="jay", question="How old is Jay?",
                             context=text,
                             answers=[("12", text.index("12"))],
                             is_impossible=False)
        cfg = PreprocessConfig(max_seq_length=12, doc_stride=2)
        feats = chunk_context(example, ctx, cfg,
                              ["How", "old", "is", "Jay?"])
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_features(p1, feats)
        write_features(p2, feats)
        assert p1.read_bytes() == p2.read_bytes()
        loaded = read_features(p1)
        assert len(loaded) == len(feats)
        for a, b in zip(loaded, feats):
            assert (a.qid, a.feature_index, a.tokens) == \
                (b.qid, b.feature_index, b.tokens)
            assert a.context_mask == b.context_mask
            assert a.token_word_span == [
                tuple(s) if s else s for s in b.token_word_span]
            assert (a.start_position, a.end_position) == \
                (b.start_position, b.end_position)

    def test_no_context_mask_key(self, tmp_path):
        path = tmp_path / "f.jsonl"
        write_features(path, [make_feature()])
        assert list(json.loads(path.read_text(encoding="utf-8"))) == [
            "qid", "feature_index", "tokens", "token_word_span",
            "start_position", "end_position"]

    def test_line_with_a_context_mask_reads_equal(self, tmp_path):
        feature = make_feature(start=1, end=2)
        old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
        write_features(new, [feature])
        rec = json.loads(new.read_text(encoding="utf-8"))
        rec = {**rec, "context_mask": feature.context_mask}
        write_jsonl(old, [rec])
        assert read_features(old) == read_features(new) == [feature]
        assert read_features(old)[0].context_mask == feature.context_mask

    def test_invalid_config(self):
        with pytest.raises(DataError, match="doc_stride"):
            PreprocessConfig(max_seq_length=10, doc_stride=10)

    def test_answer_offset_validation(self):
        with pytest.raises(DataError, match="does not match context"):
            RawExample(qid="q", question="?", context="hello",
                       answers=[("bye", 0)], is_impossible=False)



def _set(key, value):
    return lambda rec: rec.__setitem__(key, value)


def _set_span(i, span):
    return lambda rec: rec["token_word_span"].__setitem__(i, span)


class TestFeatureRecordChecks:
    """A record ``write_features`` could not have written is a DataError
    naming the path and the line.  The good record is ``make_feature(start=1,
    end=2)``: 12 tokens, context positions 5..10, gold (6, 7)."""

    def _read(self, tmp_path, edit):
        good = json.loads(json.dumps(vars(make_feature(start=1, end=2))))
        bad = json.loads(json.dumps({**good, "qid": "q1"}))
        edit(bad)
        path = tmp_path / "f.jsonl"
        write_jsonl(path, [good, bad])
        with pytest.raises(DataError) as e:
            read_features(path)
        return path, str(e.value)

    @pytest.mark.parametrize("edit", [
        lambda rec: rec["tokens"].append("extra"),
        lambda rec: rec["token_word_span"].pop(),
    ], ids=["extra-token", "missing-span"])
    def test_token_and_span_counts_differ(self, tmp_path, edit):
        path, err = self._read(tmp_path, edit)
        assert err.startswith(f"{path}: line 2: "), err
        assert "token_word_span entries" in err

    @pytest.mark.parametrize("span", [[3], [3, 4, 5], [4, 3], [-1, 2],
                                      [1.5, 2], ["1", 2], [True, 2], 7],
                             ids=["one", "three", "reversed", "negative",
                                  "float", "string", "bool", "scalar"])
    def test_malformed_span(self, tmp_path, span):
        path, err = self._read(tmp_path, _set_span(6, span))
        assert err == (f"{path}: line 2: token_word_span entry {span!r} is "
                       f"neither null nor [start, end] with "
                       f"0 <= start <= end")

    @pytest.mark.parametrize("start, end", [
        (999, 999), (0, 6), (6, 0), (7, 6), (1, 1), (11, 11), (-1, 6),
    ], ids=["past-the-end", "null-start", "null-end", "reversed",
            "question-token", "separator", "negative"])
    def test_positions_neither_null_nor_context(self, tmp_path, start, end):
        path, err = self._read(tmp_path, lambda rec: rec.update(
            start_position=start, end_position=end))
        assert err == (f"{path}: line 2: start/end positions ({start}, "
                       f"{end}) are neither the null position nor context "
                       f"positions with start <= end")

    def test_repeated_key(self, tmp_path):
        path, err = self._read(tmp_path, _set("qid", "q0"))
        assert err == (f"{path}: line 2: (qid='q0', feature_index=0) "
                       f"repeats an earlier line")

    def test_null_and_context_positions_pass(self, tmp_path):
        path = tmp_path / "f.jsonl"
        feats = [make_feature(qid="a"), make_feature(qid="b", start=0, end=5),
                 make_feature(qid="b", feature_index=1, start=3, end=3)]
        write_features(path, feats)
        assert read_features(path) == feats


UNICODE_SPACES = " \t\n\x0b\x1c\xa0\u2003\u3000"


def spaced_texts(n=300, seed=11):
    """Seeded strings of letters, trailing punctuation and the whitespace
    of ``UNICODE_SPACES``, each a run of 0-3 of them between words."""
    rng = random.Random(seed)
    texts = []
    for _ in range(n):
        parts = []
        for _ in range(rng.randrange(6)):
            parts.append("".join(rng.choice(UNICODE_SPACES)
                                 for _ in range(rng.randrange(4))))
            parts.append("".join(rng.choice("ab.,!?;:")
                                 for _ in range(1 + rng.randrange(4))))
        parts.append("".join(rng.choice(UNICODE_SPACES)
                             for _ in range(rng.randrange(3))))
        texts.append("".join(parts))
    return texts


class TestWordSplit:
    """Both tokenizers find their words where ``str.split()`` does, over
    every kind of Unicode whitespace."""

    def test_word_tokenize_gives_split_words_and_their_spans(self):
        for text in spaced_texts():
            ctx = word_tokenize(text)
            assert ctx.tokens == text.split(), repr(text)
            assert [text[a:b] for a, b in ctx.token_word_span] == ctx.tokens

    def test_toy_tokenize_spans_words_less_trailing_punctuation(self):
        for text in spaced_texts():
            want = []
            for a, b in word_tokenize(text).token_word_span:
                while b - a > 1 and text[b - 1] in ".,!?;:":
                    b -= 1
                want.append((a, b))
            ctx = toy_tokenize(text, vocab=["ab", "a."])
            assert "".join(ctx.tokens) == "".join(text.split())
            assert [s for i, s in enumerate(ctx.token_word_span)
                    if i == 0 or s != ctx.token_word_span[i - 1]] == want

    def test_question_tokens_are_split_words(self):
        for text in spaced_texts():
            assert question_tokens(text) == text.split()


class TestSynth:
    def test_default_corpus_bytes_are_pinned(self, tmp_path):
        # the benchmark corpora and many tests are built from this output
        path = tmp_path / "synth.json"
        write_squad_json(path, make_synthetic_examples(50, seed=0))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "4dd6a2e35bdb128ea17d141c148f8c9f"
            "4008237b17ddf0d3cae8d811f249b51c")
