"""SQuAD 2.0 ingestion, answer/token alignment, long-context chunking, and
the two artifact framings: JSON lines and binary fp64 records.

Character spans are half-open [start, end) throughout.  Every token carries
the span of the *word* it belongs to, so consecutive subword tokens of one
word share an identical span.  A feature packs
``[sentinel] question [sep] context-chunk [sep]``; only its context tokens
carry a span, so a null span is what marks a token as outside the context.
The sentinel at index 0 doubles as the no-answer position.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass

import numpy as np

SENTINEL_TOKEN = "[CLS]"
SEPARATOR_TOKEN = "[SEP]"
NULL_POSITION = 0

_TRAILING_PUNCT = ".,!?;:"


class DataError(ValueError):
    """Malformed input data (bad schema, impossible span, bad config)."""


def write_records(path, magic: bytes, version: int, header, records) -> None:
    """Binary artifact: ``magic``; u32 LE ``version``, ``header`` fields and
    record count; then per (qid, feature_index, seq_len, payload) record the
    u32 byte length of the UTF-8 qid, the qid, u32 feature_index, u32
    seq_len and the payload as row-major fp64 LE."""
    fields = (version, *header, len(records))
    with open(path, "wb") as f:
        f.write(magic + struct.pack(f"<{len(fields)}I", *fields))
        for qid, feature_index, seq_len, payload in records:
            qb = qid.encode("utf-8")
            f.write(struct.pack(f"<I{len(qb)}sII", len(qb), qb,
                                feature_index, seq_len))
            f.write(np.asarray(payload, dtype="<f8").tobytes())


def read_records(path, magic: bytes, version: int, n_header: int,
                 shape) -> tuple:
    """Read what ``write_records`` wrote: (header fields, records).

    Each record is (qid, feature_index, payload); ``shape(header,
    seq_len)`` gives the fp64 payload's shape.  A wrong magic or version, a
    short read, a qid that is not UTF-8 or bytes past the last record
    raise DataError.
    """
    with open(path, "rb") as f:
        def read(size):
            buf = f.read(size)
            if len(buf) != size:
                raise DataError(
                    f"{path}: truncated: needed {size} bytes at offset "
                    f"{f.tell() - len(buf)}, file has {len(buf)}")
            return buf

        got = read(len(magic))
        if got != magic:
            raise DataError(f"{path}: bad magic {got!r}")
        got, *header, count = struct.unpack(f"<{n_header + 2}I",
                                            read(4 * (n_header + 2)))
        if got != version:
            raise DataError(f"{path}: unsupported version {got}")
        records = []
        for i in range(count):
            (qlen,) = struct.unpack("<I", read(4))
            try:
                qid = read(qlen).decode("utf-8")
            except UnicodeDecodeError as e:
                raise DataError(f"{path}: record {i}: qid: {e}") from None
            feature_index, seq_len = struct.unpack("<II", read(8))
            dims = shape(header, seq_len)
            raw = read(8 * int(np.prod(dims)))
            payload = np.frombuffer(raw, dtype="<f8").reshape(dims)
            records.append((qid, feature_index, payload.astype(np.float64)))
        offset = f.tell()
        extra = f.seek(0, os.SEEK_END) - offset
        if extra:
            raise DataError(f"{path}: {extra} trailing bytes after the last "
                            f"record (offset {offset})")
    return tuple(header), records


@dataclass
class RawExample:
    qid: str
    question: str
    context: str
    answers: list  # list of (text, char_start)
    is_impossible: bool

    def __post_init__(self):
        if self.is_impossible != (len(self.answers) == 0):
            raise DataError(
                f"qid {self.qid}: is_impossible={self.is_impossible} but "
                f"{len(self.answers)} answers given"
            )
        for text, start in self.answers:
            if self.context[start : start + len(text)] != text:
                raise DataError(
                    f"qid {self.qid}: answer {text!r} does not match context "
                    f"at offset {start}"
                )


@dataclass
class TokenizedContext:
    tokens: list
    token_word_span: list  # per token: (start, end) half-open, word-level


@dataclass
class Feature:
    qid: str
    feature_index: int
    tokens: list
    token_word_span: list  # (start, end) per context token, else None
    start_position: int
    end_position: int

    @property
    def context_mask(self) -> list:
        """True per context token: exactly the tokens with a word span."""
        return [s is not None for s in self.token_word_span]

    def context_token_indices(self):
        return [i for i, m in enumerate(self.context_mask) if m]


@dataclass
class PreprocessConfig:
    max_seq_length: int
    doc_stride: int

    def __post_init__(self):
        if not 0 < self.doc_stride < self.max_seq_length:
            raise DataError(
                f"need 0 < doc_stride < max_seq_length, got "
                f"doc_stride={self.doc_stride}, max_seq_length={self.max_seq_length}"
            )


def toy_tokenize(text: str, vocab) -> TokenizedContext:
    """Whitespace-split then greedy longest-match subword decomposition.

    Stand-in for a real subword tokenizer so fixtures need no external
    model.  Unknown characters fall back to single-character tokens.  The
    word span excludes trailing sentence punctuation, matching the fixture
    convention ("August." maps to the span of "August").
    """
    vocab = set(vocab)
    tokens, spans = [], []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        end = pos
        while end < n and not text[end].isspace():
            end += 1
        word = text[pos:end]
        span_end = end
        while span_end - pos > 1 and text[span_end - 1] in _TRAILING_PUNCT:
            span_end -= 1
        span = (pos, span_end)
        i = 0
        while i < len(word):
            match = None
            for j in range(len(word), i, -1):
                if word[i:j] in vocab:
                    match = word[i:j]
                    break
            if match is None:
                match = word[i]
            tokens.append(match)
            spans.append(span)
            i += len(match)
        pos = end
    return TokenizedContext(tokens=tokens, token_word_span=spans)


def align_answer_to_tokens(ctx: TokenizedContext, answer_char_span) -> tuple:
    """Token range covering the answer: first and last tokens whose word
    spans overlap the answer's character span."""
    a_start, a_end = answer_char_span
    hits = [
        i
        for i, (s, e) in enumerate(ctx.token_word_span)
        if s < a_end and a_start < e
    ]
    if not hits:
        nearest = ctx.token_word_span[:3]
        raise DataError(
            f"answer span [{a_start}, {a_end}) overlaps no token; "
            f"nearest token spans: {nearest}"
        )
    return hits[0], hits[-1]


def span_to_text(ctx: TokenizedContext, start_token: int, end_token: int,
                 context_text: str) -> str:
    n = len(ctx.tokens)
    if not (0 <= start_token <= end_token < n):
        raise DataError(
            f"token span ({start_token}, {end_token}) out of range for "
            f"{n} tokens"
        )
    return context_text[ctx.token_word_span[start_token][0]:
                        ctx.token_word_span[end_token][1]]


def chunk_context(example: RawExample, ctx: TokenizedContext,
                  cfg: PreprocessConfig, question_tokens) -> list:
    """Split an over-long context into overlapping chunks and emit features.

    Consecutive full chunks share exactly ``doc_stride`` context tokens.
    The first chunk fully containing the gold answer keeps it; every other
    chunk (and every chunk of an unanswerable example) gets the null
    position.
    """
    budget = cfg.max_seq_length - len(question_tokens) - 3
    if budget < 1:
        raise DataError(
            f"qid {example.qid}: question of {len(question_tokens)} tokens "
            f"leaves no room for context under max_seq_length="
            f"{cfg.max_seq_length}"
        )
    n_ctx = len(ctx.tokens)
    step = budget - cfg.doc_stride
    if n_ctx > budget and step < 1:
        raise DataError(
            f"doc_stride={cfg.doc_stride} must be smaller than the context "
            f"budget {budget} when chunking is needed"
        )

    starts = [0]
    while starts[-1] + budget < n_ctx:
        starts.append(starts[-1] + step)

    gold = None
    if not example.is_impossible:
        text, char_start = example.answers[0]
        gold = align_answer_to_tokens(ctx, (char_start, char_start + len(text)))

    features = []
    gold_assigned = False
    for fi, lo in enumerate(starts):
        hi = min(lo + budget, n_ctx)
        chunk_tokens = ctx.tokens[lo:hi]
        chunk_spans = ctx.token_word_span[lo:hi]
        tokens = ([SENTINEL_TOKEN] + list(question_tokens) + [SEPARATOR_TOKEN]
                  + chunk_tokens + [SEPARATOR_TOKEN])
        ctx_offset = 2 + len(question_tokens)
        spans = [None] * ctx_offset + chunk_spans + [None]
        start_pos = end_pos = NULL_POSITION
        if gold is not None and not gold_assigned:
            gs, ge = gold
            if lo <= gs and ge < hi:
                start_pos = ctx_offset + (gs - lo)
                end_pos = ctx_offset + (ge - lo)
                gold_assigned = True
        features.append(Feature(
            qid=example.qid,
            feature_index=fi,
            tokens=tokens,
            token_word_span=spans,
            start_position=start_pos,
            end_position=end_pos,
        ))
    if gold is not None and not gold_assigned:
        raise DataError(
            f"qid {example.qid}: gold token span {gold} not fully contained "
            f"in any chunk (budget={budget}, doc_stride={cfg.doc_stride})"
        )
    return features


def load_squad_json(path) -> list:
    """Official SQuAD 2.0 schema: data -> paragraphs -> qas.  A question id
    may appear once."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            blob = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise DataError(f"{path}: malformed JSON: {e}") from None
    examples = []
    first_at = {}  # qid -> JSON path of its question
    if not isinstance(blob, dict) or not isinstance(blob.get("data"), list):
        raise DataError(f"{path}: $.data must be a list")
    for ai, article in enumerate(blob["data"]):
        if not isinstance(article, dict):
            raise DataError(f"{path}: $.data[{ai}] must be an object")
        paragraphs = article.get("paragraphs")
        if not isinstance(paragraphs, list):
            raise DataError(f"{path}: $.data[{ai}].paragraphs must be a list")
        for pi, para in enumerate(paragraphs):
            if not isinstance(para, dict):
                raise DataError(f"{path}: $.data[{ai}].paragraphs[{pi}] "
                                f"must be an object")
            context = para.get("context")
            qas = para.get("qas")
            if not isinstance(context, str) or not isinstance(qas, list):
                raise DataError(
                    f"{path}: $.data[{ai}].paragraphs[{pi}] needs string "
                    f"'context' and list 'qas'"
                )
            for qi, qa in enumerate(qas):
                where = f"$.data[{ai}].paragraphs[{pi}].qas[{qi}]"
                try:
                    qid = qa["id"]
                    if qid in first_at:
                        raise ValueError(f"question id {qid!r} repeats "
                                         f"{first_at[qid]}")
                    first_at[qid] = where
                    question = qa["question"]
                    is_impossible = bool(qa.get("is_impossible", False))
                    answers = [] if is_impossible else [
                        (a["text"], int(a["answer_start"]))
                        for a in qa.get("answers", [])
                    ]
                    examples.append(RawExample(
                        qid=qid, question=question, context=context,
                        answers=answers, is_impossible=is_impossible,
                    ))
                except (KeyError, TypeError, ValueError) as e:
                    raise DataError(f"{path}: {where}: {_why(e)}") from None
    return examples


def _why(e) -> str:
    """A parse failure's message; a KeyError is a missing field."""
    return f"missing field {e}" if isinstance(e, KeyError) else str(e)


# -- JSON-lines io --------------------------------------------------------


def write_jsonl(path, records) -> None:
    """One JSON value per line, UTF-8, non-ASCII characters kept as is."""
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec, ensure_ascii=False) + "\n")


def read_jsonl(path, parse) -> list:
    """``parse`` of each non-blank line's JSON value; a bad line, invalid
    UTF-8 included, raises DataError naming the path and the line number."""
    out = []
    with open(path, "rb") as f:
        for ln, raw in enumerate(f, 1):
            try:
                line = raw.decode("utf-8")
                if line.strip():
                    out.append(parse(json.loads(line)))
            except (KeyError, TypeError, ValueError) as e:
                raise DataError(f"{path}: line {ln}: {_why(e)}") from None
    return out


def load_pretokenized(path) -> dict:
    """JSON-lines {qid, tokens, spans} -> qid -> TokenizedContext."""
    return dict(read_jsonl(path, lambda rec: (rec["qid"], TokenizedContext(
        tokens=list(rec["tokens"]),
        token_word_span=[(int(s), int(e)) for s, e in rec["spans"]],
    ))))


def write_features(path, features) -> None:
    """JSON-lines, one feature per line, its fields in declaration order."""
    write_jsonl(path, (vars(f) for f in sorted(
        features, key=lambda f: (f.qid, f.feature_index))))


def _span(s):
    """A feature record's word span: null, or [start, end] with
    0 <= start <= end."""
    if s is None:
        return None
    if (type(s) is list and len(s) == 2
            and type(s[0]) is type(s[1]) is int and 0 <= s[0] <= s[1]):
        return tuple(s)
    raise ValueError(f"token_word_span entry {s!r} is neither null nor "
                     f"[start, end] with 0 <= start <= end")


def _feature(rec) -> Feature:
    f = Feature(
        qid=rec["qid"],
        feature_index=int(rec["feature_index"]),
        tokens=list(rec["tokens"]),
        token_word_span=[_span(s) for s in rec["token_word_span"]],
        start_position=int(rec["start_position"]),
        end_position=int(rec["end_position"]),
    )
    if len(f.tokens) != len(f.token_word_span):
        raise ValueError(f"{len(f.tokens)} tokens but "
                         f"{len(f.token_word_span)} token_word_span entries")
    s, e, mask = f.start_position, f.end_position, f.context_mask
    if (s, e) != (NULL_POSITION, NULL_POSITION) and not (
            0 <= s <= e < len(mask) and mask[s] and mask[e]):
        raise ValueError(f"start/end positions ({s}, {e}) are neither the "
                         f"null position nor context positions with "
                         f"start <= end")
    return f


def read_features(path) -> list:
    """What ``write_features`` wrote; a key it does not write (a
    ``context_mask`` from an older file) is ignored.  A malformed record,
    or a (qid, feature_index) that repeats an earlier line's, raises
    DataError naming the path and the line."""
    seen = set()

    def parse(rec):
        f = _feature(rec)
        key = (f.qid, f.feature_index)
        if key in seen:
            raise ValueError(f"(qid={f.qid!r}, feature_index="
                             f"{f.feature_index}) repeats an earlier line")
        seen.add(key)
        return f

    return read_jsonl(path, parse)


def load_vocab(path) -> list:
    """The toy tokenizer's vocabulary: one subword per non-blank line,
    UTF-8; invalid UTF-8 raises DataError naming the path and the line."""
    with open(path, "rb") as f:
        raw = f.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        line = raw.count(b"\n", 0, e.start) + 1
        raise DataError(f"{path}: line {line}: {e}") from None
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return [w for w in lines if w.strip()]


def preprocess_dataset(examples, tokenized_by_qid, cfg: PreprocessConfig,
                       question_tokenizer) -> list:
    """Run chunking over a whole dataset, ordered by (qid, feature_index)."""
    features = []
    for ex in sorted(examples, key=lambda e: e.qid):
        ctx = tokenized_by_qid[ex.qid]
        q_tokens = question_tokenizer(ex.question)
        features.extend(chunk_context(ex, ctx, cfg, q_tokens))
    return features
