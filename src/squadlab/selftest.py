"""Quick self-verification: golden fixtures, gradient spot checks of the
highway layer, the fused kernels (stacked BiGRU/BiLSTM scans, also over two
chunks of unequal length, and the char-CNN) and ``stack``, and one tiny
BiDAF forward that must give the same bytes with and without a recorded
graph."""

from __future__ import annotations

from .autograd import Rng, Tensor, no_grad, stack
from .data import (PreprocessConfig, RawExample, TokenizedContext,
                   align_answer_to_tokens, chunk_context, span_to_text,
                   toy_tokenize)
from .embeddings import CharEmbeddingTable
from .gradcheck import check_gradients
from .layers import (CharCNN, GRUCell, Highway, LSTMCell, bigru_forward,
                     bilstm_forward)
from .scoring import compute_em, compute_f1
from .training import ModelConfig, QaModel

OBAMA_CONTEXT = "Obama was born in August."
OBAMA_VOCAB = ["O", "ba", "ma", "was", "born", "in", "Au", "gust."]
OBAMA_SPANS = [(0, 5), (0, 5), (0, 5), (6, 9), (10, 14), (15, 17),
               (18, 24), (18, 24)]

JAY_TOKENS = ["_jay", "_is", "_12", "_years", "_old", ".", "_he", "_lives",
              "_in", "_flo", "mo", "."]


def jay_context():
    """Jay fixture as a pre-tokenized context over a synthetic text."""
    text = "jay is 12 years old . he lives in flomo ."
    spans, pos = [], 0
    for tok in JAY_TOKENS:
        word = tok.lstrip("_")
        start = text.index(word, pos)
        spans.append((start, start + len(word)))
        pos = start + len(word)
    # "mo" belongs to the word "flomo": share its span with "_flo"
    spans[10] = spans[9] = (text.index("flomo"), text.index("flomo") + 5)
    return text, TokenizedContext(tokens=list(JAY_TOKENS),
                                  token_word_span=spans)


def run_selftest(verbose: bool = False) -> bool:
    ok = True

    def report(name, passed):
        nonlocal ok
        ok = ok and passed
        if verbose:
            print(f"{'PASS' if passed else 'FAIL'}  {name}")

    # token alignment golden
    ctx = toy_tokenize(OBAMA_CONTEXT, OBAMA_VOCAB)
    report("obama tokenization",
           ctx.tokens == OBAMA_VOCAB and ctx.token_word_span == OBAMA_SPANS)
    report("obama align", align_answer_to_tokens(ctx, (18, 24)) == (6, 7))
    report("obama decode",
           span_to_text(ctx, 6, 6, OBAMA_CONTEXT) == "August")

    # chunking golden
    text, jay = jay_context()
    example = RawExample(qid="jay", question="How old is Jay?",
                         context=text, answers=[("12", text.index("12"))],
                         is_impossible=False)
    cfg = PreprocessConfig(max_seq_length=12, doc_stride=2)
    feats = chunk_context(example, jay, cfg, ["How", "old", "is", "Jay?"])
    first = feats[0]
    answer_ok = (
        len(feats) >= 2
        and first.start_position == first.end_position
        and first.tokens[first.start_position] == "_12"
        and all(f.start_position == 0 and f.end_position == 0
                for f in feats[1:])
    )
    report("jay chunking", answer_ok)

    # scoring golden
    report("einstein em",
           compute_em("Einstein", ["Albert Einstein"]) == 0
           and compute_em("Albert Einstein", ["Albert Einstein"]) == 1)
    report("einstein f1",
           abs(compute_f1("Einstein", ["Albert Einstein"]) - 2 / 3) < 1e-4)

    # gradient spot checks at tiny shapes, fused kernels included
    rng = Rng(7)
    x = Tensor(rng.normal((3, 4)), requires_grad=True)
    hw = Highway(4, rng)
    gru = GRUCell(4, 2, rng.spawn(1)), GRUCell(4, 2, rng.spawn(2))
    lstm = LSTMCell(4, 2, rng.spawn(3)), LSTMCell(4, 2, rng.spawn(4))
    cnn = CharCNN(2, 3, rng.spawn(5))
    win = cnn.windows("aaaab", CharEmbeddingTable(2, seed=0))  # a tie
    rows = {f"row{i}": Tensor(rng.normal(4), requires_grad=True)
            for i in range(3)}
    chunks = Tensor(rng.normal((5, 4)), requires_grad=True)  # rows 3 + 2
    for name, fn, modules, inputs in (
            ("highway", lambda: hw.forward(x), [hw], {"x": x}),
            ("bigru", lambda: bigru_forward(*gru, x), gru, {"x": x}),
            ("bilstm", lambda: bilstm_forward(*lstm, x), lstm, {"x": x}),
            ("bigru over 2 chunks",
             lambda: bigru_forward(*gru, chunks, [3, 2]), gru,
             {"x": chunks}),
            ("char-cnn", lambda: cnn.forward(win), [cnn], {}),
            ("stack", lambda: stack(list(rows.values())) * x, [],
             rows | {"x": x})):
        params = inputs | {f"{i}.{n}": p for i, m in enumerate(modules)
                           for n, p in m.parameters().items()}
        try:
            check_gradients(lambda: (fn() * fn()).sum(), params, rtol=1e-6)
            report(f"{name} gradients", True)
        except AssertionError:
            report(f"{name} gradients", False)

    # inference without a graph computes the recorded forward's bytes
    model = QaModel(ModelConfig("gru_attn_selfattn_gru_bidaf", d_model=4,
                                hidden=2, d_char=2, d_char_out=3), seed=7)
    emb = rng.normal((len(first.tokens), 4))
    recorded = model.forward([first], [emb])
    with no_grad():
        free = model.forward([first], [emb])
    report("bidaf forward without a graph",
           all(r._backward is not None and f._backward is None
               and r.data.tobytes() == f.data.tobytes()
               for r, f in zip(recorded, free)))

    return ok
