import hashlib
import re

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from budgetagents.embedder import EMBED_DIM, _signed_column, embed
from synth import seeded_ticket_texts


def test_empty_text_is_zero_vector():
    vec = embed([""])[0]
    assert vec.shape == (EMBED_DIM,)
    assert np.all(vec == 0.0)


def test_punctuation_only_is_zero_vector():
    assert np.all(embed(["...!?"])[0] == 0.0)


def test_determinism_bitwise():
    a = embed(["Solve for x: 2x + 3 = 11"])[0]
    b = embed(["Solve for x: 2x + 3 = 11"])[0]
    assert a.tobytes() == b.tobytes()


def test_unit_norm():
    vec = embed(["a grade school math word problem about apples"])[0]
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-9


@given(st.text(max_size=200))
def test_dimension_constant_and_norm_in_unit_set(text):
    vec = embed([text])[0]
    assert vec.shape == (EMBED_DIM,)
    norm = np.linalg.norm(vec)
    assert norm == 0.0 or abs(norm - 1.0) < 1e-9


def test_distinct_sentences_not_identical():
    rng = np.random.default_rng(5)
    words = ["apple", "train", "budget", "seven", "price", "agent", "plan", "vote", "token", "cost"]
    sentences = sorted({
        " ".join(rng.choice(words, size=rng.integers(4, 10)).tolist()) + f" id{i}"
        for i in range(100)
    })
    vectors = embed(sentences)
    for i in range(len(sentences)):
        for j in range(i + 1, len(sentences)):
            cos = float(vectors[i] @ vectors[j])
            assert cos < 1.0 - 1e-12


def test_word_order_matters_via_bigrams():
    forward, backward = embed(["alpha beta gamma", "gamma beta alpha"])
    assert not np.array_equal(forward, backward)


def reference_embed(text, dim=EMBED_DIM):
    """The embedding computed without any cache: blake2b of every token."""
    vec = np.zeros(dim)
    words = re.findall(r"\w+", text.lower())
    for token in words + [f"{a} {b}" for a, b in zip(words, words[1:])]:
        h = int.from_bytes(hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest(), "big")
        vec[h % dim] += 1.0 if (h >> 63) & 1 == 0 else -1.0
    norm = float(np.linalg.norm(vec))
    return vec / norm if norm > 0.0 else vec


def test_cached_embed_matches_uncached_reference_bitwise():
    rng = np.random.default_rng(11)
    words = ["ledger", "invoice", "warehouse", "audit", "vendor", "margin", "payroll", "rebate", "tariff", "depot"]
    texts = [
        f"Ticket t{i:04d}. Context: {' '.join(rng.choice(words, size=rng.integers(4, 60)).tolist())}. "
        f"What is {rng.integers(1, 140)} plus {rng.integers(1, 140)}?"
        for i in range(200)
    ]
    for _ in range(2):  # the second pass is served from the cache
        for text, row in zip(texts, embed(texts)):
            assert row.tobytes() == reference_embed(text).tobytes()
    assert _signed_column.cache_info().hits > 0


def test_token_cache_is_bounded():
    assert _signed_column.cache_info().maxsize == 2**15


# Empty, punctuation-only, whitespace-only, repeated-word and non-ASCII texts.
EDGE_TEXTS = ["", "...!?", "a a a", "Straße ÜBER über", "  \n\t ", "x"]
GOLDEN_CORPUS = seeded_ticket_texts(240, seed=3) + EDGE_TEXTS
# SHA-256 of np.stack([embed(t) for t in GOLDEN_CORPUS]).tobytes(), taken when
# embed hashed one text per call.
GOLDEN_SHA256 = "c5fb1190a67a85bcec28a7525a66ee4ad676c1562ef6149612e65da803136b17"


def test_batch_matches_per_text_golden_digest():
    batch = embed(GOLDEN_CORPUS)
    assert batch.shape == (len(GOLDEN_CORPUS), EMBED_DIM) and batch.dtype == np.float64
    assert hashlib.sha256(batch.tobytes()).hexdigest() == GOLDEN_SHA256


def test_row_does_not_depend_on_its_batch():
    batch = embed(GOLDEN_CORPUS)
    for text, row in zip(GOLDEN_CORPUS, batch):
        assert row.tobytes() == embed([text])[0].tobytes()
        assert row.tobytes() == reference_embed(text).tobytes()


def test_empty_batch_has_no_rows():
    vecs = embed([])
    assert vecs.shape == (0, EMBED_DIM) and vecs.dtype == np.float64


def test_batch_of_empty_texts_gives_zero_rows():
    vecs = embed(["", "...", " "])
    assert vecs.shape == (3, EMBED_DIM) and vecs.dtype == np.float64
    assert not vecs.any()
