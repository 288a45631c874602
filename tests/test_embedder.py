import hashlib
import re

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from budgetagents.embedder import EMBED_DIM, _bucket_and_sign, embed


def test_empty_text_is_zero_vector():
    vec = embed("")
    assert vec.shape == (EMBED_DIM,)
    assert np.all(vec == 0.0)


def test_punctuation_only_is_zero_vector():
    assert np.all(embed("...!?") == 0.0)


def test_determinism_bitwise():
    a = embed("Solve for x: 2x + 3 = 11")
    b = embed("Solve for x: 2x + 3 = 11")
    assert a.tobytes() == b.tobytes()


def test_unit_norm():
    vec = embed("a grade school math word problem about apples")
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-9


@given(st.text(max_size=200))
def test_dimension_constant_and_norm_in_unit_set(text):
    vec = embed(text)
    assert vec.shape == (EMBED_DIM,)
    norm = np.linalg.norm(vec)
    assert norm == 0.0 or abs(norm - 1.0) < 1e-9


def test_distinct_sentences_not_identical():
    rng = np.random.default_rng(5)
    words = ["apple", "train", "budget", "seven", "price", "agent", "plan", "vote", "token", "cost"]
    sentences = {
        " ".join(rng.choice(words, size=rng.integers(4, 10)).tolist()) + f" id{i}"
        for i in range(100)
    }
    vectors = {s: embed(s) for s in sentences}
    sentences = sorted(sentences)
    for i in range(len(sentences)):
        for j in range(i + 1, len(sentences)):
            cos = float(vectors[sentences[i]] @ vectors[sentences[j]])
            assert cos < 1.0 - 1e-12


def test_word_order_matters_via_bigrams():
    assert not np.array_equal(embed("alpha beta gamma"), embed("gamma beta alpha"))


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
        for text in texts:
            assert embed(text).tobytes() == reference_embed(text).tobytes()
    assert _bucket_and_sign.cache_info().hits > 0


def test_token_cache_is_bounded():
    assert _bucket_and_sign.cache_info().maxsize is not None
