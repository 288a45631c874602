import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from budgetagents.embedder import EMBED_DIM, embed


def test_empty_text_is_zero_vector():
    vec = embed("").values
    assert vec.shape == (EMBED_DIM,)
    assert np.all(vec == 0.0)


def test_punctuation_only_is_zero_vector():
    assert np.all(embed("...!?").values == 0.0)


def test_determinism_bitwise():
    a = embed("Solve for x: 2x + 3 = 11").values
    b = embed("Solve for x: 2x + 3 = 11").values
    assert a.tobytes() == b.tobytes()


def test_unit_norm():
    vec = embed("a grade school math word problem about apples").values
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-9


@given(st.text(max_size=200))
def test_dimension_constant_and_norm_in_unit_set(text):
    vec = embed(text).values
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
    vectors = {s: embed(s).values for s in sentences}
    sentences = sorted(sentences)
    for i in range(len(sentences)):
        for j in range(i + 1, len(sentences)):
            cos = float(vectors[sentences[i]] @ vectors[sentences[j]])
            assert cos < 1.0 - 1e-12


def test_word_order_matters_via_bigrams():
    assert not np.array_equal(embed("alpha beta gamma").values, embed("gamma beta alpha").values)

