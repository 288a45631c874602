"""Task text to fixed-dimension state vectors.

The embedder is signed feature hashing over word unigrams and bigrams:
fully deterministic, dependency-free, and stable across processes (the hash is
keyed, not Python's randomized hash()).
"""

from __future__ import annotations

import functools
import hashlib
import re

import numpy as np

EMBED_DIM = 384

_WORD_RE = re.compile(r"\w+")


# Task texts share most of their words and bigrams, so each token is hashed
# once while it stays among the 2**15 most recent. An entry holds about 270
# bytes plus its token's characters: about 9 MB when full of 24-character
# tokens.
@functools.lru_cache(maxsize=2**15)
def _bucket_and_sign(token: str, dim: int) -> tuple[int, float]:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    h = int.from_bytes(digest, "big")
    return h % dim, 1.0 if (h >> 63) & 1 == 0 else -1.0


def embed(text: str, dim: int = EMBED_DIM) -> np.ndarray:
    """Deterministic signed-hash embedding, L2-normalized.

    Identical text always yields a bitwise-identical vector; empty text (no
    word tokens) yields the zero vector.
    """
    vec = np.zeros(dim, dtype=np.float64)
    words = _WORD_RE.findall(text.lower())
    tokens = words + [f"{a} {b}" for a, b in zip(words, words[1:])]
    for token in tokens:
        bucket, sign = _bucket_and_sign(token, dim)
        vec[bucket] += sign
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec /= norm
    return vec

