"""Task text to fixed-dimension state vectors.

The embedder is signed feature hashing over word unigrams and bigrams:
fully deterministic, dependency-free, and stable across processes (the hash is
keyed, not Python's randomized hash()).
"""

from __future__ import annotations

import functools
import hashlib
import re
from typing import Sequence

import numpy as np

EMBED_DIM = 384

_WORD_RE = re.compile(r"\w+")


# Task texts share most of their words and bigrams, so each token is hashed
# once while it stays among the 2**15 most recent. An entry holds about 270
# bytes plus its token's characters: about 9 MB when full of 24-character
# tokens.
@functools.lru_cache(maxsize=2**15)
def _signed_column(token: str) -> int:
    """The token's bucket for sign +1, or EMBED_DIM + its bucket for sign -1."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    h = int.from_bytes(digest, "big")
    return h % EMBED_DIM + (EMBED_DIM if h >> 63 else 0)


def embed(texts: Sequence[str]) -> np.ndarray:
    """Deterministic signed-hash embeddings, one L2-normalized row per text:
    shape (len(texts), EMBED_DIM).

    A row depends only on its own text, and identical text always yields a
    bitwise-identical row; a text with no word tokens yields a zero row.
    """
    columns: list[int] = []
    lengths: list[int] = []
    for text in texts:
        words = _WORD_RE.findall(text.lower())
        start = len(columns)
        columns.extend(map(_signed_column, words))
        columns.extend(map(_signed_column, map(" ".join, zip(words, words[1:]))))
        lengths.append(len(columns) - start)

    m = len(lengths)
    signed = np.fromiter(columns, dtype=np.intp, count=len(columns))
    negative = signed >= EMBED_DIM
    index = np.repeat(np.arange(m, dtype=np.intp) * EMBED_DIM, lengths) + signed - EMBED_DIM * negative
    # Every bucket is a sum of +-1.0, an exact integer in any order, so this
    # equals adding the signs one token at a time. bincount returns int64 when
    # the index is empty, whatever its weights.
    vec = np.bincount(index, weights=np.where(negative, -1.0, 1.0), minlength=m * EMBED_DIM)
    vec = vec.astype(np.float64, copy=False).reshape(m, EMBED_DIM)
    norms = np.sqrt(np.einsum("ij,ij->i", vec, vec))
    # A zero row divided by 1.0 stays zero; a boolean-mask divide would copy
    # the rows out and back, which took longer than the counting.
    vec /= np.where(norms > 0.0, norms, 1.0)[:, None]
    return vec
