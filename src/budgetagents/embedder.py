"""Task text to fixed-dimension state vectors.

The embedder is signed feature hashing over word unigrams and bigrams:
fully deterministic, dependency-free, and stable across processes (the hash is
keyed, not Python's randomized hash()).
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field

import numpy as np

EMBED_DIM = 384

_WORD_RE = re.compile(r"\w+")


@dataclass(frozen=True, eq=False)
class TaskEmbedding:
    values: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return int(self.values.shape[0])


def _bucket_and_sign(token: str, dim: int) -> tuple[int, float]:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    h = int.from_bytes(digest, "big")
    return h % dim, 1.0 if (h >> 63) & 1 == 0 else -1.0


def embed(text: str, dim: int = EMBED_DIM) -> TaskEmbedding:
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
    return TaskEmbedding(values=vec)

