"""Deterministic derivation of independent random streams from a master seed.

Every stochastic operation in the package takes either an explicit seed or a
Generator built here. Sub-streams are derived from (master seed, *keys) so that
results are pure functions of their inputs and independent of scheduling order
(`--jobs N` must be byte-identical for any N).
"""

from __future__ import annotations

import hashlib

import numpy as np


def _key_word(key: int | str) -> int:
    """Map a label, a str or a Python int >= 0, to a non-negative entropy word."""
    if isinstance(key, str):
        digest = hashlib.blake2s(key.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big")
    if type(key) is not int or key < 0:
        raise ValueError(f"seed keys must be strings or non-negative ints, got {key!r}")
    return key


def derive_seed(root: int, *keys: int | str) -> int:
    """Return a 64-bit sub-seed for the stream identified by keys."""
    seq = np.random.SeedSequence([_key_word(root), *(_key_word(k) for k in keys)])
    return int(seq.generate_state(1, np.uint64)[0])


def derive_rng(root: int, *keys: int | str) -> np.random.Generator:
    """Return a Generator for the stream identified by keys."""
    seq = np.random.SeedSequence([_key_word(root), *(_key_word(k) for k in keys)])
    return np.random.default_rng(seq)
