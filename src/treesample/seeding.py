"""Seeds, counts, and the random streams derived from a master seed.

A seed is a str or a Python int >= 0 and a count a Python int >= 1; this
module checks both for the whole package. Every Generator comes from
`derive_rng`, whose sub-streams are derived from (master seed, *keys) so that
results are pure functions of their inputs and independent of scheduling
order (`--jobs N` must be byte-identical for any N).
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


def positive_int(value: int, message: str) -> None:
    """Refuse a count that is not a Python int >= 1 (a bool, float or numpy int)."""
    if type(value) is not int or value < 1:
        raise ValueError(f"{message}, got {value!r}")


def _sequence(root: int, keys: tuple[int | str, ...]) -> np.random.SeedSequence:
    return np.random.SeedSequence([_key_word(root), *map(_key_word, keys)])


def derive_seed(root: int, *keys: int | str) -> int:
    """Return a 64-bit sub-seed for the stream identified by keys."""
    return int(_sequence(root, keys).generate_state(1, np.uint64)[0])


def derive_rng(root: int, *keys: int | str) -> np.random.Generator:
    """Return a Generator for the stream identified by keys; default_rng(root) for none."""
    return np.random.default_rng(_sequence(root, keys))
