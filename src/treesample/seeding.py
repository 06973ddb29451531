"""Seeds, counts, probabilities, choices, and the random streams derived from a master seed.

A seed is a str or a Python int >= 0, a count a Python int >= 1, a
probability an int or float in [0, 1] or (0, 1] and a choice (a task or a
tie-break mode) a member of its Enum; this module checks all four for the
whole package without loading numpy, which loads with the first stream
derived. Every Generator comes from `derive_rng`, keyed by (master
seed, *keys) and never by scheduling order, so results are pure functions of
their inputs (`--jobs N` is byte-identical for any N). A batch of draws, such
as every run of one distribution, comes from one Generator.

The stream of (root, *keys) is numpy's `SeedSequence([root, *keys])`, with a
str key replaced by the int of its 8-byte blake2s digest (big-endian). The
entropy is handed to numpy as the uint32 words numpy would make of that list:
each key split into 32-bit words, low word first, 0 as one word. That skips
numpy's per-int coercion, and a label's words are computed once per process.
"""

from __future__ import annotations

import hashlib
from enum import Enum
from functools import lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np
_MASK32 = 0xFFFFFFFF


def check_seed(seed: int | str) -> None:
    """Refuse a seed or key that is not a str or a Python int >= 0 (a bool, float or numpy int)."""
    if not isinstance(seed, str) and (type(seed) is not int or seed < 0):
        raise ValueError(f"seed keys must be strings or non-negative ints, got {seed!r}")


def positive_int(value: int, message: str) -> None:
    """Refuse a count that is not a Python int >= 1 (a bool, float or numpy int)."""
    if type(value) is not int or value < 1:
        raise ValueError(f"{message}, got {value!r}")


def probability(value: float, name: str, *, allow_zero: bool = True) -> None:
    """Refuse a probability that is not an int or float (a bool or a str, say)
    in [0, 1], or in (0, 1] without allow_zero; NaN is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
        0 <= value <= 1 and (allow_zero or value > 0)
    ):
        interval = "[0, 1]" if allow_zero else "(0, 1]"
        raise ValueError(f"{name} must lie in {interval}, got {value!r}")


def member(value: Enum, kind: type[Enum], name: str) -> None:
    """Refuse a value that is not a member of kind (its str value, say)."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be one of {', '.join(map(str, kind))}, got {value!r}")


def _split(value: int) -> list[int]:
    """value's 32-bit words, low first; 0 is one word."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


@lru_cache(maxsize=1024)
def _label_words(label: str) -> tuple[int, ...]:
    digest = hashlib.blake2s(label.encode("utf-8"), digest_size=8).digest()
    return tuple(_split(int.from_bytes(digest, "big")))


def _key_words(key: int | str) -> list[int] | tuple[int, ...]:
    check_seed(key)
    return _label_words(key) if isinstance(key, str) else _split(key)


def _sequence(root: int, keys: tuple[int | str, ...]) -> np.random.SeedSequence:
    import numpy as np
    words = [word for key in (root, *keys) for word in _key_words(key)]
    return np.random.SeedSequence(np.array(words, dtype=np.uint32))


def derive_seed(root: int, *keys: int | str) -> int:
    """Return a 64-bit sub-seed for the stream identified by keys: its first
    two state words as numpy's uint64 view reads them, low word first."""
    low, high = _sequence(root, keys).generate_state(2).tolist()
    return low | high << 32


def derive_rng(root: int, *keys: int | str) -> np.random.Generator:
    """Return a Generator for the stream identified by keys; default_rng(root) for none."""
    import numpy as np
    return np.random.Generator(np.random.PCG64(_sequence(root, keys)))
