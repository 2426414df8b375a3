"""Deterministic, order-independent random streams.

Every stochastic piece of the simulator draws from its own stream keyed by
(master_seed, context ints/tags) so results never depend on evaluation
order, thread scheduling, or how many draws other components made.
"""

from __future__ import annotations

import zlib

import numpy as np


def tag_id(tag: str) -> int:
    """Stable 32-bit integer for a component tag string."""
    return zlib.crc32(tag.encode("utf-8"))


def _key_words(master_seed: int, key: tuple) -> list[int]:
    words = [int(master_seed) & 0xFFFFFFFFFFFFFFFF]
    for part in key:
        words.append(tag_id(part) if isinstance(part, str) else int(part))
    return words


def stream(master_seed: int, *key) -> np.random.Generator:
    """Generator for the stream keyed by (master_seed, *key).

    Key parts may be ints (stripe/node/ue indices) or strings (component
    tags); strings are hashed with CRC32 so the key is reproducible across
    runs and platforms. The bit generator is named, not left to
    `default_rng`, so the streams stay PCG64 whatever numpy's default.
    """
    seeds = np.random.SeedSequence(_key_words(master_seed, key))
    return np.random.Generator(np.random.PCG64(seeds))


def derive_seed(master_seed: int, *key) -> int:
    """Stable 63-bit sub-seed, e.g. one per sweep cell."""
    ss = np.random.SeedSequence(_key_words(master_seed, key))
    return int(ss.generate_state(1, np.uint64)[0] >> np.uint64(1))
