"""Counter-based random streams for order-independent, reproducible sampling.

Every random draw in the package goes through a stream keyed by
``(seed, role, i, j)``.  Streams with distinct keys are statistically
independent and never overlap, so matrix entries can be produced in any
order, or in parallel, with bitwise identical results.
"""
from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


def role_tag(role: str) -> int:
    """Stable 64-bit tag for a stream role name."""
    digest = hashlib.blake2b(role.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def stream(seed: int, role: str, i: int = 0, j: int = 0) -> np.random.Generator:
    """Generator for the ``(seed, role, i, j)`` stream.

    Backed by the Philox counter-based bit generator: the key holds
    (seed, role tag) and the counter block holds (i, j), leaving 2^64
    draws of headroom inside each stream.
    """
    key = np.array([seed & _MASK64, role_tag(role)], dtype=np.uint64)
    counter = np.array([0, i & _MASK64, j & _MASK64, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


class EntryStreams:
    """Cursor over the ``(seed, role, *, *)`` stream family for tight loops.

    ``at(i, j)`` yields draws bitwise identical to ``stream(seed, role, i,
    j)``: it writes ``(i, j)`` into one counter array and hands one state dict
    to the ``Philox.state`` setter, which copies it: no per-entry dict or array.
    Instances hold mutable cursor state: one per worker, never shared.
    """

    def __init__(self, seed: int, role: str):
        key = np.array([seed & _MASK64, role_tag(role)], dtype=np.uint64)
        self._bit_gen = np.random.Philox(key=key)
        self._gen = np.random.Generator(self._bit_gen)
        self._state = self._bit_gen.state
        self._state.update(buffer_pos=4, has_uint32=0, uinteger=0)  # nothing buffered
        self._counter = self._state["state"]["counter"]  # words 0 and 3 stay 0

    def at(self, i: int = 0, j: int = 0) -> np.random.Generator:
        self._counter[1] = i & _MASK64
        self._counter[2] = j & _MASK64
        self._bit_gen.state = self._state
        return self._gen
