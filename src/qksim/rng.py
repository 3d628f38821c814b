"""Counter-based random streams for order-independent, reproducible sampling.

Every random draw in the package goes through a stream keyed by
``(seed, role, i, j)``.  Streams with distinct keys are statistically
independent and never overlap, so matrix entries can be produced in any
order, or in parallel, with bitwise identical results.

``EntryStreams.binomial`` draws a whole array of entries with the bits of
one ``stream(seed, role, i, j).binomial(m, p)`` per entry.  It computes the
first Philox4x64-10 block of every stream at once (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC'11) and replays numpy's binomial on
those four doubles: inversion, or BTPE (Kachitvichyanukul & Schmeiser,
"Binomial random variate generation", CACM 31(2), 1988) with two attempts.
An entry the block cannot finish (an inversion restart, a third BTPE
attempt, BTPE Step 52 or a Step 50 product of more than 20 terms) is drawn
from its scalar stream.  Logarithms and exponentials come from ``math``, the
C library that numpy's binomial calls, never from numpy's SIMD ``log`` and
``exp``, which differ from it in the last bit on some inputs.
"""
from __future__ import annotations

import hashlib
import math
import operator

import numpy as np

_MASK64 = (1 << 64) - 1
SEED_LIMIT = 1 << 64  # seeds are in [0, 2**64), the range of the key's first word
_LOW32 = np.uint64(0xFFFFFFFF)
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)  # key bump per round
_CHUNK = 4096  # entries per array pass; bounds the temporaries' memory
_PRODUCT_TERMS = 20  # BTPE Step 50 terms multiplied out; beyond, Step 52 or scalar


def role_tag(role: str) -> int:
    """Stable 64-bit tag for a stream role name."""
    digest = hashlib.blake2b(role.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def stream_key(seed: int, role: str) -> tuple[int, int]:
    """The Philox key ``(seed, role_tag(role))`` of every ``(seed, role, *, *)``
    stream.  A seed outside ``[0, 2**64)`` is an error, not an alias of one
    inside."""
    seed = operator.index(seed)  # an int, never a float rounded to one
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return seed, role_tag(role)


def stream(seed: int, role: str, i: int = 0, j: int = 0) -> np.random.Generator:
    """Generator for the ``(seed, role, i, j)`` stream.

    Backed by the Philox counter-based bit generator: the key is
    :func:`stream_key` and the counter block holds (i, j), which wrap modulo
    2^64, leaving 2^64 draws of headroom inside each stream.
    """
    key = np.array(stream_key(seed, role), dtype=np.uint64)
    counter = np.array([0, i & _MASK64, j & _MASK64, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def philox_block(seed: int, role: str, i, j) -> np.ndarray:
    """The first four words of every ``stream(seed, role, i[k], j[k])``, shape (4, k).

    numpy bumps the counter before it fills its buffer, so this is the
    Philox4x64-10 block of counter ``(1, i, j, 0)`` under key
    ``stream_key(seed, role)``; indices wrap modulo 2^64 as in :func:`stream`.
    """
    k0, k1 = stream_key(seed, role)
    c1, c2 = _words(i), _words(j)
    c0, c3 = np.ones_like(c1), np.zeros_like(c1)
    for _ in range(10):
        hi0, lo0 = _mulhilo(c0, _PHILOX_M[0])
        hi1, lo1 = _mulhilo(c2, _PHILOX_M[1])
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ np.uint64(k1), lo0
        k0, k1 = (k0 + _PHILOX_W[0]) & _MASK64, (k1 + _PHILOX_W[1]) & _MASK64
    return np.stack((c0, c1, c2, c3))


def _words(v) -> np.ndarray:
    """Integers modulo 2^64 as a flat uint64 array."""
    if isinstance(v, np.ndarray) and v.dtype.kind in "iu":
        return v.astype(np.uint64).ravel()
    return np.array([int(x) & _MASK64 for x in v], dtype=np.uint64)


def _mulhilo(a: np.ndarray, b: np.uint64) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of each 128-bit product ``a * b``, built from 32-bit
    halves in place: ``hi = ah*bh + (al*bh >> 32) + (ah*bl >> 32) + carry``."""
    b_lo, b_hi = b & _LOW32, b >> 32
    lo = a * b
    a_lo, hi = a & _LOW32, a >> 32
    lh, hl = a_lo * b_hi, hi * b_lo
    hi *= b_hi
    hi += lh >> 32
    hi += hl >> 32
    a_lo *= b_lo  # the carry out of the middle 64 bits
    a_lo >>= 32
    a_lo += lh & _LOW32
    a_lo += hl & _LOW32
    a_lo >>= 32
    hi += a_lo
    return hi, lo


class EntryStreams:
    """Cursor over the ``(seed, role, *, *)`` stream family for tight loops.

    ``at(i, j)`` yields draws bitwise identical to ``stream(seed, role, i,
    j)``: it writes ``(i, j)`` into one counter array and hands one state dict
    to the ``Philox.state`` setter, which copies it: no per-entry dict or array.
    Each sampler builds its own instance for the kernel it draws; the cursor
    state is mutable, so an instance is never shared between threads.
    """

    def __init__(self, seed: int, role: str):
        self._seed, self._role = seed, role
        key = np.array(stream_key(seed, role), dtype=np.uint64)
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

    def binomial(self, m: int, p, i, j) -> np.ndarray:
        """``at(i[k], j[k]).binomial(m, p[k])`` for every k, bit for bit, as int64.

        ``m`` is a shot count in ``[1, 2**63 - 1]`` and ``p`` holds
        probabilities in ``[0, 1]``; callers check both.
        """
        p = np.asarray(p, dtype=float).ravel()
        out = np.empty(p.size, dtype=np.int64)
        for start in range(0, p.size, _CHUNK):
            part = slice(start, start + _CHUNK)
            ip, jp, pp = _words(i[part]), _words(j[part]), p[part]
            words = philox_block(self._seed, self._role, ip, jp)
            draws, left = _binomial_block(m, pp, (words >> 11) * 2.0**-53)
            for k, unfinished in enumerate(left.tolist()):
                if unfinished:
                    draws[k] = self.at(int(ip[k]), int(jp[k])).binomial(m, pp[k])
            out[part] = draws
        return out


def _binomial_block(m: int, p: np.ndarray, u: np.ndarray):
    """numpy's ``random_binomial(m, p)`` run on each entry's four doubles ``u``.

    Returns the draws and the mask of entries left unfinished.  As numpy
    does, ``p > 0.5`` draws ``m - X`` with ``X`` at ``1 - p``, and inversion
    runs when that rate times ``m`` is at most 30, BTPE otherwise.  Both run
    over the whole block and masks pick their results, so every array of the
    pass has the block's size: numpy caches freed buffers under 1 KiB, and
    subsets of ever-changing small sizes would stay allocated all over the heap.
    """
    n = float(m)
    flip = p > 0.5
    r = np.where(flip, 1.0 - p, p)
    btpe = r * n > 30.0
    draws, left = _inversion(m, r, u[0], ~btpe)
    if btpe.any():  # then m > 60, and rate 0.5 is a valid BTPE input elsewhere
        y, unfinished = _btpe(m, np.where(btpe, r, 0.5), u, btpe)
        draws = np.where(btpe, y, draws)
        left = np.where(btpe, unfinished, left)
    return np.where(flip, m - draws, draws), left


def _inversion(m: int, p: np.ndarray, u: np.ndarray, mask: np.ndarray):
    """numpy's ``random_binomial_inversion`` on one uniform per ``mask`` entry;
    an entry whose walk passes its bound would restart on a fresh uniform and
    is left.  The walk starts at ``(1 - p)**m``, which numpy computes as
    ``exp(m * log1p(-p))``; at ``p == 0`` that is 1 and the draw is 0."""
    n = float(m)
    q = 1.0 - p
    px = _libm(math.exp, n * _libm(math.log1p, -p))
    mean = n * p
    bound = np.minimum(n, mean + 10.0 * np.sqrt(mean * q + 1.0)).astype(np.int64)
    x = np.zeros(p.size, dtype=np.int64)
    u = u.copy()  # walked down in place
    walk = mask & (u > px)
    while walk.any():
        x += walk
        walk &= x <= bound
        np.subtract(u, px, out=u, where=walk)
        np.divide((m - x + 1) * p * px, x * q, out=px, where=walk)
        walk &= u > px
    return x, x > bound


def _btpe(m: int, r: np.ndarray, u: np.ndarray, mask: np.ndarray):
    """numpy's ``random_binomial_btpe`` for ``r <= 0.5`` at each ``mask`` entry,
    attempts on doubles 0-1 and 2-3.  Set-up uses only IEEE arithmetic,
    ``sqrt`` and ``floor``; each step runs over all entries under a mask."""
    n = float(m)
    q = 1.0 - r
    fm = n * r + r
    mode = np.floor(fm)
    p1 = np.floor(2.195 * np.sqrt(n * r * q) - 4.6 * q) + 0.5
    xm = mode + 0.5
    xl, xr = xm - p1, xm + p1
    c = 0.134 + 20.5 / (15.3 + mode)
    a = (fm - xl) / (fm - xl * r)
    laml = a * (1.0 + a / 2.0)
    a = (xr - fm) / (xr * q)
    lamr = a * (1.0 + a / 2.0)
    p2 = p1 * (1.0 + 2.0 * c)
    p3 = p2 + c / laml
    p4 = p3 + c / lamr
    s = r / q
    a = s * float((m + 1 + 2**63) % 2**64 - 2**63)  # C's int64 n + 1 wraps at 2**63 - 1

    y = np.zeros(r.size)
    todo = mask
    done = np.zeros(r.size, dtype=bool)
    for draw in (0, 2):
        uu, v = u[draw] * p4, u[draw + 1]
        log_v = _libm(math.log, np.where(v > 0.0, v, 1.0))  # v == 0 is rejected
        x = xl + (uu - p1) / c
        # Steps 10, 20, 30 and 40: the triangle, parallelogram and two tails
        yk = np.select(
            [uu <= p1, uu <= p2, uu <= p3],
            [np.floor(xm - p1 * v + uu), np.floor(x), np.floor(xl + log_v / laml)],
            np.floor(xr - log_v / lamr),
        )
        vk = np.select(
            [uu <= p2, uu <= p3],
            [v * c + 1.0 - np.abs(mode - x + 0.5) / p1, v * (uu - p2) * laml],
            v * (uu - p3) * lamr,
        )
        # rejections: v > 1 in the parallelogram; v == 0 or y off [0, n] in a
        # tail (the left tail never exceeds n and the right never drops below 0)
        tested = (uu > p1) & np.where(
            uu <= p2, vk <= 1.0, (v > 0.0) & (yk >= 0.0) & (yk <= n)
        )
        # Step 50 multiplies out |y - mode| <= 20 terms; Step 52, or a longer
        # product, is left to the scalar path
        d = np.where(tested, yk - mode, 0.0)
        far = np.abs(d) > _PRODUCT_TERMS
        d = np.where(far, 0.0, d)
        low = np.where(d > 0.0, mode, mode + d)  # the product runs up from min(y, mode)
        f = np.ones(r.size)
        for t in range(1, int(np.max(np.abs(d), initial=0.0)) + 1):
            term = a / (low + t) - s
            np.multiply(f, term, out=f, where=d >= t)
            np.divide(f, term, out=f, where=-d >= t)
        accept = todo & ((uu <= p1) | (tested & ~far & (vk <= f)))
        y = np.where(accept, yk, y)
        done |= accept
        todo = todo & ~accept & ~far
    return y.astype(np.int64), ~done


def _libm(f, v: np.ndarray) -> np.ndarray:
    """``f`` (a ``math`` function, so the C library's) at every entry of ``v``."""
    return np.fromiter(map(f, v.tolist()), dtype=float, count=v.size)
