"""Counter-based random streams for order-independent, reproducible sampling.

Every random draw in the package goes through a stream keyed by
``(seed, role, i, j)``.  Streams with distinct keys are statistically
independent and never overlap, so matrix entries can be produced in any
order, or in parallel, with bitwise identical results.

An ``EntryStreams`` family is bound to its entries, and its ``binomial``
draws them all with the bits of one ``stream(seed, role, i, j).binomial(m,
p)`` per entry; no entry is drawn from a scalar stream.  The entries split
into two groups by the algorithm numpy's binomial takes, inversion or BTPE
(Kachitvichyanukul & Schmeiser, CACM 31(2), 1988), and each group's is
replayed on its Philox4x64-10 blocks (Salmon et al., SC'11) as its C code
reads, each step a pass over a chunk of one group: BTPE's masked to the
entries still attempting, inversion's unmasked (a stopped walk is never read
again), and Step 50's product one ``reduceat`` fold per run of terms.  Block 1
depends on neither ``m`` nor ``p``: the family makes its doubles once, so a
sweep cell draws it once per role.  ``log`` and ``exp`` come from ``math``, the
C library numpy's binomial calls, never from numpy's SIMD versions, which
differ from it in the last bit on some inputs.
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
_MIN_LIVE = 128  # fewest entries gathered into new arrays: 1 KiB of float64
_PART = 2048  # slots of Step 50's terms laid out at once; bounds their memory


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


def philox_block(seed: int, role: str, i, j, block=1) -> np.ndarray:
    """Words ``4 (block - 1)`` to ``4 block - 1`` of every ``stream(seed, role,
    i[k], j[k])``, shape (4, k), ``block`` being one number or one per stream:
    numpy bumps the counter before it fills its buffer, so this is the
    Philox4x64-10 block of counter ``(block, i, j, 0)`` under key
    ``stream_key(seed, role)``; indices wrap as in :func:`stream`."""
    k0, k1 = stream_key(seed, role)
    c1, c2 = _words(i), _words(j)
    c0, c3 = np.zeros_like(c1) + np.asarray(block, dtype=np.uint64), np.zeros_like(c1)
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
    """High and low words of each 128-bit product ``a * b``, from 32-bit
    halves: ``hi = ah*bh + (t >> 32) + ((t % 2**32 + al*bh) >> 32)`` with
    ``t = (al*bl >> 32) + ah*bl``."""
    b_lo, b_hi = b & _LOW32, b >> 32
    lo = a * b
    a_lo, a_hi = a & _LOW32, a >> 32
    t = a_lo * b_lo
    t >>= 32
    t += a_hi * b_lo  # no partial sum exceeds 64 bits
    hi = a_hi * b_hi
    hi += t >> 32
    t &= _LOW32
    t += a_lo * b_hi
    t >>= 32
    hi += t
    return hi, lo


class EntryStreams:
    """The ``(seed, role, i[k], j[k])`` streams of fixed entries, drawn a kernel
    at a time in array passes; block 1's doubles, read by round 1, made once."""

    def __init__(self, seed: int, role: str, i, j):
        stream_key(seed, role)  # a bad seed fails here, before any draw
        i, j = np.asarray(i), np.asarray(j)
        if i.ndim != 1 or j.shape != i.shape:
            raise ValueError(f"i and j must be 1-D of one length, got {i.shape}, {j.shape}")
        self.seed, self.role, self.i, self.j = seed, role, i, j
        self._first = _uniforms(seed, role, i, j, 1)

    def binomial(self, m: int, p) -> np.ndarray:
        """``stream(seed, role, i[k], j[k]).binomial(m, p[k])`` for every k, as
        int64, ``m`` in ``[1, 2**63 - 1]`` and ``p`` in ``[0, 1]`` (callers check
        both).  Round ``k`` of a group reads block ``k`` of its open entries."""
        p, i, j = np.asarray(p, dtype=float).ravel(), self.i, self.j
        if p.size != i.size:
            raise ValueError(f"{i.size} entries take {i.size} rates, got {p.size}")
        x = np.full(p.size, -1, dtype=np.int64)  # -1 while open
        btpe = np.minimum(p, 1.0 - p) * float(m) > 30.0  # numpy's rule, else inversion
        for draw, live in ((_inversion, np.flatnonzero(~btpe)), (_btpe, np.flatnonzero(btpe))):
            block = 1  # a group's rounds and chunks all run its one algorithm
            while live.size:
                for start in range(0, live.size, _CHUNK):
                    at = live[start : start + _CHUNK]
                    u = self._first[:, at] if block == 1 else _uniforms(
                        self.seed, self.role, i[at], j[at], block
                    )
                    q = p[at]
                    r = np.where(q > 0.5, 1.0 - q, q)  # numpy draws at rate min(p, 1 - p)
                    got = draw(m, r, u, np.ones(at.size, dtype=bool))  # -1 where u runs out
                    x[at] = got if block == 1 else np.where(x[at] < 0, got, x[at])
                live, block = live[_padded(x[live] < 0)], block + 1
        return np.where(p > 0.5, m - x, x)  # as numpy does: X drawn at rate 1 - p


def _uniforms(seed: int, role: str, i: np.ndarray, j: np.ndarray, block) -> np.ndarray:
    """numpy's doubles ``(philox_block(seed, role, i, j, block) >> 11) * 2**-53``,
    shape (4, k), made by chunks into one array."""
    out = np.empty((4, i.size))
    for at in (slice(s, s + _CHUNK) for s in range(0, i.size, _CHUNK)):
        out[:, at] = philox_block(seed, role, i[at], j[at], block) >> 11
    return np.multiply(out, 2.0**-53, out=out)


def _padded(live: np.ndarray) -> np.ndarray:
    """``live`` and the first finished entries, to a multiple of ``_MIN_LIVE`` (or
    all): numpy caches freed buffers under 1 KiB, which would pin the heap."""
    return live | (np.cumsum(~live) <= -np.count_nonzero(live) % _MIN_LIVE)


def _inversion(m: int, p: np.ndarray, u4: np.ndarray, todo: np.ndarray) -> np.ndarray:
    """numpy's ``random_binomial_inversion`` at each ``todo`` entry; the walk
    starts at ``(1 - p)**m`` as numpy computes it, ``exp(m * log1p(-p))``.  A
    walk past its bound restarts on the next double; -1 once ``u4`` is spent."""
    n = float(m)
    mean = n * p
    limit = np.minimum(n, mean + 10.0 * np.sqrt(mean * (1.0 - p) + 1.0)).astype(np.int64)
    out, q, u = np.zeros(p.size, dtype=np.int64), 1.0 - p, u4[0].copy()  # u walks down in place
    px = _libm(math.exp, n * _libm(math.log1p, -p, todo), todo)
    walk, x = todo & (u > px), 0  # every walking entry is at x
    with np.errstate(all="ignore"):  # a stopped walk's u and px, never read again
        while walk.any():
            x += 1
            out += walk
            walk &= limit >= x
            u -= px
            px = (m - x + 1) * p * px / (x * q)  # x and m - x + 1 exact as Python ints
            walk &= u > px
    restart = todo & (out > limit)
    if restart.any():
        again = _inversion(m, p, u4[1:], restart) if len(u4) > 1 else -1
        out = np.where(restart, again, out)
    return out


def _btpe(m: int, r: np.ndarray, u4: np.ndarray, todo: np.ndarray) -> np.ndarray:
    """numpy's ``random_binomial_btpe`` for ``r <= 0.5`` at each ``todo`` entry,
    attempts on doubles 0-1 and 2-3; set-up uses only IEEE arithmetic."""
    n, q = float(m), 1.0 - r
    fm = n * r + r
    mode, nrq = np.floor(fm), n * r * q
    p1 = np.floor(2.195 * np.sqrt(nrq) - 4.6 * q) + 0.5
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
    a = s * float((m + 1 + 2**63) % 2**64 - 2**63)  # C's int64 n + 1 wraps
    y = np.full(r.size, -1.0)
    for draw in (0, 2):
        uu, v = u4[draw] * p4, u4[draw + 1]
        tri = todo & (uu <= p1)  # Step 10: the triangle accepts at once
        y, todo = np.where(tri, np.floor(xm - p1 * v + uu), y), todo & ~tri
        log_v = _libm(math.log, v, todo & (uu > p2) & (v > 0.0))  # v == 0 is rejected
        x = xl + (uu - p1) / c
        # Steps 20, 30 and 40: the parallelogram and the two tails
        para, left = uu <= p2, uu <= p3
        yk = np.floor(np.where(para, x, np.where(left, xl + log_v / laml, xr - log_v / lamr)))
        vk = np.where(
            para, v * c + 1.0 - np.abs(mode - x + 0.5) / p1,
            np.where(left, v * (uu - p2) * laml, v * (uu - p3) * lamr),
        )
        # rejections: v > 1 in the parallelogram; v == 0 or y off [0, n] in a
        # tail (the left tail never exceeds n and the right never drops below 0)
        tested = todo & np.where(para, vk <= 1.0, (v > 0.0) & (yk >= 0.0) & (yk <= n))
        d = np.where(tested, yk - mode, 0.0)
        k = np.abs(d)
        far = tested & (k > 20.0) & (k < nrq / 2.0 - 1.0)  # Step 52, else Step 50
        near = tested & ~far
        accept = near & (vk <= _product(a, s, np.where(d > 0.0, mode, mode + d), d, near))
        if far.any():
            accept |= _step52(m, r, q, mode, xm, nrq, yk, vk, k, far)
        y, todo = np.where(accept, yk, y), todo & ~accept
    return y.astype(np.int64)


def _product(a, s, low, d, live) -> np.ndarray:
    """BTPE Step 50's ``F`` at each ``live`` entry, 1 elsewhere: the ``|d|`` terms
    ``a / i - s``, ``i`` running up from ``low + 1``, multiplied when ``d > 0``
    and divided when ``d < 0``, in numpy's order.  Each entry's terms lie in one
    run behind a leading 1.0, which ``reduceat`` folds left to right, exactly;
    the runs are laid out in parts of about ``_PART`` slots.  No array here is
    under 1 KiB (see ``_padded``): fewer than ``_MIN_LIVE`` runs are padded
    with runs of no term, and a part holds ``_MIN_LIVE`` runs at least (or all)."""
    out = np.ones(d.size)
    for fold, run in ((np.multiply, live & (d > 0.0)), (np.divide, live & (d < 0.0))):
        at = np.flatnonzero(_padded(run) if np.count_nonzero(run) < _MIN_LIVE else run)
        a_at, s_at, low_at = a.take(at), s.take(at), low.take(at)
        size = (np.abs(d.take(at)) * run.take(at)).astype(np.int64) + 1  # padding: 1.0
        end = np.cumsum(size)
        start, lo = end - size, 0
        while lo < at.size:  # runs lo to hi - 1, leaving none or _MIN_LIVE at least
            base = start[lo]
            hi = lo + max(_MIN_LIVE, int(np.searchsorted(end, base + _PART, side="right")) - lo)
            hi = at.size if at.size - hi < _MIN_LIVE else hi
            n, first = size[lo:hi], start[lo:hi] - base  # each run's leading slot
            i = np.arange(end[hi - 1] - base)
            i -= np.repeat(first, n)  # 0 at the leading slots
            term = np.repeat(low_at[lo:hi], n)
            term += i  # low + i, as numpy adds them
            del i  # two arrays of the part alive at most
            with np.errstate(divide="ignore"):  # a leading slot's low may be 0
                np.divide(np.repeat(a_at[lo:hi], n), term, out=term)
            term -= np.repeat(s_at[lo:hi], n)
            term[first] = 1.0
            out[at[lo:hi]] *= fold.reduceat(term, first)  # 1.0 * F is F
            lo = hi
    return out


def _step52(m: int, r, q, mode, xm, nrq, y, v, k, live) -> np.ndarray:
    """BTPE Step 52 at each ``live`` entry, ``y`` being ``k`` from the mode: accept
    when ``A = log(v)`` is below the squeeze, or in it and not above the
    Stirling-series bound.  As in numpy 2.4.6, ``-k * k`` is an int64 product,
    which wraps, and ``z`` and ``w`` are formed from ``n`` as a double."""
    n = float(m)
    keep, accept = np.flatnonzero(_padded(live)), np.zeros(live.size, dtype=bool)
    r, q, mode, xm, nrq = (a.take(keep) for a in (r, q, mode, xm, nrq))
    y, v, k, live = y.take(keep), v.take(keep), k.take(keep), live.take(keep)
    rho = (k / nrq) * ((k * (k / 3.0 + 0.625) + 0.1666666666666) / nrq + 0.5)
    t = (-k.astype(np.int64) * k.astype(np.int64)) / (2.0 * nrq)
    big_a = np.where(v > 0.0, _libm(math.log, v, live & (v > 0.0)), -np.inf)  # log(0)
    squeezed = live & (big_a >= t - rho) & (big_a <= t + rho)
    y = np.where(squeezed, y, mode)  # keeps every log's argument positive
    f1, x1, z, w = e = np.stack((mode + 1.0, y + 1.0, n + 1.0 - mode, n - y + 1.0))
    e2 = e * e
    e = (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / e2) / e2) / e2) / e2) / e / 166320.0
    bound = (
        xm * _libm(math.log, f1 / x1, squeezed)
        + ((m - mode.astype(np.int64)) + 0.5) * _libm(math.log, z / w, squeezed)
        + (y - mode) * _libm(math.log, w * r / (x1 * q), squeezed)
        + e[0] + e[1] + e[2] + e[3]
    )
    accept[keep] = live & ((big_a < t - rho) | (squeezed & ~(big_a > bound)))
    return accept


def _libm(f, v: np.ndarray, where: np.ndarray) -> np.ndarray:
    """``f`` (a ``math`` function: the C library's) where ``where``, else f(1) or 0."""
    keep, out = np.flatnonzero(_padded(where)), np.zeros(v.size)
    picked = memoryview(np.where(where, v, 1.0).take(keep))  # Python floats, no list
    out[keep] = np.fromiter(map(f, picked), dtype=float, count=keep.size)
    return out
