"""Scrambled Sobol points for the randomized quasi-Monte Carlo estimators.

The Sobol sequence in up to :data:`MAX_DIM` dimensions, from the Joe-Kuo
direction numbers (S. Joe and F. Y. Kuo, "Constructing Sobol sequences with
better two-dimensional projections", SIAM J. Sci. Comput. 30, 2008), with
52-bit digits.  A scramble is a random linear matrix scramble (a random
lower-triangular binary matrix with unit diagonal applied to every
direction number) followed by a random digital shift, both drawn from the
caller's ``numpy.random.Generator``.  Each scrambled point is uniform on
the 52-bit grid, and the first 2^k points of every coordinate still hold
one point in each interval of width 2^-k (Owen 1995; Matousek 1998), so
the mean over independent scrambles is an unbiased estimate whose spread
gives its standard error.

Point ``k`` on the grid is returned as the float ``(k + 1/2) 2^-52``, so
no inverse transform ever sees 0 or 1.  The samplers take the coordinates
of a block of points as explicit uniform columns, one per uniform they
transform.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MAX_DIM", "ScrambledSobol"]

#: Dimensions with embedded direction numbers.
MAX_DIM = 32
_BITS = 52
_ONE = np.float64(1.0).view(np.uint64)

# Joe-Kuo primitive polynomials of dimensions 2..32 (leading and trailing
# coefficient included, so the degree is bit_length - 1) and their initial
# direction numbers m_1..m_degree; dimension 1 is the van der Corput sequence.
_POLY = (3, 7, 11, 13, 19, 25, 37, 41, 47, 55, 59, 61, 67, 91, 97, 103, 109, 115, 131, 137,
         143, 145, 157, 167, 171, 185, 191, 193, 203, 211, 213)
_MINIT = (
    (1,), (1, 3), (1, 3, 1), (1, 1, 1), (1, 1, 3, 3), (1, 3, 5, 13), (1, 1, 5, 5, 17),
    (1, 1, 5, 5, 5), (1, 1, 7, 11, 19), (1, 1, 5, 1, 1), (1, 1, 1, 3, 11), (1, 3, 5, 5, 31),
    (1, 3, 3, 9, 7, 49), (1, 1, 1, 15, 21, 21), (1, 3, 1, 13, 27, 49), (1, 1, 1, 15, 7, 5),
    (1, 3, 1, 15, 13, 25), (1, 1, 5, 5, 19, 61), (1, 3, 7, 11, 23, 15, 103),
    (1, 3, 7, 13, 13, 15, 69), (1, 1, 3, 13, 7, 35, 63), (1, 3, 5, 9, 1, 25, 53),
    (1, 3, 1, 13, 9, 35, 107), (1, 3, 1, 5, 27, 61, 31), (1, 1, 5, 11, 19, 41, 61),
    (1, 3, 5, 3, 3, 13, 69), (1, 1, 7, 13, 1, 19, 1), (1, 3, 7, 5, 13, 19, 59),
    (1, 1, 3, 9, 25, 29, 41), (1, 3, 5, 13, 23, 1, 55), (1, 3, 7, 3, 13, 59, 17),
)


def _direction_numbers() -> np.ndarray:
    """(MAX_DIM, _BITS) direction numbers as integers; column k is v_{k+1} 2^52."""
    rows = [[1] * _BITS]
    for poly, minit in zip(_POLY, _MINIT):
        s = poly.bit_length() - 1
        m = list(minit)
        for k in range(s, _BITS):
            # m_k = m_{k-s} xor 2^s m_{k-s} xor sum_i 2^i a_i m_{k-i}
            new = m[k - s] ^ (m[k - s] << s)
            for i in range(1, s):
                if (poly >> (s - i)) & 1:
                    new ^= m[k - i] << i
            m.append(new)
        rows.append(m)
    return np.array(rows, dtype=np.uint64) << (_BITS - 1 - np.arange(_BITS, dtype=np.uint64))


_V = _direction_numbers()


def _gray_points(v: np.ndarray, start: int, count: int, offset) -> np.ndarray:
    """Points start..start+count-1 of the net with direction numbers v, xor offset.

    Point i is the xor of the direction numbers at the set bits of its Gray
    code g(i) = i ^ (i >> 1).  For 2^k <= i < 2^(k+1), g(i) = 2^k | g(2^(k+1)-1-i),
    so each doubling of the block is the previous block, reversed, xor v_k.
    A block that starts at a multiple of a power of two at least ``count``
    has g(start + i) = g(start) ^ g(i), so it is the block from 0 xor the
    point at ``start``.  The uint64 ``offset`` (scalar or (dim, 1)) is xored
    into every point.  Shape (dim, count).
    """
    if start % (1 << (count - 1).bit_length()):
        raise ValueError(f"block of {count} points cannot start at {start}")
    gray = start ^ (start >> 1)
    out = np.empty((v.shape[0], count), dtype=np.uint64)
    out[:, :1] = offset
    for k in range(gray.bit_length()):
        if (gray >> k) & 1:
            out[:, 0] ^= v[:, k]
    h, k = 1, 0
    while h < count:
        w = min(h, count - h)
        np.bitwise_xor(out[:, h - w : h][:, ::-1], v[:, k : k + 1], out=out[:, h : h + w])
        h, k = 2 * h, k + 1
    return out


class ScrambledSobol:
    """One random scramble of the first ``n_points`` Sobol points in ``dim`` dimensions."""

    def __init__(self, dim: int, n_points: int, rng: np.random.Generator):
        if not 1 <= dim <= MAX_DIM:
            raise ValueError(f"scrambled Sobol points need 1 <= dim <= {MAX_DIM}, got {dim}")
        self.n_points = n_points
        used = max(1, (n_points - 1).bit_length())
        # output bit p of the linear scramble is the parity of the input bits
        # selected by masks[:, p]: bit p itself and random bits above it
        low = (np.uint64(1) << np.arange(_BITS, dtype=np.uint64)) - np.uint64(1)
        masks = rng.integers(0, 1 << _BITS, (dim, _BITS), dtype=np.uint64) & ~low | (low + 1)
        parity = np.bitwise_count(_V[:dim, :used, None] & masks[:, None, :]) & 1
        self._v = (parity.astype(np.uint64) << np.arange(_BITS, dtype=np.uint64)).sum(axis=2)
        self._shift = rng.integers(0, 1 << _BITS, (dim, 1), dtype=np.uint64)

    def stream(self, start: int, count: int) -> np.ndarray:
        """The uniforms of points start..start+count-1, shape (dim, count)."""
        if not 0 <= start < start + count <= self.n_points:
            raise ValueError(f"points {start}..{start + count} outside 0..{self.n_points}")
        # with the exponent bits of 1.0 xored in, integer k reads as the
        # float 1 + k 2^-52, and subtracting 1 - 2^-53 is exact
        u = _gray_points(self._v, start, count, self._shift | _ONE).view(np.float64)
        u -= 1.0 - 2.0 ** -(_BITS + 1)
        return u
