"""Orthogonal Hadamard matrices and balanced on/off Walsh code books.

Code books drive the CDMA leg of the camera: each pixel set gets a binary
sequence of W bits, balanced so that correlation against the signed (+1/-1)
version of any code isolates exactly one set. Row 0 of a Hadamard matrix is
all ones and therefore never handed out as a code, which is why a book of J
codes needs order W >= J + 1.

Orders are built by Sylvester doubling on seed matrices of order 1, 12 and
20; the 12 and 20 seeds come from the quadratic-residue (Paley) construction
over GF(11) and GF(19). That covers every order s * 2**a with s in
{1, 12, 20}, including the non power-of-two lengths 320 and 1280 used by the
camera presets.

The codec never builds the W x W matrix. H = kron(S, H2^a) with S the s x s
seed and H2^a the Sylvester matrix, whose entry (i, j) is (-1)**popcount(i & j).
So hadamard_transform computes H @ x as a fast Walsh-Hadamard transform
(in-place butterflies, O(W log W) per column; Fino & Algazi 1976) followed
by a dense s x s product with the seed. Encoding is a transform by H.T of
the per-set sums, decoding a transform by H of the per-bit readings, and one
code is the transform by H.T of a one-hot vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import UnsupportedOrder

SEED_ORDERS = (1, 12, 20)


def _quadratic_character(q: int) -> np.ndarray:
    """chi(x) for GF(q): +1 for nonzero squares, -1 for non-squares, 0 at 0."""
    chi = -np.ones(q, dtype=np.int64)
    chi[0] = 0
    for x in range(1, q):
        chi[(x * x) % q] = 1
    return chi


def _paley_seed(q: int) -> np.ndarray:
    """Hadamard matrix of order q + 1 for a prime q = 3 (mod 4).

    H = I + S with S = [[0, 1...1], [-1...-1, Q]] and Q the Jacobsthal
    matrix Q[i, j] = chi(i - j). Rows are then sign-normalized so the first
    row and first column are all +1.
    """
    n = q + 1
    chi = _quadratic_character(q)
    idx = np.arange(q)
    jacobsthal = chi[(idx[:, None] - idx[None, :]) % q]

    h = np.empty((n, n), dtype=np.int64)
    h[0, :] = 1
    h[1:, 0] = -1
    h[1:, 1:] = jacobsthal
    h += np.eye(n, dtype=np.int64)
    h[0, 0] = 1  # the += doubled the corner

    # Normalize: every row below the first starts with -1, flip them.
    h[1:, :] *= -1
    return h


def _sylvester(order: int) -> np.ndarray:
    """Sylvester Hadamard matrix of a power-of-two order."""
    h = np.array([[1]], dtype=np.int64)
    block = np.array([[1, 1], [1, -1]], dtype=np.int64)
    while h.shape[0] < order:
        h = np.kron(h, block)
    return h


def _seed_order(order: int) -> int | None:
    """The seed order s with order == s * 2**a, or None."""
    for seed in SEED_ORDERS:
        rest = order // seed
        if order % seed == 0 and rest > 0 and rest & (rest - 1) == 0:
            return seed
    return None


def min_supported_order(minimum: int) -> int:
    """Smallest supported Hadamard order >= minimum."""
    best = None
    for seed in SEED_ORDERS:
        power = 0
        while seed * 2**power < max(minimum, 2):
            power += 1
        candidate = seed * 2**power
        if best is None or candidate < best:
            best = candidate
    return best


def seed_matrix(order: int) -> np.ndarray:
    """The s x s seed S of the Hadamard matrix of this order, H = kron(S, H2^a).

    Raises:
        UnsupportedOrder: order is not seed * 2**power for seed in {1, 12, 20}.
    """
    seed = _seed_order(order) if order >= 2 else None
    if seed is None:
        raise UnsupportedOrder(
            f"order {order} is not s * 2**a for s in {SEED_ORDERS} (order >= 2)"
        )
    return np.ones((1, 1), dtype=np.int64) if seed == 1 else _paley_seed(seed - 1)


def hadamard(order: int) -> np.ndarray:
    """Hadamard matrix of the given order with entries in {+1, -1}.

    The result satisfies H @ H.T == order * I in exact integer arithmetic,
    row 0 is all ones, and every other row sums to zero. It takes order**2
    int64 entries; the codec itself uses hadamard_transform instead.

    Raises:
        UnsupportedOrder: order is not seed * 2**power for seed in {1, 12, 20}.
    """
    seed = seed_matrix(order)
    return np.kron(seed, _sylvester(order // len(seed)))


def hadamard_transform(x, transpose: bool = False) -> np.ndarray:
    """H @ x, or H.T @ x, along axis 0 of x, for the Hadamard matrix H of order len(x).

    A fast Walsh-Hadamard transform over the 2**a axis and a dense product
    with the seed; the matrix is never built. Integer input is transformed
    exactly in int64, anything else in float64 (or complex128).

    Raises:
        UnsupportedOrder: len(x) is not a supported Hadamard order.
    """
    x = np.asarray(x)
    seed = seed_matrix(len(x))
    s, span, columns = len(seed), len(x) // len(seed), math.prod(x.shape[1:])
    y = x.reshape(s, span, columns).astype(np.result_type(x.dtype, np.int64))
    half = 1
    while half < span:  # butterflies on index bit log2(half) of the 2**a axis
        pairs = y.reshape(s, span // (2 * half), 2, half, columns)
        top, bottom = pairs[:, :, 0], pairs[:, :, 1]
        diff = top - bottom
        top += bottom
        bottom[...] = diff
        half *= 2
    if s > 1:
        y = np.tensordot(seed.T if transpose else seed, y, axes=1)
    return y.reshape(x.shape)


@dataclass(frozen=True, eq=False)
class CodeBook:
    """Ordered set of balanced binary codes drawn from one Hadamard matrix.

    Code i is Hadamard row i + 1 mapped to {0, 1}.

    Attributes:
        length: Bits per code (the Hadamard order W).
        num_codes: Codes in the book, at most length - 1.
    """

    length: int
    num_codes: int

    @cached_property
    def codes(self) -> np.ndarray:
        """(num_codes, length) array over {0, 1}, built from the full matrix on first access."""
        rows = hadamard(self.length)[1 : self.num_codes + 1]
        return ((1 + rows) // 2).astype(np.uint8)


def codebook(num_codes: int) -> CodeBook:
    """Build a book of balanced on/off codes for num_codes pixel sets.

    The code length is the smallest supported Hadamard order >= num_codes + 1
    (the all-ones row is skipped), the shortest frame that fits the sets.
    """
    if num_codes < 1:
        raise ValueError("num_codes must be >= 1")
    return CodeBook(length=min_supported_order(num_codes + 1), num_codes=num_codes)

