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
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _sylvester(power: int) -> np.ndarray:
    """Sylvester Hadamard matrix of order 2**power."""
    h = np.array([[1]], dtype=np.int64)
    block = np.array([[1, 1], [1, -1]], dtype=np.int64)
    for _ in range(power):
        h = np.kron(h, block)
    return h


def _factorization(order: int) -> tuple[int, int] | None:
    """Return (seed, power) with order == seed * 2**power, or None."""
    for seed in SEED_ORDERS:
        if order % seed:
            continue
        rest = order // seed
        if rest > 0 and rest & (rest - 1) == 0:
            return seed, rest.bit_length() - 1
    return None


def is_supported_order(order: int) -> bool:
    return order >= 2 and _factorization(order) is not None


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


def hadamard(order: int) -> np.ndarray:
    """Hadamard matrix of the given order with entries in {+1, -1}.

    The result satisfies H @ H.T == order * I in exact integer arithmetic,
    row 0 is all ones, and every other row sums to zero.

    Raises:
        UnsupportedOrder: order is not seed * 2**power for seed in {1, 12, 20}.
    """
    factors = _factorization(order)
    if order < 2 or factors is None:
        raise UnsupportedOrder(
            f"order {order} is not s * 2**a for s in {SEED_ORDERS} (order >= 2)"
        )
    seed, power = factors
    if seed == 1:
        return _sylvester(power)
    base = _paley_seed(seed - 1)
    return np.kron(base, _sylvester(power))


@dataclass(frozen=True, eq=False)
class CodeBook:
    """Ordered set of balanced binary codes drawn from one Hadamard matrix.

    Attributes:
        length: Bits per code (the Hadamard order W).
        codes: (num_codes, length) array over {0, 1}.
        source_rows: Hadamard row index each code came from (row 0 excluded).
    """

    length: int
    codes: np.ndarray
    source_rows: tuple[int, ...]

    @property
    def num_codes(self) -> int:
        return self.codes.shape[0]


def codebook(num_codes: int, min_length: int | None = None) -> CodeBook:
    """Build a book of balanced on/off codes for num_codes pixel sets.

    The code length is the smallest supported Hadamard order >= num_codes + 1
    (the all-ones row is skipped), or min_length when that is larger and
    itself a supported order.
    """
    if num_codes < 1:
        raise ValueError("num_codes must be >= 1")
    length = min_supported_order(num_codes + 1)
    if min_length is not None and min_length > length:
        if not is_supported_order(min_length):
            raise UnsupportedOrder(f"min_length {min_length} is not a supported order")
        length = min_length
    rows = hadamard(length)[1 : num_codes + 1]
    codes = ((1 + rows) // 2).astype(np.uint8)
    return CodeBook(length=length, codes=codes, source_rows=tuple(range(1, num_codes + 1)))


def bipolar(code: np.ndarray) -> np.ndarray:
    """Map a 0/1 sequence (or stack of sequences) to -1/+1."""
    arr = np.asarray(code)
    if arr.size == 0:
        raise ValueError("code must have length >= 1")
    return (2 * arr.astype(np.int64) - 1).astype(np.int8)

