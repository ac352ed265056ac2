import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caossim import codes
from caossim.errors import UnsupportedOrder


def supported_orders_up_to(limit):
    out = []
    for seed in codes.SEED_ORDERS:
        order = seed
        while order <= limit:
            if order >= 2:
                out.append(order)
            order *= 2
    return sorted(out)


def test_hadamard_order_2_base_case():
    h = codes.hadamard(2)
    assert h.tolist() == [[1, 1], [1, -1]]


def test_hadamard_order_4_orthogonal():
    h = codes.hadamard(4).astype(np.float64)
    assert np.array_equal(h @ h.T, 4.0 * np.eye(4))


@pytest.mark.parametrize("order", supported_orders_up_to(1280))
def test_hadamard_orthogonality_all_supported_orders(order):
    h = codes.hadamard(order)
    assert set(np.unique(h)) <= {-1, 1}
    # Entries are +-1 so float64 products and sums stay exact integers.
    gram = h.astype(np.float64) @ h.astype(np.float64).T
    assert np.array_equal(gram, order * np.eye(order))


@pytest.mark.parametrize("order", supported_orders_up_to(1280))
def test_hadamard_row_balance(order):
    h = codes.hadamard(order)
    assert np.all(h[0] == 1)
    if order > 1:
        assert np.all(h[1:].sum(axis=1) == 0)


@pytest.mark.parametrize("order", [0, 1, 3, 6, 36, 52, 100])
def test_hadamard_unsupported_orders(order):
    with pytest.raises(UnsupportedOrder):
        codes.hadamard(order)


@pytest.mark.parametrize(
    "num_codes,expected_length",
    [(255, 256), (319, 320), (480, 512), (1, 2), (1276, 1280)],
)
def test_codebook_lengths(num_codes, expected_length):
    book = codes.codebook(num_codes)
    assert book.length == expected_length
    assert book.num_codes == num_codes


def test_codebook_single_code_is_half_on():
    book = codes.codebook(1)
    assert book.codes.tolist() in ([[1, 0]], [[0, 1]])


def test_codebook_min_length_override():
    assert codes.codebook(3, min_length=12).length == 12
    # Smaller than required: ignored.
    assert codes.codebook(255, min_length=16).length == 256
    with pytest.raises(UnsupportedOrder):
        codes.codebook(3, min_length=52)


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=1, max_value=40))
def test_codebook_balance_and_correlation_identity(num_codes):
    book = codes.codebook(num_codes)
    w = book.length
    assert book.length >= num_codes + 1
    ones = book.codes.sum(axis=1)
    assert np.all(ones == w // 2)
    assert not np.any(ones == 0) and not np.any(ones == w)
    # G[a][b] = sum_t c_a(t) * (2 c_b(t) - 1) must be (W/2) * I exactly;
    # this is the identity that makes on/off encoding decodable.
    signed = codes.bipolar(book.codes).astype(np.int64)
    gram = book.codes.astype(np.int64) @ signed.T
    assert np.array_equal(gram, (w // 2) * np.eye(num_codes, dtype=np.int64))


def test_bipolar_examples():
    assert codes.bipolar(np.array([1, 0, 0, 1])).tolist() == [1, -1, -1, 1]
    assert codes.bipolar(np.ones(8, dtype=np.uint8)).tolist() == [1] * 8


def test_bipolar_sums_to_zero_over_codebook():
    book = codes.codebook(19)
    signed = codes.bipolar(book.codes)
    # Exhaustive per-code sum.
    for row in signed:
        assert int(row.astype(np.int64).sum()) == 0


def test_bipolar_rejects_empty():
    with pytest.raises(ValueError):
        codes.bipolar(np.array([]))

