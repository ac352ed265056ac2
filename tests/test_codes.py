import functools

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


def failed_identities(order, probes=4):
    """The Hadamard identities behind exact on/off correlation that fail at this order.

    Each is checked in exact int64 arithmetic through the transform the codec
    uses, never the dense matrix: "seed", S @ S.T == s I for the s x s seed;
    "balance", H @ 1 == W e0, so every code row sums to zero; "column 0",
    H @ e0 == 1, so every code is ON in bit 0; and "freivalds",
    H @ (H.T @ r) == W r for `probes` fixed-seed random integer vectors r
    (Freivalds 1977), which with the seed check gives H H.T == W I. Together
    they give every code W / 2 ones and correlation (W / 2) I against the
    signed codes.
    """
    seed, h = codes.seed_matrix(order), codes.hadamard_transform
    s = len(seed)
    e0 = np.zeros(order, dtype=np.int64)
    e0[0] = 1
    r = np.random.default_rng(0).integers(-(2**15), 2**15, size=(order, probes))
    holds = {
        "seed": np.array_equal(seed @ seed.T, s * np.identity(s, dtype=np.int64)),
        "balance": np.array_equal(h(np.ones(order, dtype=np.int64)), order * e0),
        "column 0": np.all(h(e0) == 1),
        "freivalds": np.array_equal(h(h(r, transpose=True)), order * r),
    }
    return [name for name, ok in holds.items() if not ok]


@pytest.mark.parametrize("order", supported_orders_up_to(2**16))
def test_hadamard_identities_at_every_supported_order(order):
    assert failed_identities(order) == []


def test_code_identity_is_checked_above_512_sets(monkeypatch):
    # 600 sets need W = 640, the first order above 512 on the order-20 seed.
    assert codes.codebook(600).length == 640 and len(codes.seed_matrix(640)) == 20
    assert failed_identities(640) == []
    paley_seed = codes._paley_seed

    def one_sign_flipped(q):
        seed = paley_seed(q)
        seed[3, 5] *= -1
        return seed

    monkeypatch.setattr(codes, "_paley_seed", one_sign_flipped)
    failed = failed_identities(640)
    assert "seed" in failed and "freivalds" in failed


@pytest.mark.parametrize("order", [0, 1, 3, 6, 36, 52, 100])
def test_hadamard_unsupported_orders(order):
    with pytest.raises(UnsupportedOrder):
        codes.hadamard(order)


@pytest.mark.parametrize(
    "num_codes,expected_length",
    # The Paley-seeded orders 12, 20, 40 and 96 are the shortest codes of 8-11,
    # 16-19, 32-39 and 80-95 sets.
    [(255, 256), (319, 320), (480, 512), (1, 2), (1276, 1280), (8, 12), (11, 12), (16, 20),
     (19, 20), (33, 40), (39, 40), (81, 96), (95, 96), (96, 128)],
)
def test_codebook_lengths(num_codes, expected_length):
    book = codes.codebook(num_codes)
    assert book.length == expected_length
    assert book.num_codes == num_codes


def test_codebook_single_code_is_half_on():
    book = codes.codebook(1)
    assert book.codes.tolist() in ([[1, 0]], [[0, 1]])


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
    signed = 2 * book.codes.astype(np.int64) - 1
    gram = book.codes.astype(np.int64) @ signed.T
    assert np.array_equal(gram, (w // 2) * np.eye(num_codes, dtype=np.int64))


# ---------------------------------------------------------------------------
# The transform the codec uses in place of the matrix
# ---------------------------------------------------------------------------

#: Orders over all three seed families, up to the largest a test builds densely.
TRANSFORM_ORDERS = (8, 12, 20, 24, 40, 320, 1280, 5120)


@functools.lru_cache(maxsize=None)
def dense(order):
    """hadamard(order) as int8, built once per order (26 MB at order 5120)."""
    return codes.hadamard(order).astype(np.int8)


def dense_product(h, x):
    """h @ x in float64, 512 rows at a time so no float64 copy of h exists."""
    return np.concatenate([h[i : i + 512].astype(np.float64) @ x for i in range(0, len(h), 512)])


@settings(deadline=None, max_examples=40)
@given(
    st.sampled_from(TRANSFORM_ORDERS),
    st.integers(1, 5),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_hadamard_transform_equals_dense_product(order, columns, transpose, seed):
    x = np.random.default_rng(seed).standard_normal((order, columns))
    h = dense(order).T if transpose else dense(order)
    want = dense_product(h, x)
    got = codes.hadamard_transform(x, transpose=transpose)
    assert got.shape == x.shape and got.dtype == np.float64
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("order", TRANSFORM_ORDERS)
def test_hadamard_transform_is_exact_on_integers(order):
    r = np.random.default_rng(order).integers(-1000, 1000, size=(order, 2))
    got = codes.hadamard_transform(r)
    assert got.dtype == np.int64
    assert np.array_equal(got, dense(order).astype(np.int64) @ r)
    # One-dimensional input is a single column.
    want = dense(order).T.astype(np.int64) @ r[:, 0]
    assert np.array_equal(codes.hadamard_transform(r[:, 0], transpose=True), want)


def test_hadamard_transform_rejects_unsupported_lengths():
    with pytest.raises(UnsupportedOrder):
        codes.hadamard_transform(np.ones((36, 2)))


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(TRANSFORM_ORDERS), st.data())
def test_code_rows_equal_dense_rows(order, data):
    # Code i, row i + 1 of H, is H.T times the one-hot vector at i + 1.
    book = codes.codebook(order - 1)
    assert book.length == order
    index = data.draw(st.integers(0, book.num_codes - 1))
    one_hot = np.zeros(order, dtype=np.int64)
    one_hot[index + 1] = 1
    code = (1 + codes.hadamard_transform(one_hot, transpose=True)) // 2
    assert code.dtype == np.int64
    assert np.array_equal(code, (1 + dense(order)[index + 1]) // 2)


@pytest.mark.parametrize("num_codes", [1, 11, 255, 319, 1276])
def test_lazy_codes_equal_the_matrix_rows(num_codes):
    book = codes.codebook(num_codes)
    assert "codes" not in book.__dict__
    rows = codes.hadamard(book.length)[1 : num_codes + 1]
    assert book.codes.dtype == np.uint8
    assert np.array_equal(book.codes, (1 + rows) // 2)
    assert book.codes is book.codes  # computed once
