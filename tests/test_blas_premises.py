"""The BLAS premises that the library's bit contracts rest on, one test each.

Several results are promised bit for bit: ``riccati_path`` against the
textbook RK4 of ``tests/conftest.py::rk4_path``, and stacked evaluations
against lone ones.  Each such promise rests on how numpy's bundled OpenBLAS
rounds a product, which its kernels do not all agree on (see
``scripts/kernel_matrix.py``).  Each test below checks one premise on random
draws and names, in its docstring, the code that relies on it, so that a
host where a bitwise test fails says which premise broke there.
"""
import numpy as np

from nullgeo.theorems import principal_angles

from conftest import bits


def test_dgemv_sums_the_four_rows_of_the_k_buffer_in_order():
    """``riccati_path`` forms k1 + 2 k2 + 2 k3 + k4 as one dgemv of the
    weights (1, 2, 2, 1) with the ``(4, q^2)`` k buffer: the textbook's bits
    only if the four rows are summed in order."""
    rng = np.random.default_rng(1)
    w = np.array([1.0, 2.0, 2.0, 1.0])
    for _ in range(300):
        q = int(rng.integers(2, 9))
        K = rng.normal(size=(4, q * q)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(4, 1))
        s = np.empty(q * q)
        np.ndarray.dot(w, K, s)
        assert np.array_equal(bits(s), bits(K[0] + 2.0 * K[1] + 2.0 * K[2] + K[3]))


def test_dgemm_writes_no_negative_zero():
    """``riccati_path`` skips the adds of c I at c = 0, which change only a
    -0.0 (to +0.0): the textbook's bits only if no product is -0.0, as when
    dgemm's accumulator starts at +0.0.  Zero rows and columns of +-0.0 give
    products whose every term is -0.0."""
    rng = np.random.default_rng(2)
    for _ in range(300):
        q = int(rng.integers(2, 9))
        y = rng.normal(size=(q, q))
        y[rng.integers(0, q)] = -0.0
        y[:, rng.integers(0, q)] = np.where(rng.random(q) < 0.5, 0.0, -0.0)
        out = np.empty((q, q))
        y.dot(y, out)
        assert not np.signbit(out[out == 0.0]).any()


def test_dot_into_out_equals_matmul():
    """``riccati_path`` writes each product with ``ndarray.dot`` into a
    buffer, where ``rk4_path`` takes ``@``."""
    rng = np.random.default_rng(3)
    for _ in range(300):
        q = int(rng.integers(2, 9))
        a, b = rng.normal(size=(2, q, q))
        out = np.empty((q, q))
        a.dot(b, out)
        assert np.array_equal(bits(out), bits(a @ b))


def test_stacked_principal_angles_rows_equal_lone_calls():
    """``cylinder_split`` takes the principal angles of every sample in one
    stacked call (one stacked SVD), and names the first angle past
    ``ANGLE_TOL`` as a lone ``principal_angles`` call gives it."""
    rng = np.random.default_rng(4)
    for _ in range(300):
        m = int(rng.integers(2, 9))
        k = int(rng.integers(1, m))
        Q0, _ = np.linalg.qr(rng.normal(size=(m, k)))
        B = rng.normal(size=(int(rng.integers(2, 30)), m, k))
        stacked = principal_angles(Q0, B)
        assert all(np.array_equal(bits(row), bits(principal_angles(Q0, b)))
                   for row, b in zip(stacked, B))


def test_stacked_matrix_vector_rows_equal_lone_products():
    """``cylinder_split`` takes the base points ``x - P x`` and the fiber
    coordinates ``Q0^T x`` of every sample in one stacked product, with the
    bits of one product per sample, each sample its own array."""
    rng = np.random.default_rng(5)
    for _ in range(300):
        m = int(rng.integers(2, 9))
        Q0, _ = np.linalg.qr(rng.normal(size=(m, int(rng.integers(1, m)))))
        P = Q0 @ Q0.T
        xs = [rng.normal(size=m) * 10.0 ** rng.uniform(-3.0, 3.0)
              for _ in range(int(rng.integers(1, 30)))]
        X = np.array(xs)[:, :, None]
        base, fiber = (X - P @ X)[:, :, 0], (Q0.T @ X)[:, :, 0]
        assert np.array_equal(bits(base), bits([x - P @ x for x in xs]))
        assert np.array_equal(bits(fiber), bits([Q0.T @ x for x in xs]))
