"""The BLAS premises that the library's bit contracts rest on, one test each.

``riccati_path`` is promised bit for bit against the textbook RK4 of
``tests/conftest.py::rk4_path``.  That promise rests on how numpy's bundled
OpenBLAS rounds a product, which its kernels do not all agree on (see
``scripts/kernel_matrix.py``).  Each test below checks one premise on random
draws and names, in its docstring, the code that relies on it, so that a
host where a bitwise test fails says which premise broke there.
"""
import numpy as np

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
