"""The kernels against a schoolbook convolution, on small and
arbitrary-precision values."""

import random

import pytest

import bpskit
from bpskit import kernels


def _reference_conv(a, b, n):
    out = [0] * n
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if i + j < n:
                out[i + j] += ai * bj
    return out


@pytest.fixture
def rng():
    return random.Random(1729)


# the test ids name the backend that bpskit.kernel_backend reports
@pytest.mark.parametrize("impl", [pytest.param(kernels, id=bpskit.kernel_backend)])
class TestKernels:
    def test_mul_trunc_small(self, impl, rng):
        for _ in range(50):
            a = [rng.randint(-99, 99) for _ in range(rng.randint(0, 12))]
            b = [rng.randint(-99, 99) for _ in range(rng.randint(0, 12))]
            n = rng.randint(0, 20)
            assert impl.mul_trunc(a, b, n) == _reference_conv(a, b, n)

    def test_mul_trunc_bignum(self, impl, rng):
        a = [rng.randint(-(10 ** 40), 10 ** 40) for _ in range(20)]
        b = [rng.randint(-(10 ** 40), 10 ** 40) for _ in range(20)]
        assert impl.mul_trunc(a, b, 25) == _reference_conv(a, b, 25)

    def test_mul_trunc_skips_a_zero_row_of_a(self, impl):
        # a zero a_i costs no product, which keeps TruncSeries.one(n) * s linear;
        # an int subclass's __rmul__ runs before int.__mul__, so it counts each one
        products = []

        class Counting(int):
            def __rmul__(self, other):
                products.append(other)
                return other * int(self)

        a = [0] * 100
        a[50] = 7
        out = impl.mul_trunc(a, [Counting(j + 1) for j in range(100)], 100)
        assert len(products) == 50
        assert out == [0] * 50 + [7 * (j + 1) for j in range(50)]

    @pytest.mark.parametrize("lead", [1, -1])
    def test_inverse_unit(self, impl, rng, lead):
        c = [lead] + [rng.randint(-9, 9) for _ in range(11)]
        n = 12
        d = impl.inverse_unit(c, n)
        assert _reference_conv(c, d, n) == [1] + [0] * (n - 1)

    def test_inverse_unit_short_input(self, impl):
        # entries past the end of c count as zero
        assert impl.inverse_unit([1, -1], 5) == [1, 1, 1, 1, 1]
        assert impl.inverse_unit([1], 3) == [1, 0, 0]
        assert impl.inverse_unit([1, 2], 0) == []

    def test_mul_sparse_unit_inplace(self, impl, rng):
        for _ in range(30):
            n = rng.randint(1, 30)
            acc = [rng.randint(-9, 9) for _ in range(n)]
            offsets = sorted(rng.sample(range(1, n + 5), rng.randint(0, 4)))
            coeffs = [rng.randint(-9, 9) for _ in offsets]
            poly = [0] * (max(offsets) + 1 if offsets else 1)
            poly[0] = 1
            for p, c in zip(offsets, coeffs):
                poly[p] = c
            want = _reference_conv(acc, poly, n)
            impl.mul_sparse_unit_inplace(acc, offsets, coeffs)
            assert acc == want

    def test_axpy_shift(self, impl):
        dst = [0] * 10
        src = [0, 3, -1, 4, 0]
        impl.axpy_shift(dst, src, 2, 5, 1, 3)
        assert dst == [0, 0, 0, 15, -5, 20, 0, 0, 0, 0]
        impl.axpy_shift(dst, src, 2, 0, 1, 3)  # zero scale is a no-op
        assert dst[3] == 15


def test_selected_backend_is_exposed():
    assert bpskit.kernel_backend == "python"
    for name in ("mul_trunc", "inverse_unit", "mul_sparse_unit_inplace", "axpy_shift"):
        assert callable(getattr(kernels, name))
