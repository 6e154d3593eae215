"""K3 pipeline: pair-count double series, genus decomposition of the
symmetric product, rational-curve counts, signed conversion identity."""

import io

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from bpskit import (
    AsymmetricInput,
    BiSeries,
    InputError,
    InsufficientWindow,
    KkvTable,
    LaurentPoly,
    eta_power,
    kkv_decompose,
    kkv_product,
    ky_series,
    signed_conversion_check,
    yau_zaslow,
)
from bpskit import kernels, product_family
from bpskit.k3 import (KKV_FACTORS, _kkv_table, _ky_rows, _theta_packed, _theta_rows,
                       _unpack_rows)
from bpskit.series import _expand_product

YZ_HEAD = [1, 24, 324, 3200, 25650, 176256, 1073720]


@st.composite
def symmetric_rows(draw, h, bound=20):
    # symmetric z-support in [-h, h]: draw the non-negative side
    side = [draw(st.integers(-bound, bound)) for _ in range(h + 1)]
    return LaurentPoly({e: c for k, c in enumerate(side) for e in {k, -k} if c})


def pair_rows_by_factors(prefactor, factors3, h_max, y_order):
    """Rows of prefactor(y) * prod (1 - c y^a q^n)^e on y-exponents
    [1-h, y_order], from the factor-at-a-time product and the schoolbook
    convolution: the route the theta engine replaced."""
    prod = _expand_product(factors3, h_max)
    rows = []
    for h in range(h_max + 1):
        p = prod.coeff(h)
        dense = [p.coeff(e) for e in range(-h, h + 1)]
        conv = kernels.mul_trunc(dense, prefactor, y_order + h + 1)
        rows.append(LaurentPoly({i - h: c for i, c in enumerate(conv) if c}))
    return tuple(rows)


class TestYauZaslow:
    def test_leading_counts(self):
        yz = yau_zaslow(6)
        assert [yz.coeff(h) for h in range(7)] == YZ_HEAD

    def test_is_eta_power(self):
        assert yau_zaslow(12) == eta_power(-24, 12)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            yau_zaslow(-1)


class TestKynSeries:
    def test_degree_zero_row(self):
        ky = ky_series(2, 8)
        assert all(ky.pair_euler(k, 0) == k for k in range(9))

    def test_degree_one_row(self):
        ky = ky_series(3, 12)
        assert ky.pair_euler(0, 1) == 2
        assert all(ky.pair_euler(m, 1) == 24 * m for m in range(1, 13))

    def test_rows_start_at_one_minus_h(self):
        ky = ky_series(6, 8)
        for h in range(7):
            row = ky.coeff(h)
            assert row.min_exp >= 1 - h

    def test_counts_are_non_negative(self):
        ky = ky_series(5, 10)
        for h in range(6):
            assert all(c >= 0 for _, c in ky.coeff(h).items())

    def test_window_guards(self):
        ky = ky_series(2, 6)
        with pytest.raises(InsufficientWindow):
            ky.coeff(3)
        with pytest.raises(InsufficientWindow):
            ky.pair_euler(7, 1)
        with pytest.raises(ValueError):
            ky_series(2, 0)

    def test_json_shape(self):
        obj = ky_series(1, 3).to_json()
        assert obj["h_max"] == 1 and obj["y_order"] == 3
        assert len(obj["rows"]) == 2


class TestKkvProduct:
    def test_degree_zero_and_one(self):
        B = kkv_product(2)
        assert B.coeff(0) == LaurentPoly({0: 1})
        assert B.coeff(1) == LaurentPoly({1: 2, 0: 20, -1: 2})

    def test_degree_two(self):
        row = kkv_product(2).coeff(2)
        assert row == LaurentPoly({2: 3, 1: 42, 0: 234, -1: 42, -2: 3})

    def test_rows_are_symmetric_with_bounded_support(self):
        B = kkv_product(8)
        for h in range(9):
            row = B.coeff(h)
            assert row.is_symmetric()
            assert not row or (row.max_exp <= h and row.min_exp >= -h)


class TestThetaEngine:
    ORDER = 30

    @pytest.fixture(scope="class")
    def oracle(self):
        return product_family(KKV_FACTORS, self.ORDER)

    def test_z_rows_match_factorwise_product(self, oracle):
        for h in range(self.ORDER + 1):
            assert kkv_product(h).rows() == oracle.rows()[: h + 1]

    def test_t_rows_match_peel(self, oracle):
        want = kkv_decompose(oracle).rows
        for h in range(self.ORDER + 1):
            got = _kkv_table(h).rows
            assert got == {(g, k): r for (g, k), r in want.items() if k <= h}

    @pytest.mark.parametrize("h_max, y_order", [(0, 1), (3, 1), (6, 4), (12, 30), (20, 97)])
    def test_pair_rows_match_factorwise_route(self, h_max, y_order):
        pref_minus = list(range(y_order + h_max + 1))  # y (1-y)^-2
        pref_plus = [(k if k % 2 else -k) for k in pref_minus]  # y (1+y)^-2
        assert _ky_rows(h_max, y_order, 1) == pair_rows_by_factors(
            pref_minus, [(a, e, 1) for a, e in KKV_FACTORS], h_max, y_order)
        assert _ky_rows(h_max, y_order, -1) == pair_rows_by_factors(
            pref_plus, [(0, -20, 1), (1, -2, -1), (-1, -2, -1)], h_max, y_order)

    @pytest.mark.parametrize("c, t", [(1, False), (-1, False), (1, True)])
    def test_narrow_slots_raise_and_never_return_a_wrong_row(self, c, t):
        raised = 0
        for h_max in range(41):
            sums = _theta_packed(h_max, 1, t, 0)
            nbytes = (max(sums).bit_length() + (c < 0) + 7) // 8
            good = _theta_rows(h_max, c, t)
            for narrow in range(1, nbytes):
                try:
                    packed = _theta_packed(h_max, c, t, 8 * narrow)
                    rows = _unpack_rows(packed, sums, narrow, c < 0, t)
                except ArithmeticError as exc:
                    assert "q^" in str(exc) and f"{8 * narrow}-bit" in str(exc)
                    raised += 1
                else:
                    assert rows == good
        assert raised > 100

    def test_one_byte_short_names_the_row_and_both_sums(self):
        sums = _theta_packed(58, 1, False, 0)
        nbytes = (max(sums).bit_length() + 7) // 8
        assert nbytes == 12
        with pytest.raises(ArithmeticError) as info:
            _unpack_rows(_theta_packed(58, 1, False, 88), sums, 11, False, False)
        assert str(info.value) == (
            "theta engine: q^54 row does not fit 88-bit slots: unpacked |coefficients| "
            f"sum to 1918314543435091429588704125, the b = 0 run gives {sums[54]}")


class TestKkvDecompose:
    def test_spot_values(self):
        t = kkv_decompose(kkv_product(3))
        assert t.value(0, 0) == 1
        assert t.value(0, 1) == 24
        assert t.value(1, 1) == -2
        assert t.value(1, 2) == -54
        assert t.value(2, 2) == 3
        assert t.value(1, 3) == -800
        assert t.value(2, 3) == 88
        assert t.value(3, 3) == -4

    def test_top_genus_law(self):
        t = kkv_decompose(kkv_product(10))
        assert all(t.value(h, h) == (-1) ** h * (h + 1) for h in range(11))

    def test_genus_zero_row_is_rational_count(self):
        t = kkv_decompose(kkv_product(10))
        yz = yau_zaslow(10)
        assert t.genus_row(0) == [yz.coeff(h) for h in range(11)]

    def test_asymmetric_row_rejected(self):
        B = BiSeries([LaurentPoly({0: 1}), LaurentPoly({1: 2, 0: 20})])
        with pytest.raises(AsymmetricInput):
            kkv_decompose(B)

    def test_support_beyond_degree_rejected(self):
        B = BiSeries([LaurentPoly({0: 1}), LaurentPoly({2: 1, 0: 5, -2: 1})])
        with pytest.raises(AsymmetricInput):
            kkv_decompose(B)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_peel_inverts_kernel_expansion(self, data):
        h_max = data.draw(st.integers(0, 5))
        bound = data.draw(st.sampled_from([20, 10**30]))  # small and bignum rows
        kernel = LaurentPoly({1: 1, 0: -2, -1: 1})

        def expand(value, h):
            # sum_g r_(g,h) (-1)^g (z - 2 + z^-1)^g
            acc = LaurentPoly({})
            for g in range(h + 1):
                r = value(g, h)
                acc = acc + (kernel ** g).scale(r if g % 2 == 0 else -r)
            return acc

        # a genus table expanded over the kernels peels back to itself
        table = {(g, h): data.draw(st.integers(-bound, bound))
                 for h in range(h_max + 1) for g in range(h + 1)}
        t = kkv_decompose(BiSeries(expand(lambda g, h: table[g, h], h)
                                   for h in range(h_max + 1)))
        assert all(t.value(g, h) == r for (g, h), r in table.items())

        # any symmetric row supported in [-h, h] peels exactly: no NotKkvForm
        rows = [data.draw(symmetric_rows(h, bound=bound)) for h in range(h_max + 1)]
        t = kkv_decompose(BiSeries(rows))
        assert [expand(t.value, h) for h in range(h_max + 1)] == rows


class TestKkvTable:
    def test_value_bounds(self):
        t = kkv_decompose(kkv_product(2))
        with pytest.raises(KeyError):
            t.value(2, 1)
        with pytest.raises(KeyError):
            t.value(0, 3)

    def test_genus_row_shape(self):
        t = kkv_decompose(kkv_product(4))
        assert len(t.genus_row(2)) == 3

    def test_json_roundtrip(self):
        t = kkv_decompose(kkv_product(3))
        again = KkvTable.from_json(t.to_json())
        assert again == t
        with pytest.raises(InputError):
            KkvTable.from_json({"h_max": 1})

    def test_csv_layout(self):
        buf = io.StringIO()
        kkv_decompose(kkv_product(1)).write_csv(buf)
        assert buf.getvalue() == "g,h,r_gh\n0,0,1\n0,1,24\n1,1,-2\n"


class TestSignedConversion:
    def test_identity_holds(self):
        rep = signed_conversion_check(4, 15)
        assert rep.passed and rep.first_mismatch is None
        assert rep.h_max == 4 and rep.y_order == 15

    def test_tampered_count_is_located(self):
        rep = signed_conversion_check(4, 10, tamper=(3, 2, 1))
        assert not rep.passed and rep.first_mismatch == (3, 2)

    def test_tamper_at_odd_exponent(self):
        rep = signed_conversion_check(3, 8, tamper=(2, 5, -3))
        assert not rep.passed and rep.first_mismatch == (2, 5)

    def test_json_shape(self):
        obj = signed_conversion_check(2, 6).to_json()
        assert obj == {"pass": True, "first_mismatch": None, "h_max": 2, "y_order": 6}
        obj = signed_conversion_check(2, 6, tamper=(1, 1, 2)).to_json()
        assert obj["pass"] is False and obj["first_mismatch"] == [1, 1]
