"""Series engine: Laurent polynomials, windowed series, products."""

import math

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from bpskit import (
    BiSeries,
    BpsVector,
    EmptyWindow,
    InputError,
    InsufficientWindow,
    LaurentPoly,
    NonUnitLeading,
    PairsSeries,
    SingularityGerm,
    TruncSeries,
    binom_pow,
    bps_decompose,
    bps_recompose,
    eta_power,
    hilbert_decompose,
    involution_check,
    ky_series,
    lp_arith,
    node_germ,
    nonsingular_contribution,
    product_family,
    q_negate,
    q_series_decompose,
    series_arith,
    series_inverse,
    stratify_pairs_series,
    validate_ggtc,
)
from bpskit.series import _add_binom_row, _expand_product, _pack, _unpack
from conftest import eta_power_sigma, laurent_terms, naive_mul, trunc_series, unit_series


def factorwise_product(c, order):
    """prod (1 - c q^n)^-2 by expanding each factor separately."""
    acc = TruncSeries.one(order)
    for n in range(1, order + 1):
        acc = acc * TruncSeries.from_terms(
            {n * k: c**k * (k + 1) for k in range(order // n + 1)},
            order=order,
        )
    return acc.coeff_list()


class TestLaurentPoly:
    def test_zero_coefficients_never_stored(self):
        p = LaurentPoly({0: 1, 3: 0, -2: 5})
        assert p.support == (-2, 0)
        assert p.coeff(3) == 0

    def test_duplicate_exponents_accumulate(self):
        p = LaurentPoly([(1, 2), (1, -2), (0, 7)])
        assert p == LaurentPoly({0: 7})

    def test_lp_arith_add(self):
        a = LaurentPoly({1: 2, 0: 20, -1: 2})
        b = LaurentPoly({1: -2, 2: 1})
        assert lp_arith(a, b, "add") == LaurentPoly({2: 1, 0: 20, -1: 2})

    def test_lp_arith_mul(self):
        a = LaurentPoly({1: 1, -1: 1})
        b = LaurentPoly({1: 1, -1: -1})
        assert lp_arith(a, b, "mul") == LaurentPoly({2: 1, -2: -1})

    def test_lp_arith_rejects_unknown_op(self):
        with pytest.raises(ValueError):
            lp_arith(LaurentPoly(), LaurentPoly(), "div")

    def test_pow_matches_repeated_mul(self):
        p = LaurentPoly({1: 1, 0: -2, -1: 1})
        assert p ** 3 == p * p * p
        assert p ** 0 == LaurentPoly({0: 1})

    def test_scale_and_neg(self):
        p = LaurentPoly({2: 3})
        assert p.scale(-2) == LaurentPoly({2: -6})
        assert -p == p.scale(-1)
        assert p.scale(0) == LaurentPoly()

    def test_involution_check(self):
        assert involution_check(LaurentPoly({1: 2, 0: 20, -1: 2}))
        assert not involution_check(LaurentPoly({1: 2, 0: 20, -1: 3}))
        assert involution_check(LaurentPoly())

    def test_eval_at_one(self):
        assert LaurentPoly({1: 2, 0: 20, -1: 2}).eval_at_one() == 24

    def test_json_roundtrip(self):
        p = LaurentPoly({-3: 12345678901234567890, 4: -7})
        assert LaurentPoly.from_json(p.to_json()) == p

    @given(laurent_terms, laurent_terms, laurent_terms)
    def test_ring_axioms(self, ta, tb, tc):
        a, b, c = LaurentPoly(ta), LaurentPoly(tb), LaurentPoly(tc)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(laurent_terms)
    def test_symmetrised_poly_passes_involution_check(self, terms):
        p = LaurentPoly(terms)
        assert involution_check(p + p.involution())

    @given(laurent_terms, laurent_terms, st.lists(st.tuples(st.integers(-4, 4), st.integers(-3, 3))),
           st.integers(-3, 3), st.integers(-5, 5), st.integers(0, 3), st.integers(-5, 5),
           st.lists(st.integers(-2, 2), max_size=8))
    def test_every_operation_stores_no_zero(self, ta, tb, pairs, k, s, n, lo, dense):
        # _raw is the one place that drops zeros: every path that builds a
        # LaurentPoly must leave none, and agree with a naive term map
        def naive(terms):
            acc = {}
            for e, c in terms:
                acc[e] = acc.get(e, 0) + c
            return {e: c for e, c in acc.items() if c}

        def naive_pow(terms, n):
            acc = [(0, 1)]
            for _ in range(n):
                acc = [(e1 + e2, c1 * c2) for e1, c1 in naive(acc).items() for e2, c2 in terms]
            return acc

        a, b = LaurentPoly(ta), LaurentPoly(tb)
        ia, ib = list(ta.items()), list(tb.items())
        cases = [
            (a, ia),
            (LaurentPoly(pairs), pairs),
            (a + b, ia + ib),
            (a - b, ia + [(e, -c) for e, c in ib]),
            (a * b, [(e1 + e2, c1 * c2) for e1, c1 in ia for e2, c2 in ib]),
            (k * a, [(e, k * c) for e, c in ia]),
            (a * k, [(e, k * c) for e, c in ia]),
            (-a, [(e, -c) for e, c in ia]),
            (a.scale(k), [(e, k * c) for e, c in ia]),
            (a.shift(s), [(e + s, c) for e, c in ia]),
            (a.involution(), [(-e, c) for e, c in ia]),
            (a ** n, naive_pow(ia, n)),
            (LaurentPoly.from_json({"terms": {str(e): str(c) for e, c in ta.items()}}), ia),
            (LaurentPoly._dense(lo, dense), [(lo + i, c) for i, c in enumerate(dense)]),
        ]
        for got, terms in cases:
            assert 0 not in got._terms.values()
            assert got._terms == naive(terms)


@st.composite
def spans(draw):
    """A series and a window [lo, hi] that may start below min_exp, with
    hi <= order and lo <= hi + 1."""
    s = draw(trunc_series())
    hi = draw(st.integers(s.order - 12, s.order))
    return s, draw(st.integers(hi - 12, hi + 1)), hi


class TestTruncSeries:
    def test_window_reporting(self):
        s = TruncSeries.from_terms({-1: 1, 0: 2, 1: 1}, order=5)
        assert (s.min_exp, s.order) == (-1, 5)
        assert s.coeff(-1) == 1 and s.coeff(4) == 0
        assert s.coeff(-10) == 0  # below the valuation bound: known zero
        with pytest.raises(InsufficientWindow):
            s.coeff(6)  # beyond the window: never reported

    def test_leading_zeros_are_stripped(self):
        s = TruncSeries(0, [0, 0, 5, 0], 3)
        assert (s.min_exp, s.order) == (2, 3)
        assert s.coeff_list() == [5, 0]

    def test_all_zero_is_canonical(self):
        s = TruncSeries(0, [0, 0, 0], 2)
        assert s.is_zero and s == TruncSeries.zero(2)
        assert s != TruncSeries.zero(5)  # different knowledge

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TruncSeries(0, [1, 2], 5)

    def test_from_terms_rejects_terms_above_order(self):
        with pytest.raises(ValueError):
            TruncSeries.from_terms({3: 1}, order=2)

    def test_add_window_is_min_of_orders(self):
        a = TruncSeries.from_terms({0: 1, 1: 1}, order=5)
        b = TruncSeries.from_terms({-2: 3}, order=9)
        out = series_arith(a, b, "add")
        assert (out.min_exp, out.order) == (-2, 5)
        assert out.coeff(-2) == 3 and out.coeff(0) == 1
        # windows that do not overlap: the lower operand's order ends the sum,
        # so it reads the higher operand as zeros, past a gap or not
        for low, high in ((TruncSeries(-8, [4, 0, 7]), TruncSeries(0, [1, 2, 3])),
                          (TruncSeries(0, [1, 2]), TruncSeries(4, [5, 0])),
                          (TruncSeries(0, [1, 2]), TruncSeries(2, [5]))):
            assert low + high == high + low == low
        out = TruncSeries.zero(-3) + TruncSeries(0, [1], 0)  # the empty window [-2, -3]
        assert (out.min_exp, out.order, out.is_zero) == (-2, -3, True)

    def test_mul_window_rule(self):
        a = TruncSeries.from_terms({0: 1, 1: 1}, order=5)   # 1 + q
        b = TruncSeries.from_terms({0: 1, 1: -1}, order=5)  # 1 - q
        out = series_arith(a, b, "mul")
        assert (out.min_exp, out.order) == (0, 5)
        assert out == TruncSeries.from_terms({0: 1, 2: -1}, order=5)

    def test_mul_identity_needs_wide_one(self):
        s = TruncSeries.from_terms({-1: 1, 0: 2, 1: 1})
        one = TruncSeries.one(2)
        assert series_arith(s, one, "mul") == s

    def test_empty_window_raises(self):
        with pytest.raises(EmptyWindow):
            series_arith(TruncSeries.zero(5), TruncSeries.one(9), "mul")

    def test_truncate(self):
        s = TruncSeries.from_terms({0: 1, 4: 2}, order=6)
        t = s.truncate(2)
        assert (t.min_exp, t.order) == (0, 2)
        with pytest.raises(InsufficientWindow):
            s.truncate(7)

    @given(spans())
    @example((TruncSeries.zero(3), 2, 3))  # the zero series: min_exp == order + 1
    @example((TruncSeries(0, [1, 2], 1), -3, 1))  # lo below min_exp
    @example((TruncSeries(2, [1, 2], 3), -4, 0))  # hi below min_exp
    @example((TruncSeries(2, [1, 2], 3), -4, 1))  # hi just below min_exp
    @example((TruncSeries(0, [1, 2], 1), 1, 0))  # the empty window lo == hi + 1
    @example((TruncSeries(-5, [1, 0, 3], -3), -7, -4))  # negative exponents
    def test_span_matches_a_dict_read(self, case):
        s, lo, hi = case
        terms = dict(s.items())
        want = [terms.get(e, 0) for e in range(lo, hi + 1)]
        assert s._span(lo, hi) == want
        assert LaurentPoly(terms)._span(lo, hi) == want

    def test_shift_and_scale(self):
        s = TruncSeries.from_terms({1: 2}, order=3)
        assert s.shift(-2) == TruncSeries.from_terms({-1: 2}, order=1)
        assert s.scale(3).coeff(1) == 6

    def test_json_roundtrip(self):
        s = TruncSeries(-2, [1, 0, 10 ** 30, -4], 1)
        assert TruncSeries.from_json(s.to_json()) == s
        assert s.to_json()["coeffs"][2] == str(10 ** 30)

    @given(trunc_series(), trunc_series())
    def test_mul_matches_naive_double_loop(self, a, b):
        assert a * b == naive_mul(a, b)

    @given(trunc_series(), trunc_series(), trunc_series())
    def test_mul_distributes_over_add(self, a, b, c):
        left = a * (b + c)
        right = a * b + a * c
        # both truncations of the same product; compare on the common window
        order = min(left.order, right.order)
        assert left.truncate(order) == right.truncate(order)

    @given(trunc_series())
    def test_q_negate_is_an_involution(self, a):
        assert q_negate(q_negate(a)) == a

    @given(trunc_series(), trunc_series())
    def test_q_negate_is_multiplicative(self, a, b):
        assert q_negate(a * b) == q_negate(a) * q_negate(b)


class TestValueTypes:
    def test_reprs(self):
        assert repr(LaurentPoly()) == "LaurentPoly(0)"
        assert repr(LaurentPoly({0: 7})) == "LaurentPoly(7)"
        assert repr(LaurentPoly({1: -1})) == "LaurentPoly(-1*z)"
        assert repr(LaurentPoly({4: 7, 1: 5, 0: -1, -2: 3})) == "LaurentPoly(3*z^-2 + -1 + 5*z + 7*z^4)"
        assert repr(TruncSeries.zero(3)) == "TruncSeries(0 + O(q^4))"
        assert repr(TruncSeries(0, [5, 1])) == "TruncSeries(5 + 1*q + O(q^2))"
        assert repr(TruncSeries(-1, [2, 0, -3, 1], 2)) == "TruncSeries(2*q^-1 + -3*q + 1*q^2 + O(q^3))"
        assert repr(TruncSeries(2, [0, 0, 4], 4)) == "TruncSeries(4*q^4 + O(q^5))"
        six = "1 + 2*q + 3*q^2 + 4*q^3 + 5*q^4 + 6*q^5"
        assert repr(TruncSeries(0, list(range(1, 7)))) == f"TruncSeries({six} + O(q^6))"
        assert repr(TruncSeries(0, list(range(1, 9)) + [0, 0], 9)) == f"TruncSeries({six} + ... + O(q^10))"
        assert repr(BiSeries([LaurentPoly({0: 1}), LaurentPoly({1: 2})])) == "BiSeries(order_q=1)"

    def test_reprs_past_the_digit_cap(self):
        # str() raises ValueError past 4300 digits; a repr prints the number in full
        big = 10 ** 4400
        digits = "1" + "0" * 4400
        assert repr(LaurentPoly({2: big, big: -1})) == f"LaurentPoly({digits}*z^2 + -1*z^{digits})"
        assert repr(TruncSeries(0, [big, -big])) == f"TruncSeries({digits} + -{digits}*q + O(q^2))"
        assert repr(TruncSeries(big, [3], big)) == f"TruncSeries(3*q^{digits} + O(q^{digits[:-1]}1))"

    def test_trunc_series_neg_sub_and_zero_scale(self):
        a = TruncSeries(-1, [1, 2, 3], 1)
        b = TruncSeries(0, [1, 5, 7], 2)
        assert -a == TruncSeries(-1, [-1, -2, -3], 1)
        assert a - b == TruncSeries(-1, [1, 1, -2], 1)
        assert a - a == TruncSeries.zero(1)
        assert a.scale(0) == TruncSeries.zero(1)

    def test_bi_series_equality_and_json(self):
        rows = [LaurentPoly({0: 1}), LaurentPoly({-1: 2, 1: 2})]
        B = BiSeries(rows)
        assert B == BiSeries(list(rows)) and B != BiSeries(rows[:1])
        assert B.__eq__(rows) is NotImplemented
        assert B.to_json() == {"order_q": 1, "rows": [{"terms": {"0": "1"}},
                                                      {"terms": {"-1": "2", "1": "2"}}]}


# public error branches: (call, exception class, the whole message)
ERROR_BRANCHES = {
    "LaurentPoly.from_json list": (
        lambda: LaurentPoly.from_json([]), InputError,
        "bad Laurent polynomial JSON: expected an object, not []"),
    "series_arith div": (
        lambda: series_arith(TruncSeries(0, [1]), TruncSeries(0, [1]), "div"), InputError,
        "op must be 'add' or 'mul', not 'div'"),
    "BiSeries int row": (lambda: BiSeries([1]), TypeError,
                         "BiSeries rows must be LaurentPoly values"),
    "from_terms all zero": (lambda: TruncSeries.from_terms({}), InputError,
                            "an all-zero series needs an explicit order"),
}


@pytest.mark.parametrize("name", ERROR_BRANCHES)
def test_error_branches(name):
    call, error, message = ERROR_BRANCHES[name]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


# series._within's InsufficientWindow, one per kind of window
WINDOW_MESSAGES = {
    "coeff": (lambda: TruncSeries(0, [1, 2])[3],
              "a coefficient needs the window to reach q^3 (order is 1)"),
    "truncate": (lambda: TruncSeries(0, [1, 2]).truncate(2),
                 "truncation needs the window to reach q^2 (order is 1)"),
    "row below": (lambda: BiSeries([LaurentPoly({0: 1})]).coeff(-1),
                  "a row needs the window to reach q^-1 (window is [0, 0])"),
    "row above": (lambda: BiSeries([LaurentPoly({0: 1})]).coeff(1),
                  "a row needs the window to reach q^1 (window is [0, 0])"),
    "pair_euler": (lambda: ky_series(1, 3).pair_euler(4, 0),
                   "a pair count needs the window to reach y^4 (order is 3)"),
    "hilbert_decompose": (lambda: hilbert_decompose(TruncSeries(0, [1, 2]), 2),
                          "genus-2 Hilbert decomposition needs the window to reach q^3 "
                          "(order is 1)"),
    "q_series_decompose": (lambda: q_series_decompose(SingularityGerm(2, 0, TruncSeries(0, [1]))),
                           "delta = 2 punctual decomposition needs the window to reach q^3 "
                           "(order is 0)"),
    "bps_decompose": (lambda: bps_decompose(PairsSeries(TruncSeries(-1, [1, 2]), 2)),
                      "genus-2 decomposition needs the window to reach q^1 (order is 0)"),
    "validate_ggtc": (lambda: validate_ggtc(PairsSeries(TruncSeries(-1, [1, 2]), 2)),
                      "genus-2 validation needs the window to reach q^1 (order is 0)"),
    "bps_recompose": (lambda: bps_recompose(BpsVector(2, (1, 2, 3)), -2),
                      "a genus-2 pairs series needs the window to reach q^-1 (order is -2)"),
    "nonsingular_contribution": (lambda: nonsingular_contribution(3, 1, -3),
                                 "a genus-3 pairs series needs the window to reach q^-2 "
                                 "(order is -3)"),
    "stratify base": (lambda: stratify_pairs_series(node_germ(8), -2, 2, -2),
                      "a genus-2 pairs series needs the window to reach q^-1 (order is -2)"),
    "stratify punctual": (lambda: stratify_pairs_series(node_germ(2), -2, 2, 4),
                          "the punctual series needs the window to reach q^5 (order is 2)"),
    "inverse above": (lambda: TruncSeries(2, [1, 0, 0, 0, 0], 6).inverse(3),
                      "the inverse needs the window to reach q^7 (order is 6)"),
    "inverse below": (lambda: TruncSeries(2, [1, 0, 0, 0, 0], 6).inverse(-3),
                      "the inverse needs the window to reach q^-2 (order is -3)"),
}


@pytest.mark.parametrize("name", WINDOW_MESSAGES)
def test_window_messages(name):
    call, message = WINDOW_MESSAGES[name]
    with pytest.raises(InsufficientWindow) as info:
        call()
    assert str(info.value) == message


class TestSeriesInverse:
    def test_geometric_example(self):
        s = TruncSeries.from_terms({0: 1, 1: 2, 2: 1}, order=3)  # (1+q)^2
        assert series_inverse(s, 3) == TruncSeries(0, [1, -2, 3, -4], 3)

    def test_laurent_leading_term(self):
        s = TruncSeries.from_terms({-1: 1, 0: 2, 1: 1}, order=3)  # q^-1 (1+q)^2
        inv = series_inverse(s, 5)
        assert inv == TruncSeries(1, [1, -2, 3, -4, 5], 5)

    def test_non_unit_leading(self):
        with pytest.raises(NonUnitLeading):
            series_inverse(TruncSeries.from_terms({0: 2}, order=4), 2)
        with pytest.raises(NonUnitLeading):
            series_inverse(TruncSeries.zero(4), 0)

    def test_window_too_short_for_requested_order(self):
        s = TruncSeries.from_terms({1: 1, 2: -1}, order=4)  # q(1 - q), valuation 1
        assert series_inverse(s, 2) == TruncSeries(-1, [1, 1, 1, 1], 2)
        with pytest.raises(InsufficientWindow):
            series_inverse(s, 3)

    @given(unit_series(), st.integers(0, 6))
    @settings(max_examples=150)
    def test_multiply_back_gives_one(self, a, extra):
        order = a.order - 2 * a.min_exp - extra
        if order < -a.min_exp:
            return
        inv = series_inverse(a, order)
        prod = a * inv
        assert prod == TruncSeries.one(prod.order)


class TestBinomPow:
    def test_plus_negative_exponent(self):
        assert binom_pow(-2, "plus", 3) == TruncSeries(0, [1, -2, 3, -4], 3)

    def test_minus_negative_exponent(self):
        assert binom_pow(-2, "minus", 3) == TruncSeries(0, [1, 2, 3, 4], 3)

    def test_positive_exponent_is_polynomial(self):
        assert binom_pow(2, "minus", 4) == TruncSeries(0, [1, -2, 1, 0, 0], 4)

    def test_minus_24(self):
        assert binom_pow(-24, "minus", 3).coeff_list() == [1, 24, 300, 2600]

    @pytest.mark.parametrize("e", range(-10, 11))
    def test_inverse_pair_identity(self, e):
        prod = binom_pow(e, "plus", 12) * binom_pow(-e, "plus", 12)
        assert prod == TruncSeries.one(12)

    @pytest.mark.parametrize("sign", ["plus", "minus"])
    def test_exponents_add(self, sign):
        prod = binom_pow(3, sign, 10) * binom_pow(-7, sign, 10)
        assert prod == binom_pow(-4, sign, 10)

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            binom_pow(2, "times", 3)


class TestProducts:
    def test_empty_factor_list_gives_one(self):
        B = product_family([], 5)
        assert B.coeff(0) == LaurentPoly({0: 1})
        assert all(not B.coeff(h) for h in range(1, 6))

    def test_eta_24_first_values(self):
        B = product_family([(0, -24)], 3)
        assert [B.coeff(h).coeff(0) for h in range(4)] == [1, 24, 324, 3200]

    def test_eta_power_matches_product_family(self):
        s = eta_power(-24, 8)
        B = product_family([(0, -24)], 8)
        assert [s.coeff(h) for h in range(9)] == [B.coeff(h).coeff(0) for h in range(9)]

    def test_eta_plus_one_is_pentagonal(self):
        assert eta_power(1, 12).coeff_list() == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]

    def test_eta_minus_one_counts_partitions(self):
        assert eta_power(-1, 10).coeff_list() == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]

    def test_eta_opposite_exponents_cancel(self):
        prod = eta_power(5, 15) * eta_power(-5, 15)
        assert prod == TruncSeries.one(15)

    @given(st.integers(-60, 60), st.integers(0, 150))
    @settings(max_examples=60, deadline=None)
    def test_eta_matches_sigma_recurrence(self, e, order):
        assert eta_power(e, order).coeff_list() == eta_power_sigma(e, order)

    def test_eta_bignum_exponent_matches_sigma_recurrence(self):
        assert eta_power(10**30, 60).coeff_list() == eta_power_sigma(10**30, 60)

    @given(st.integers(-60, 60), st.integers(-60, 60), st.integers(0, 120))
    @settings(max_examples=40, deadline=None)
    def test_eta_is_multiplicative(self, a, b, order):
        assert eta_power(a, order) * eta_power(b, order) == eta_power(a + b, order)

    @pytest.mark.parametrize("order", [0, 1, 7, 100])
    def test_eta_zero_exponent_is_one(self, order):
        assert eta_power(0, order) == TruncSeries.one(order)

    @pytest.mark.parametrize("e", [1.5, True, "2"])
    def test_eta_rejects_non_int_exponent(self, e):
        with pytest.raises(TypeError):
            eta_power(e, 5)

    def test_degree_bound(self):
        B = product_family([(1, -2), (-1, -2), (0, -20)], 9)
        for h in range(10):
            p = B.coeff(h)
            if p:
                assert -h <= p.min_exp and p.max_exp <= h

    @pytest.mark.parametrize(
        "factors",
        [
            [(1, -2), (-1, -2), (0, -20)],
            [(2, 3), (-2, 3)],
            [(1, 5), (-1, 5), (2, -1), (-2, -1)],
        ],
    )
    def test_symmetric_factors_give_symmetric_rows(self, factors):
        B = product_family(factors, 7)
        assert all(involution_check(B.coeff(h)) for h in range(8))

    def test_mirror_factors_give_mirror_rows(self):
        B = product_family([(1, -3), (0, 2)], 6)
        C = product_family([(-1, -3), (0, 2)], 6)
        assert all(B.coeff(h).involution() == C.coeff(h) for h in range(7))

    def test_product_matches_factorwise_series_mul(self):
        order = 10
        B = product_family([(0, -2)], order)
        row = [B.coeff(h).coeff(0) for h in range(order + 1)]
        assert row == factorwise_product(1, order)

    def test_minus_sign_factor_matches_factorwise_series_mul(self):
        # (1 + q^n)^-2: a c = -1 factor through the same product loop as c = +1
        order = 10
        B = _expand_product([(0, -2, -1)], order)
        row = [B.coeff(h).coeff(0) for h in range(order + 1)]
        assert row == factorwise_product(-1, order)
        assert row[:7] == [1, -2, 1, -2, 4, -4, 5]

    def test_biseries_window_enforced(self):
        B = product_family([(0, -1)], 4)
        with pytest.raises(InsufficientWindow):
            B.coeff(5)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            product_family([(0, -1)], -1)

    @pytest.mark.parametrize("factors, order", [([(0, -1.9)], 5), ([(True, -1)], 2)])
    def test_rejects_non_int_factors(self, factors, order):
        # int() would read these as e = -1 and a = 1
        with pytest.raises(TypeError):
            product_family(factors, order)


def _binom(p, k):
    """C(p, k) for any integer p."""
    return math.comb(p, k) if p >= 0 else (-1) ** k * math.comb(k - p - 1, k)


@st.composite
def binom_rows(draw):
    """(p, s, coef, i, before): the list length and the start index vary,
    so some rows stop at k = p and others at the end of the list."""
    length = draw(st.integers(0, 80))
    return (draw(st.integers(-60, 60)), draw(st.sampled_from((1, -1))),
            draw(st.integers(-10 ** 40, 10 ** 40)), draw(st.integers(0, length + 2)),
            draw(st.lists(st.integers(-99, 99), min_size=length, max_size=length)))


class TestBinomRow:
    @given(binom_rows())
    @settings(max_examples=300, deadline=None)
    @example((5, 1, 7, 2, [0] * 30))  # cut at k = p, inside the list
    @example((-2, -1, 3, 4, [1] * 10))  # cut by the end of the list
    @example((4, 1, 1, 3, [0] * 4))  # the start index is the last entry
    def test_row_matches_math_comb(self, case):
        p, s, coef, i, before = case
        acc = list(before)
        _add_binom_row(acc, i, coef, p, s)
        want = list(before)
        for k in range(len(before) - i):
            want[i + k] += coef * _binom(p, k) * s ** k
        assert acc == want


class TestSlotCodec:
    @given(st.sampled_from((1, 2, 9)), st.data())
    @settings(max_examples=200, deadline=None)
    def test_signed_round_trip(self, nbytes, data):
        half = 1 << (8 * nbytes - 1)
        values = data.draw(st.lists(st.integers(-half, half - 1), max_size=40))
        assert _unpack(_pack(values, nbytes), len(values), nbytes, True) == (values, 0)

    @pytest.mark.parametrize("nbytes", [1, 2, 9])
    def test_slot_range_ends(self, nbytes):
        half = 1 << (8 * nbytes - 1)
        values = [-half, half - 1, 0, -half, -1, half - 1]
        assert _unpack(_pack(values, nbytes), len(values), nbytes, True)[0] == values

    @given(st.sampled_from((1, 2, 9)), st.data())
    @settings(max_examples=200, deadline=None)
    def test_unsigned_overflow_shows(self, nbytes, data):
        b = 8 * nbytes
        values = data.draw(st.lists(st.integers(0, (1 << b) - 1), min_size=1, max_size=20))
        k = data.draw(st.integers(0, len(values) - 1))
        values[k] += data.draw(st.integers(1 << b, 1 << (2 * b + 3)))  # one slot overflows
        p = sum(v << (b * j) for j, v in enumerate(values))
        slots, above = _unpack(p, len(values), nbytes, False)
        assert above or sum(slots) != sum(values)
        assert sum(v << (b * j) for j, v in enumerate(slots)) + (above << (b * len(values))) == p
