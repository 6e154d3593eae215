"""K3 pipeline: pair-count double series, genus decomposition of the
symmetric product, rational-curve counts, signed conversion identity."""

import io
import sys
from math import comb

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from bpskit import (
    AsymmetricInput,
    BiSeries,
    BpsVector,
    InputError,
    InsufficientWindow,
    K3PairsSeries,
    KkvTable,
    LaurentPoly,
    NodalCurve,
    NotBpsForm,
    PairsSeries,
    PreconditionError,
    SingularityGerm,
    binom_pow,
    bps_decompose,
    bps_recompose,
    eta_power,
    hilbert_basis_element,
    hilbert_decompose,
    kkv_decompose,
    kkv_product,
    ky_series,
    milnor_from_geometry,
    nodal_pairs_series,
    node_germ,
    nonsingular_contribution,
    pairs_basis_element,
    signed_conversion_check,
    smooth_germ,
    stratify_pairs_series,
    subsets_of_nodes,
    sym_euler,
    validate_ggtc,
    yau_zaslow,
)
from bpskit import EmptyWindow, MilnorMismatch, kernels, product_family, series_arith
from bpskit import cli as cli_module
from bpskit.k3 import (KKV_FACTORS, _kkv_table, _ky_rows, _theta_packed, _theta_rows,
                       _unpack_rows)
from bpskit.series import TruncSeries, _expand_product
from conftest import kkv_columns

YZ_HEAD = [1, 24, 324, 3200, 25650, 176256, 1073720]
YZ_7 = 5930496  # [q^7] E^-24


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


# h_max and y_order are ints: a bool, a float or a 1.5 is a TypeError, not a window
WINDOW_CALLS = {
    "eta_power": lambda x: eta_power(-24, x),
    "yau_zaslow": yau_zaslow,
    "ky_series h_max": lambda x: ky_series(x, 5),
    "ky_series y_order": lambda x: ky_series(2, x),
    "kkv_product": kkv_product,
    "_kkv_table": _kkv_table,
    "signed_conversion_check h_max": lambda x: signed_conversion_check(x, 3),
    "signed_conversion_check y_order": lambda x: signed_conversion_check(2, x),
    "eta_power exponent": lambda x: eta_power(x, 5),
    "binom_pow e": lambda x: binom_pow(x, "plus", 3),
    "binom_pow order": lambda x: binom_pow(2, "minus", x),
    "product_family": lambda x: product_family([(1, -2)], x),
    "TruncSeries min_exp": lambda x: TruncSeries(x, [1, 2]),
    "TruncSeries order": lambda x: TruncSeries(0, [1, 2, 3], x),
    "TruncSeries.inverse": lambda x: TruncSeries(0, [1, 2, 3]).inverse(x),
    "TruncSeries.truncate": lambda x: TruncSeries(0, [1, 2, 3]).truncate(x),
    "TruncSeries.shift": lambda x: TruncSeries(0, [1, 2, 3]).shift(x),
    "LaurentPoly.__pow__": lambda x: LaurentPoly({1: 1, 2: 1}) ** x,
    "LaurentPoly.shift": lambda x: LaurentPoly({1: 1}).shift(x),
    "LaurentPoly exponent": lambda x: LaurentPoly({x: 0}),
    "BpsVector g": lambda x: BpsVector(x, (1, 2)),
    "PairsSeries g": lambda x: PairsSeries(TruncSeries(0, [1, 2, 3]), x),
    "pairs_basis_element r": lambda x: pairs_basis_element(x, 4),
    "pairs_basis_element order": lambda x: pairs_basis_element(1, x),
    "hilbert_basis_element r": lambda x: hilbert_basis_element(x, 1, 4),
    "hilbert_basis_element g": lambda x: hilbert_basis_element(0, x, 4),
    "hilbert_basis_element order": lambda x: hilbert_basis_element(0, 1, x),
    "hilbert_decompose": lambda x: hilbert_decompose(TruncSeries(0, [1, 2, 3, 4, 5]), x),
    "bps_recompose": lambda x: bps_recompose(BpsVector(1, (1, 2)), x),
    "sym_euler e": lambda x: sym_euler(x, 2),
    "sym_euler k": lambda x: sym_euler(2, x),
    "NodalCurve g": lambda x: NodalCurve(x, 0, {frozenset(): 1}),
    "NodalCurve r": lambda x: NodalCurve(2, x, {frozenset(): 1}),
    "SingularityGerm delta": lambda x: SingularityGerm(x, 0, TruncSeries(0, [1, 1])),
    "SingularityGerm mu": lambda x: SingularityGerm(1, x, TruncSeries(0, [1, 1])),
    "node_germ": node_germ,
    "smooth_germ": smooth_germ,
    "nonsingular_contribution g": lambda x: nonsingular_contribution(x, 1, 4),
    "nonsingular_contribution chi": lambda x: nonsingular_contribution(1, x, 4),
    "nonsingular_contribution order": lambda x: nonsingular_contribution(1, 1, x),
    "nodal_pairs_series": lambda x: nodal_pairs_series(NodalCurve(1, 0, {frozenset(): 1}), x),
    "stratify_pairs_series e_smooth": lambda x: stratify_pairs_series(node_germ(8), x, 1, 4),
    "stratify_pairs_series g": lambda x: stratify_pairs_series(node_germ(8), 0, x, 4),
    "stratify_pairs_series order": lambda x: stratify_pairs_series(node_germ(8), 0, 1, x),
    "TruncSeries.coeff": lambda x: TruncSeries(0, [1, 2, 3]).coeff(x),
    "TruncSeries[]": lambda x: TruncSeries(0, [1, 2, 3])[x],
    "TruncSeries.from_terms exponent": lambda x: TruncSeries.from_terms({x: 1}, order=5),
    "TruncSeries.from_terms coefficient": lambda x: TruncSeries.from_terms({1: x}, order=5),
    "TruncSeries.from_terms order": lambda x: TruncSeries.from_terms({1: 1}, order=x),
    "TruncSeries.from_terms min_exp": lambda x: TruncSeries.from_terms({1: 1}, 5, x),
    "BiSeries.coeff": lambda x: kkv_product(2).coeff(x),
    "K3PairsSeries.coeff": lambda x: ky_series(2, 4).coeff(x),
    "K3PairsSeries.pair_euler n": lambda x: ky_series(2, 4).pair_euler(x, 1),
    "K3PairsSeries.pair_euler h": lambda x: ky_series(2, 4).pair_euler(1, x),
    "LaurentPoly.coeff": lambda x: LaurentPoly({1: 1}).coeff(x),
    "KkvTable.value g": lambda x: _kkv_table(2).value(x, 1),
    "KkvTable.value h": lambda x: _kkv_table(2).value(1, x),
    "KkvTable.genus_row": lambda x: _kkv_table(2).genus_row(x),
    "BpsVector[]": lambda x: BpsVector(1, (1, 2))[x],
    "milnor_from_geometry g": lambda x: milnor_from_geometry(x, 0),
    "milnor_from_geometry e_smooth": lambda x: milnor_from_geometry(1, x),
    "subsets_of_nodes": subsets_of_nodes,
}


@pytest.mark.parametrize("value", [True, False, 2.0, 1.5], ids=repr)
@pytest.mark.parametrize("call", WINDOW_CALLS.values(), ids=WINDOW_CALLS.keys())
def test_window_arguments_are_not_coerced(call, value):
    with pytest.raises(TypeError, match="must be an int, not"):
        call(value)


# The counts of WINDOW_CALLS, each with the largest value below its range
# and the InputError it raises.
BELOW_RANGE = {
    "eta_power": (-1, "order must be non-negative"),
    "yau_zaslow": (-1, "h_max must be non-negative"),
    "ky_series h_max": (-1, "h_max must be non-negative"),
    "ky_series y_order": (0, "y_order must be at least 1"),
    "kkv_product": (-1, "h_max must be non-negative"),
    "_kkv_table": (-1, "h_max must be non-negative"),
    "signed_conversion_check h_max": (-1, "h_max must be non-negative"),
    "signed_conversion_check y_order": (0, "y_order must be at least 1"),
    "binom_pow order": (-1, "order must be non-negative"),
    "product_family": (-1, "order_q must be non-negative"),
    "LaurentPoly.__pow__": (-1, "power must be non-negative"),
    "BpsVector g": (-1, "g must be non-negative"),
    "PairsSeries g": (-1, "g must be non-negative"),
    "pairs_basis_element r": (-1, "r must be non-negative"),
    "hilbert_basis_element r": (-1, "r must be non-negative"),
    "hilbert_basis_element g": (-1, "g must be non-negative"),
    "hilbert_decompose": (-1, "g must be non-negative"),
    "sym_euler k": (-1, "k must be non-negative"),
    "NodalCurve g": (-1, "g must be non-negative"),
    "NodalCurve r": (-1, "r must be non-negative"),
    "SingularityGerm delta": (-1, "delta must be non-negative"),
    "node_germ": (-1, "order must be non-negative"),
    "smooth_germ": (-1, "order must be non-negative"),
    "nonsingular_contribution g": (-1, "g must be non-negative"),
    "stratify_pairs_series g": (-1, "g must be non-negative"),
    "subsets_of_nodes": (-1, "r must be non-negative"),
}


@pytest.mark.parametrize("name", BELOW_RANGE)
def test_counts_below_range_are_input_errors(name):
    value, message = BELOW_RANGE[name]
    with pytest.raises(InputError, match=f"^{message}$"):
        WINDOW_CALLS[name](value)


# Past sys.maxsize no list can hold the window: every count, and every
# window end, raises PreconditionError before it loops or allocates.
PAST_MAXSIZE = [*BELOW_RANGE, "pairs_basis_element order", "hilbert_basis_element order",
                "bps_recompose", "nonsingular_contribution order", "nodal_pairs_series",
                "stratify_pairs_series order"]


@pytest.mark.parametrize("name", PAST_MAXSIZE)
def test_windows_past_maxsize_are_precondition_errors(name):
    with pytest.raises(PreconditionError, match="is past sys.maxsize"):
        WINDOW_CALLS[name](sys.maxsize + 1)


# Library calls whose messages name a number past CPython's 4300-digit
# int <-> str cap: each raises its own error class and prints the number in
# full, with no help from the caller's cap.
BIG = 10 ** 4400
DIGITS = "1" + "0" * 4400  # BIG in decimal, which str() refuses
PAST_THE_CAP = {
    "TruncSeries window": (InputError, DIGITS, lambda: TruncSeries(BIG, [1], BIG + 5)),
    "TruncSeries.from_json window": (InputError, DIGITS, lambda: TruncSeries.from_json(
        {"min_exp": BIG, "order": BIG + 5, "coeffs": [1]})),
    "TruncSeries.coeff": (InsufficientWindow, DIGITS, lambda: TruncSeries(0, [1, 2]).coeff(BIG)),
    "TruncSeries.truncate": (InsufficientWindow, DIGITS,
                             lambda: TruncSeries(0, [1, 2]).truncate(BIG)),
    "TruncSeries.inverse order": (InsufficientWindow, DIGITS,
                                  lambda: TruncSeries(0, [1, 2]).inverse(BIG)),
    "TruncSeries.inverse valuation": (InsufficientWindow, DIGITS,
                                      lambda: TruncSeries(BIG, [1], BIG).inverse(0)),
    "TruncSeries.from_terms": (InputError, DIGITS,
                               lambda: TruncSeries.from_terms({BIG: 1}, order=5)),
    "series_arith": (EmptyWindow, DIGITS[:-1] + "1", lambda: series_arith(
        TruncSeries(BIG, [1], BIG), TruncSeries.zero(0), "mul")),
    "stratify_pairs_series": (MilnorMismatch, DIGITS,
                              lambda: stratify_pairs_series(node_germ(5), BIG, 1, 3)),
    "NodalCurve node": (InputError, DIGITS, lambda: NodalCurve(1, 1, {(): 1, (BIG,): 2})),
    "KkvTable.value": (KeyError, DIGITS, lambda: KkvTable(1, {}).value(BIG, 1)),
    "KkvTable.genus_row": (KeyError, DIGITS, lambda: KkvTable(1, {}).genus_row(BIG)),
    "K3PairsSeries.coeff": (InsufficientWindow, DIGITS, lambda: ky_series(1, 2).coeff(BIG)),
    "K3PairsSeries.pair_euler": (InsufficientWindow, DIGITS,
                                 lambda: ky_series(1, 2).pair_euler(BIG, 0)),
    "BiSeries.coeff": (InsufficientWindow, DIGITS, lambda: kkv_product(1).coeff(BIG)),
    "kkv_decompose": (AsymmetricInput, DIGITS, lambda: kkv_decompose(
        BiSeries([LaurentPoly({0: 1}), LaurentPoly({BIG: 1, -BIG: 1})]))),
}


@pytest.mark.parametrize("name", PAST_THE_CAP)
def test_messages_past_the_digit_cap_keep_their_error_class(name):
    error, digits, call = PAST_THE_CAP[name]
    with pytest.raises(error) as info:
        call()
    assert digits in info.value.args[0]


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
            got = _kkv_table(h)
            assert got.rows == {(g, k): r for (g, k), r in want.items() if k <= h}
            # one table function: the same keys in the same order, so the same repr
            assert repr(got) == repr(kkv_decompose(kkv_product(h)))

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

    @pytest.mark.parametrize("h_max", [0, 1, 5, 40, 80])
    def test_b0_run_equals_yau_zaslow(self, h_max):
        # the z = 1 identity the z-rows are now checked against: F = E^3
        want = eta_power(-24, h_max).coeff_list()
        assert _theta_packed(h_max, 1, False, 0) == want
        assert [row[0] for row in _theta_rows(h_max, t=True)] == want

    @pytest.mark.parametrize("c, t, identity", [
        (1, False, "z = 1 identity"), (-1, False, "z = 1 identity"), (1, True, "genus-0 identity")])
    def test_identity_gate_names_the_row_and_both_values(self, monkeypatch, c, t, identity):
        # a wrong [q^7] E^-24 stands in for a theta engine that breaks the identity
        real = eta_power

        def bumped(e, order):
            s = real(e, order)
            if e != -24:
                return s
            a = s.coeff_list()
            a[7] += 1
            return TruncSeries(0, a, order)

        monkeypatch.setattr("bpskit.k3.eta_power", bumped)
        with pytest.raises(ArithmeticError) as info:
            _theta_rows(9, c, t)
        msg = str(info.value)
        assert msg.startswith(f"theta engine: q^7 row fails the {identity} ")
        assert f"[q^7] E^-24 is {YZ_7 + 1}" in msg and str(YZ_7) in msg

    def test_signed_rows_sum_to_the_c_minus_1_eta_quotient(self):
        e16, e4 = eta_power(-16, 40), eta_power(-4, 20)
        for h, row in enumerate(_theta_rows(40, -1)):
            assert sum(row) == sum(e16.coeff(h - 2 * k) * e4.coeff(k) for k in range(h // 2 + 1))

    @pytest.mark.parametrize("exponent, bumped_at, h", [(-16, 7, 7), (-4, 3, 6)])
    def test_c_minus_1_gate_names_the_row_and_both_values(self, monkeypatch, exponent,
                                                          bumped_at, h):
        # a wrong factor of E^-16 E(q^2)^-4 stands in for c = -1 rows with wrong signs
        real = eta_power
        signed_sum = sum(_theta_rows(9, -1)[h])

        def bumped(e, order):
            s = real(e, order)
            if e != exponent:
                return s
            a = s.coeff_list()
            a[bumped_at] += 1
            return TruncSeries(0, a, order)

        monkeypatch.setattr("bpskit.k3.eta_power", bumped)
        with pytest.raises(ArithmeticError) as info:
            _theta_rows(9, -1)
        msg = str(info.value)
        assert msg.startswith(f"theta engine: q^{h} row fails the c = -1 identity ")
        assert f"its slots sum to {signed_sum}, " in msg
        assert msg.endswith(f"[q^{h}] E^-16 E(q^2)^-4 is {signed_sum + 1}")
        _theta_rows(9, 1)  # c = +1 does not read the quotient

    @pytest.mark.parametrize("c", [1, -1])
    def test_mirror_gate_names_the_row_and_both_slots(self, monkeypatch, capsys, c):
        # a z^1 <-> z^2 swap in the q^6 row keeps every row sum, so the
        # identity gates pass it; the row is no longer z <-> z^-1 symmetric
        good = _theta_rows(9, c)[6]  # z^-6 .. z^6
        real = _unpack_rows

        def swapped(*args, **kwargs):
            rows = real(*args, **kwargs)
            if len(rows) > 6:
                rows[6][7], rows[6][8] = rows[6][8], rows[6][7]
            return rows

        monkeypatch.setattr("bpskit.k3._unpack_rows", swapped)
        with pytest.raises(ArithmeticError) as info:
            _theta_rows(9, c)
        msg = str(info.value)
        assert msg.startswith("theta engine: q^6 row fails the mirror identity ")
        assert msg.endswith(f"z^-2 holds {good[4]}, z^2 holds {good[7]}")
        assert cli_module.run(["k3", "ky", "--hmax", "9", "--yorder", "5"]) == 70
        out, err = capsys.readouterr()
        assert out == "" and "fails the mirror identity" in err

    def test_two_faults_name_the_lower_row(self, monkeypatch):
        # a z^1 <-> z^2 swap in the q^6 row fails the mirror gate, and E^-16
        # bumped at q^4 fails the c = -1 gate from q^4 on: q^4 is named
        real_rows, real_eta = _unpack_rows, eta_power
        signed_sum = sum(_theta_rows(9, -1)[4])

        def swapped(*args, **kwargs):
            rows = real_rows(*args, **kwargs)
            rows[6][7], rows[6][8] = rows[6][8], rows[6][7]
            return rows

        def bumped(e, order):
            s = real_eta(e, order)
            if e != -16:
                return s
            a = s.coeff_list()
            a[4] += 1
            return TruncSeries(0, a, order)

        monkeypatch.setattr("bpskit.k3._unpack_rows", swapped)
        monkeypatch.setattr("bpskit.k3.eta_power", bumped)
        with pytest.raises(ArithmeticError) as info:
            _theta_rows(9, -1)
        assert str(info.value) == (
            "theta engine: q^4 row fails the c = -1 identity sum_j [z^j q^h] E^-18 F^-2 = "
            f"[q^h] E^-16 E(q^2)^-4: its slots sum to {signed_sum}, [q^4] E^-16 E(q^2)^-4 is "
            f"{signed_sum + 1}")


class TestKkvColumnOracle:
    """The genus table and the z-rows against conftest.kkv_columns, which
    expands E^-24 prod_n (1 - t q^n (1 - q^n)^-2)^-2 without the engine."""

    def test_table_through_q40_matches_every_column(self):
        cols = kkv_columns(40, 40)
        assert _kkv_table(40).rows == {(g, h): (-1) ** g * cols[g][h]
                                       for h in range(41) for g in range(h + 1)}
        assert not any(cols[g][h] for g in range(41) for h in range(g))

    def test_table_through_q150_matches_genus_0_to_3(self):
        cols, table = kkv_columns(150, 3), _kkv_table(150)
        for g, col in enumerate(cols):
            assert table.genus_row(g) == [(-1) ** g * r for r in col[g:]]

    def test_z_rows_through_q60_expand_from_the_columns(self):
        # [z^j] t^g = (-1)^(g - j) C(2g, g + j) for t = z - 2 + z^-1
        cols = kkv_columns(60, 60)
        want = [LaurentPoly({j: sum((-1) ** (g - j) * comb(2 * g, g + j) * cols[g][h]
                                    for g in range(abs(j), h + 1))
                             for j in range(-h, h + 1)})
                for h in range(61)]
        assert list(kkv_product(60).rows()) == want


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

    @pytest.mark.parametrize("g", [-1, 3])
    def test_genus_row_bounds(self, g):
        with pytest.raises(KeyError, match=rf"g = {g} lies outside 0 <= g <= 2"):
            _kkv_table(2).genus_row(g)

    @pytest.mark.parametrize("lookup, g, h", [
        (lambda: KkvTable(1, {}).value(0, 1), 0, 1),
        (lambda: KkvTable(1, {}).genus_row(0), 0, 0),
        (lambda: KkvTable(1, {(0, 0): 1}).genus_row(0), 0, 1)],
        ids=["value", "genus_row-empty", "genus_row-partial"])
    def test_missing_in_range_key_is_named(self, lookup, g, h):
        # a hand-built table may lack a key inside 0 <= g <= h <= h_max
        message = rf"^'\(g, h\) = \({g}, {h}\) has no entry in the table'$"
        with pytest.raises(KeyError, match=message):
            lookup()

    @pytest.mark.parametrize("args, message", [
        ((1.5, {(0, 0): 2}), "h_max must be an int, not float"),
        ((1, {(0, 0): 2.0}), "r must be an int, not float"),
        ((1, {(0, True): 2}), "h must be an int, not bool"),
        ((1, {(0,): 2}), "keys must be .g, h. pairs of ints"),
        ((1, {"gh": 2}), "keys must be .g, h. pairs of ints"),
        ((1, [((0, 0), 2)]), "rows must be a dict, not list"),
    ])
    def test_fields_are_checked(self, args, message):
        with pytest.raises(TypeError, match=message):
            KkvTable(*args)

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


class TestK3PairsSeries:
    @pytest.mark.parametrize("args, message", [
        (((LaurentPoly({1: 1}),), True), "y_order must be an int, not bool"),
        ((("x",), 2), "rows must be LaurentPoly values"),
    ])
    def test_fields_are_checked(self, args, message):
        with pytest.raises(TypeError, match=message):
            K3PairsSeries(*args)

    def test_rows_are_held_as_a_tuple(self):
        r = K3PairsSeries([LaurentPoly({1: 1})], -5)
        assert r.rows == (LaurentPoly({1: 1}),)
        assert hash(r) == hash(K3PairsSeries((LaurentPoly({1: 1}),), -5))


class TestKyToKkv:
    """The paper's K3 theorem: under q = -y each Kawai-Yoshioka row h is a
    genus-h pairs series whose BPS multiplicities are n_g = -r_(g,h), with
    n_0 = -[q^h] E^-24 the Yau-Zaslow count."""

    H = 30

    @staticmethod
    def pairs(row, h, y_order, flip=True):
        """Row h as a genus-h pairs series in q = -y (q = y without flip)."""
        span = range(1 - h, y_order + 1)
        # (-1)^n on y^n, written without ** because (-1) ** n is a float for n < 0
        coeffs = [-c if flip and n % 2 else c for n, c in zip(span, map(row.coeff, span))]
        return PairsSeries(TruncSeries(1 - h, coeffs, y_order), h)

    @settings(max_examples=20, deadline=None)
    @given(y_order=st.integers(1, 60))
    def test_ky_rows_decompose_to_kkv_counts(self, y_order):
        table, yz = _kkv_table(self.H), yau_zaslow(self.H)
        for h, row in enumerate(ky_series(self.H, y_order).rows):
            Z = self.pairs(row, h, y_order)
            n = bps_decompose(Z).n
            assert n == tuple(-table.value(g, h) for g in range(h + 1))
            assert n[0] == -yz.coeff(h)
            assert validate_ggtc(Z).passed

    def test_unsigned_row_is_not_bps_form(self):
        with pytest.raises(NotBpsForm) as exc:
            bps_decompose(self.pairs(ky_series(0, 5).rows[0], 0, 5, flip=False))
        assert (exc.value.exponent, exc.value.coefficient) == (2, 4)


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

    def test_every_in_window_tamper_is_located(self):
        for h_max in range(5):
            for y_order in range(1, 9):
                for h in range(h_max + 1):
                    for n in range(1 - h, y_order + 1):
                        for delta in (1, -2):
                            rep = signed_conversion_check(h_max, y_order, tamper=(h, n, delta))
                            assert not rep.passed and rep.first_mismatch == (h, n)
                # outside the window: a later row, and exponents past either end
                for h, n in ((h_max + 1, 1), (0, y_order + 1), (h_max, -h_max),
                             (h_max, y_order + 3)):
                    assert signed_conversion_check(h_max, y_order, tamper=(h, n, 5)).passed

    def test_json_shape(self):
        obj = signed_conversion_check(2, 6).to_json()
        assert obj == {"pass": True, "first_mismatch": None, "h_max": 2, "y_order": 6}
        obj = signed_conversion_check(2, 6, tamper=(1, 1, 2)).to_json()
        assert obj["pass"] is False and obj["first_mismatch"] == [1, 1]
