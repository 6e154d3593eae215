"""BPS basis transform: recompose/decompose, identity validation, Hilbert
decomposition."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from bpskit import (
    BpsVector,
    InputError,
    InsufficientWindow,
    NotBpsForm,
    PairsSeries,
    TruncSeries,
    binom_pow,
    bps_decompose,
    bps_recompose,
    hilbert_basis_element,
    hilbert_decompose,
    pairs_basis_element,
    q_negate,
    validate_ggtc,
)

DATA = Path(__file__).parent / "data"


@st.composite
def bps_vectors(draw, max_g=8, bound=50):
    g = draw(st.integers(0, max_g))
    n = draw(st.lists(st.integers(-bound, bound), min_size=g + 1, max_size=g + 1))
    return BpsVector(g, tuple(n))


class TestBpsVector:
    def test_length_must_match_genus(self):
        with pytest.raises(ValueError):
            BpsVector(2, (1, 2))

    def test_json_roundtrip(self):
        v = BpsVector(3, (1, -2, 0, 7))
        assert BpsVector.from_json(v.to_json()) == v
        assert v.to_json() == {"g": 3, "n": [1, -2, 0, 7]}

    def test_index_is_a_genus_from_zero(self):
        v = BpsVector(2, (5, 6, 7))
        assert (v[0], v[2], list(v)) == (5, 7, [5, 6, 7])
        for r in (-1, 3):
            with pytest.raises(IndexError):
                v[r]

    @pytest.mark.parametrize("doc", [{"n": [1]}, {"g": 0}, [0, [1]]])
    def test_from_json_names_a_missing_field(self, doc):
        with pytest.raises(InputError, match="^bad BPS vector JSON: "):
            BpsVector.from_json(doc)


class TestPairsSeries:
    @pytest.mark.parametrize("doc", [{"series": {"min_exp": 0, "order": 0, "coeffs": [1]}},
                                     {"g": 1}, [1]])
    def test_from_json_names_a_missing_field(self, doc):
        with pytest.raises(InputError, match="^bad pairs-series JSON: "):
            PairsSeries.from_json(doc)


class TestBasisElements:
    def test_degree_zero_element(self):
        # q (1+q)^-2 = q - 2q^2 + 3q^3 - ...
        b = pairs_basis_element(0, 5)
        assert b == TruncSeries(1, [1, -2, 3, -4, 5], 5)

    def test_higher_elements_are_palindromic_polynomials(self):
        b = pairs_basis_element(2, 9)
        assert b == TruncSeries.from_terms({-1: 1, 0: 2, 1: 1}, order=9, min_exp=-1)
        for r in range(1, 7):
            b = pairs_basis_element(r, 12)
            assert b.min_exp == 1 - r and b.coeff(1 - r) == 1
            for k in range(0, r):
                assert b.coeff(1 - r + k) == b.coeff(r - 1 - k)

    def test_matches_binomial_power(self):
        for g in range(1, 7):
            want = binom_pow(2 * g - 2, "plus", 13 - (1 - g)).shift(1 - g)
            assert pairs_basis_element(g, 13) == want
        assert pairs_basis_element(0, 13) == binom_pow(-2, "plus", 12).shift(1)


class TestRecompose:
    def test_elliptic_node_example(self):
        Z = bps_recompose(BpsVector(1, (1, -1)), 4)
        assert Z.series == TruncSeries(0, [-1, 1, -2, 3, -4], 4)
        assert Z.g == 1

    def test_single_top_multiplicity(self):
        for g in range(6):
            Z = bps_recompose(BpsVector(g, tuple([0] * g + [1])), 10)
            assert Z.series == pairs_basis_element(g, 10)

    def test_window_base(self):
        Z = bps_recompose(BpsVector(3, (0, 0, 0, 2)), 9)
        assert Z.series.min_exp == -2
        with pytest.raises(InsufficientWindow):
            bps_recompose(BpsVector(3, (1, 1, 1, 1)), -3)

    def test_zero_vector(self):
        Z = bps_recompose(BpsVector(2, (0, 0, 0)), 6)
        assert Z.series.is_zero and Z.series.order == 6


class TestDecompose:
    def test_single_basis_element(self):
        Z = PairsSeries(TruncSeries.from_terms({-1: 1, 0: 2, 1: 1}, order=8), 2)
        assert bps_decompose(Z) == BpsVector(2, (0, 0, 1))

    def test_degree_zero_series(self):
        s = TruncSeries(0, [-1, 1, -2, 3, -4, 5], 5)
        assert bps_decompose(PairsSeries(s, 1)) == BpsVector(1, (1, -1))

    def test_polynomial_that_is_not_bps(self):
        Z = PairsSeries(TruncSeries.from_terms({0: 1, 1: 1}, order=5), 1)
        with pytest.raises(NotBpsForm) as exc:
            bps_decompose(Z)
        assert (exc.value.exponent, exc.value.coefficient) == (2, 2)

    def test_residual_past_the_digit_cap_is_not_bps_form(self):
        # the message writes the residual whatever its size, so the error
        # stays NotBpsForm, not the ValueError of str() past the cap
        big = 10 ** 5000
        with pytest.raises(NotBpsForm) as exc:
            bps_decompose(PairsSeries(TruncSeries(0, [1, 1, big, 0, 0], 4), 1))
        assert (exc.value.exponent, exc.value.coefficient) == (2, big + 2)
        assert str(exc.value).startswith("residual coefficient 1" + "0" * 4000)
        # and its exponent likewise, for the pairs and the Hilbert basis
        far = 10 ** 4400
        for call in (lambda: bps_decompose(PairsSeries(TruncSeries(far, [1]), 2)),
                     lambda: hilbert_decompose(TruncSeries(far, [1] + [0] * 5, far + 5), 1)):
            with pytest.raises(NotBpsForm) as exc:
                call()
            assert (exc.value.exponent, exc.value.coefficient) == (far, 1)
            assert f"at q^1{'0' * 4400} is not generated" in str(exc.value)

    def test_window_must_reach_q1(self):
        Z = PairsSeries(TruncSeries.from_terms({0: -1}, order=0), 1)
        with pytest.raises(InsufficientWindow):
            bps_decompose(Z)

    def test_support_above_the_window_floor_is_caught(self):
        # valuation says exponents below 3 vanish: not a genus-1 form
        Z = PairsSeries(TruncSeries.from_terms({3: 1}, order=7), 1)
        with pytest.raises(NotBpsForm):
            bps_decompose(Z)

    @given(bps_vectors(), st.integers(2, 16))
    @settings(max_examples=120, deadline=None)
    def test_roundtrip(self, v, extra):
        Z = bps_recompose(v, v.g + extra)
        assert bps_decompose(Z) == v


class TestValidate:
    def test_recomposed_series_pass(self):
        rep = validate_ggtc(bps_recompose(BpsVector(3, (4, -1, 2, 9)), 12))
        assert rep.passed
        assert rep.identity_0.passed and rep.identity_gg.passed and rep.identity_g0.passed
        assert rep.n0 == 4 and rep.checked_order == 12

    def test_palindromic_element_passes_with_zero_count(self):
        Z = PairsSeries(TruncSeries.from_terms({-1: 1, 0: 2, 1: 1}, order=8), 2)
        rep = validate_ggtc(Z)
        assert rep.passed and rep.n0 == 0

    def test_one_plus_q_fails_high_range_at_two(self):
        Z = PairsSeries(TruncSeries.from_terms({0: 1, 1: 1}, order=5), 1)
        rep = validate_ggtc(Z)
        assert not rep.passed
        assert rep.n0 == 1
        assert rep.identity_g0.passed is False
        assert rep.identity_g0.first_fail_exponent == 2
        assert rep.identity_0.passed and rep.identity_gg.passed

    def test_window_too_short(self):
        Z = PairsSeries(TruncSeries.from_terms({0: -1}, order=0), 1)
        with pytest.raises(InsufficientWindow):
            validate_ggtc(Z)

    def test_report_json_shape(self):
        rep = validate_ggtc(bps_recompose(BpsVector(1, (1, -1)), 6))
        obj = rep.to_json()
        assert sorted(obj) == [
            "checked_order", "identity_0", "identity_g0", "identity_gg", "pass",
        ]
        assert obj["pass"] is True

    def test_perturbation_corpus_all_fail(self):
        corpus = json.loads((DATA / "perturbations.json").read_text())
        assert corpus["version"] == 1
        for case in corpus["cases"]:
            v = BpsVector(case["g"], tuple(case["n"]))
            Z = bps_recompose(v, case["order"])
            terms = dict(Z.series.items())
            e = case["bump_exp"]
            terms[e] = terms.get(e, 0) + case["bump_delta"]
            lo = min(1 - case["g"], min(terms, default=0))
            s = TruncSeries.from_terms(terms, order=case["order"], min_exp=lo)
            rep = validate_ggtc(PairsSeries(s, case["g"]))
            assert not rep.passed, case
            failing = [
                name
                for name in ("identity_0", "identity_gg", "identity_g0")
                if not getattr(rep, name).passed
            ]
            assert failing == case["must_fail"], case
            with pytest.raises(NotBpsForm):
                bps_decompose(PairsSeries(s, case["g"]))


class TestHilbert:
    def test_node_on_elliptic_curve(self):
        H = TruncSeries(0, [1] + list(range(1, 11)), 10)
        assert hilbert_decompose(H, 1) == BpsVector(1, (1, 1))

    def test_nonsingular_curve_hits_top_genus(self):
        for g in range(2, 6):
            H = binom_pow(2 * g - 2, "minus", g + 4)
            assert hilbert_decompose(H, g) == BpsVector(g, tuple([0] * g + [1]))

    def test_smooth_elliptic(self):
        assert hilbert_decompose(TruncSeries.one(4), 1) == BpsVector(1, (0, 1))

    def test_basis_elements(self):
        assert hilbert_basis_element(0, 1, 4) == TruncSeries(1, [1, 2, 3, 4], 4)
        assert hilbert_basis_element(2, 2, 6) == TruncSeries.from_terms(
            {0: 1, 1: -2, 2: 1}, order=6
        )
        with pytest.raises(ValueError, match="r must be non-negative"):
            hilbert_basis_element(-1, 2, 5)
        with pytest.raises(ValueError, match="g must be non-negative"):
            hilbert_basis_element(0, -2, 3)

    def test_residual_rejected(self):
        H = TruncSeries.from_terms({0: 1, 3: 5}, order=4)
        with pytest.raises(NotBpsForm) as exc:
            hilbert_decompose(H, 1)
        assert (exc.value.exponent, exc.value.coefficient) == (3, 5)

    def test_window_needs_g_plus_one_steps(self):
        with pytest.raises(InsufficientWindow):
            hilbert_decompose(TruncSeries.one(2), 2)

    @given(bps_vectors(max_g=6, bound=30), st.integers(2, 10))
    @settings(max_examples=80, deadline=None)
    def test_sign_relation_to_pairs_basis(self, v, extra):
        # H(q) := Z(-q) * (-q)^(g-1) picks up (-1)^(g+r) on each multiplicity
        g = v.g
        Z = bps_recompose(v, g + extra)
        H = q_negate(Z.series.shift(g - 1))
        got = hilbert_decompose(H, g)
        assert got == BpsVector(g, tuple((-1) ** (g + r) * v[r] for r in range(g + 1)))

    def test_elliptic_node_geometric_sign_convention(self):
        # geometric Hilbert multiplicities vs signed pair counts: (-1)^(g+r-1)
        hilb = hilbert_decompose(TruncSeries(0, [1] + list(range(1, 11)), 10), 1)
        bps = BpsVector(1, (1, -1))
        g = 1
        assert all(hilb[r] == (-1) ** (g + r - 1) * bps[r] for r in range(g + 1))
