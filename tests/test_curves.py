"""Local contributions: nonsingular curves, nodal curves (the vector, and
the series the peel reads it back from), singularity germs and stratified
series."""

import time
from math import comb

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from bpskit import (
    BpskitError,
    BpsVector,
    InputError,
    InsufficientWindow,
    MilnorMismatch,
    NodalCurve,
    NotBpsForm,
    SingularityGerm,
    TruncSeries,
    binom_pow,
    bps_decompose,
    bps_recompose,
    milnor_from_geometry,
    nodal_contribution,
    nodal_pairs_series,
    node_germ,
    nonsingular_contribution,
    q_negate,
    q_series_decompose,
    smooth_germ,
    stratify_pairs_series,
    subsets_of_nodes,
    sym_euler,
)

from conftest import basis_peel_by_rows, semimodule_counts


@st.composite
def nodal_curves(draw, max_g=5, bound=9):
    g = draw(st.integers(0, max_g))
    r = draw(st.integers(0, g))
    chi = {
        S: draw(st.integers(-bound, bound))
        for S in subsets_of_nodes(r)
    }
    return NodalCurve(g, r, chi)


class TestSymEuler:
    def test_small_values(self):
        assert [sym_euler(2, k) for k in range(5)] == [1, 2, 3, 4, 5]
        assert [sym_euler(-2, k) for k in range(5)] == [1, -2, 1, 0, 0]
        assert [sym_euler(0, k) for k in range(4)] == [1, 0, 0, 0]
        assert [sym_euler(1, k) for k in range(4)] == [1, 1, 1, 1]

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            sym_euler(3, -1)

    @given(st.integers(-8, 8), st.integers(0, 20))
    @settings(max_examples=60, deadline=None)
    def test_matches_binomial_series(self, e, k):
        assert sym_euler(e, k) == binom_pow(-e, "minus", k).coeff(k)


class TestNonsingular:
    def test_genus_two(self):
        v, Z = nonsingular_contribution(2, 5, 6)
        assert v == BpsVector(2, (0, 0, 5))
        assert Z.series.coeff(-1) == 5 and Z.series.coeff(0) == 10 and Z.series.coeff(1) == 5
        assert Z.series.coeff(2) == 0

    def test_odd_genus_sign(self):
        v, _ = nonsingular_contribution(1, 3, 4)
        assert v == BpsVector(1, (0, -3))
        v, _ = nonsingular_contribution(3, 2, 4)
        assert v[3] == -2

    @given(st.integers(0, 30).flatmap(lambda g: st.tuples(st.just(g), st.integers(1 - g, g + 15))),
           st.integers(-10 ** 40 + 1, 10 ** 40 - 1))
    @settings(max_examples=200, deadline=None)
    @example((0, 9), 7)
    @example((1, 9), -2)
    @example((4, 9), 3)
    @example((3, -2), 0)
    @example((30, -29), -10 ** 40 + 1)
    @example((29, 44), 10 ** 40 - 1)
    def test_series_agrees_with_recomposition(self, g_order, chi):
        # the no-node nodal route against the vector written out, and its
        # series against the pairs-basis sum of that vector
        g, order = g_order
        v, Z = nonsingular_contribution(g, chi, order)
        want = BpsVector(g, (0,) * g + ((-1) ** g * chi,))
        assert v == want
        assert Z == bps_recompose(want, order)

    def test_zero_weight(self):
        v, Z = nonsingular_contribution(3, 0, 5)
        assert v == BpsVector(3, (0, 0, 0, 0)) and Z.series.is_zero

    def test_window_guard(self):
        with pytest.raises(InsufficientWindow):
            nonsingular_contribution(0, 2, 0)


class TestNodalCurve:
    def test_requires_all_subsets(self):
        with pytest.raises(ValueError):
            NodalCurve(2, 1, {frozenset(): 1})

    def test_node_count_bounded_by_genus(self):
        with pytest.raises(ValueError):
            NodalCurve(1, 2, {S: 1 for S in subsets_of_nodes(2)})

    def test_node_labels_in_range(self):
        with pytest.raises(ValueError):
            NodalCurve(2, 1, {frozenset(): 1, frozenset({3}): 1})

    @pytest.mark.parametrize("chi, message", [
        ({frozenset(): 1, frozenset({0}): 2, (0,): 3}, r"^subset \[0\] is named by two keys$"),
        ([((), 1), ((0,), 2), ([0], 3)], r"^subset \[0\] is named by two keys$"),
        ({(): 1, (0, 0): 2}, r"^subset \[0, 0\] names a node twice$"),
    ], ids=["frozenset-and-tuple", "pairs", "node-twice"])
    def test_each_subset_is_named_once(self, chi, message):
        with pytest.raises(InputError, match=message):
            NodalCurve(1, 1, chi)

    def test_json_roundtrip(self):
        c = NodalCurve(2, 2, {S: 1 + len(S) for S in subsets_of_nodes(2)})
        again = NodalCurve.from_json(c.to_json())
        assert again == c
        assert "" in c.to_json()["chi"]

    def test_bad_json(self):
        with pytest.raises(InputError):
            NodalCurve.from_json({"g": 2, "r": 1})

    def test_subsets_generator(self):
        got = list(subsets_of_nodes(3))
        assert len(got) == 8
        assert got[0] == frozenset() and got[-1] == frozenset({0, 1, 2})
        assert [len(S) for S in got] == sorted(len(S) for S in got)


class TestNodalContribution:
    def test_one_node_weights(self):
        c = NodalCurve(1, 1, {frozenset(): 4, frozenset({0}): 7})
        assert nodal_contribution(c) == BpsVector(1, (7, -4))

    def test_two_nodes_unit_weights(self):
        c = NodalCurve(2, 2, {S: 1 for S in subsets_of_nodes(2)})
        assert nodal_contribution(c) == BpsVector(2, (1, -2, 1))

    def test_no_nodes_matches_nonsingular(self):
        c = NodalCurve(3, 0, {frozenset(): 5})
        want, _ = nonsingular_contribution(3, 5, 4)
        assert nodal_contribution(c) == want

    def test_series_route_elliptic(self):
        c = NodalCurve(1, 1, {frozenset(): 4, frozenset({0}): 7})
        Z = nodal_pairs_series(c, 8)
        assert bps_decompose(Z) == BpsVector(1, (7, -4))
        assert Z.series == bps_recompose(BpsVector(1, (7, -4)), 8).series

    def test_series_window_guard(self):
        c = NodalCurve(0, 0, {frozenset(): 1})
        with pytest.raises(InsufficientWindow):
            nodal_pairs_series(c, 0)

    @given(nodal_curves(), st.integers(2, 8))
    @settings(max_examples=100, deadline=None)
    def test_routes_agree(self, c, extra):
        v = nodal_contribution(c)
        Z = nodal_pairs_series(c, c.g + extra)
        assert bps_decompose(Z) == v
        assert Z.series == bps_recompose(v, c.g + extra).series

    @given(nodal_curves())
    @settings(max_examples=100, deadline=None)
    def test_support_window(self, c):
        v = nodal_contribution(c)
        assert all(v[h] == 0 for h in range(0, c.g - c.r))


class TestGerms:
    def test_node_germ_multiplicities(self):
        assert q_series_decompose(node_germ(6)) == [-1, 1]

    def test_smooth_germ_multiplicities(self):
        assert q_series_decompose(smooth_germ(4)) == [1]

    def test_window_guard(self):
        with pytest.raises(InsufficientWindow):
            q_series_decompose(node_germ(1))

    def test_residual_rejected(self):
        bad = SingularityGerm(1, 0, TruncSeries(0, [1, 1, 1, 1, 1], 4))
        with pytest.raises(NotBpsForm) as exc:
            q_series_decompose(bad)
        assert (exc.value.exponent, exc.value.coefficient) == (2, -1)

    def test_constant_term_must_be_one(self):
        with pytest.raises(ValueError):
            SingularityGerm(1, 0, TruncSeries(0, [2, 1], 1))
        with pytest.raises(ValueError):
            SingularityGerm(1, 0, TruncSeries(1, [1], 1))

    def test_json_roundtrip(self):
        germ = node_germ(5)
        assert SingularityGerm.from_json(germ.to_json()) == germ
        with pytest.raises(InputError):
            SingularityGerm.from_json({"delta": 1})

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_decompose_inverts_synthesis(self, data):
        d = data.draw(st.integers(0, 4))
        mu = data.draw(st.integers(0, 6))
        m = [data.draw(st.integers(-9, 9)) for _ in range(d)] + [1]
        order = d + 3
        signed = TruncSeries.zero(order)
        for r in range(d + 1):
            if not m[r]:
                continue
            elem = binom_pow(2 * r - 2 * d - mu, "plus", order - (d - r)).shift(d - r)
            signed = signed + elem.scale(m[r])
        germ = SingularityGerm(d, mu, q_negate(signed))
        assert q_series_decompose(germ) == m


class TestStratify:
    def test_milnor_bookkeeping(self):
        assert milnor_from_geometry(1, 0) == 0
        assert milnor_from_geometry(0, 3) == -1
        assert milnor_from_geometry(2, -2) == 0

    def test_node_in_low_genus(self):
        # one node on a genus-g curve: multiplicities [-1, 1] at (g-1, g)
        for g in (1, 2, 3):
            e_smooth = 2 - 2 * g
            Z = stratify_pairs_series(node_germ(10), e_smooth, g, 8 - g)
            v = bps_decompose(Z)
            want = [0] * (g + 1)
            want[g - 1], want[g] = -1, 1
            assert v == BpsVector(g, tuple(want))

    def test_smooth_point_reduces_to_nonsingular(self):
        g = 2
        Z = stratify_pairs_series(smooth_germ(9), 2 - 2 * g, g, 6)
        assert bps_decompose(Z) == BpsVector(g, (0, 0, 1))

    def test_milnor_mismatch(self):
        with pytest.raises(MilnorMismatch):
            stratify_pairs_series(node_germ(8), 1, 1, 5)

    @pytest.mark.parametrize("e_smooth, order", [(0, 5), (4, 14), (4, 3)])
    def test_negative_genus_is_rejected_first(self, e_smooth, order):
        # before the Milnor and window checks, which used to decide the error
        with pytest.raises(ValueError, match="g must be non-negative"):
            stratify_pairs_series(node_germ(8), e_smooth, -1, order)

    def test_large_euler_characteristic(self):
        # (1+q)^(-e_smooth) on a few slots: the slot width follows the window,
        # not the exponent
        for e_smooth, order in ((-10 ** 5, 8), (2 * 10 ** 6, 6), (-(10 ** 30), 6)):
            germ = SingularityGerm(1, milnor_from_geometry(1, e_smooth), node_germ(8).q_euler)
            t0 = time.perf_counter()
            got = stratify_pairs_series(germ, e_smooth, 1, order).series
            assert time.perf_counter() - t0 < 1.0
            assert got == q_negate(germ.q_euler) * binom_pow(-e_smooth, "plus", order)

    def test_punctual_window_guard(self):
        # pairs window to q^5 at genus 1 needs the punctual series through q^5
        with pytest.raises(InsufficientWindow):
            stratify_pairs_series(node_germ(4), 0, 1, 5)

    def test_matches_nodal_route_for_elliptic_node(self):
        # germ route gives -B_0 + B_1, i.e. both strata weighted (-1)^g = -1
        c = NodalCurve(1, 1, {frozenset(): -1, frozenset({0}): -1})
        Z1 = nodal_pairs_series(c, 7)
        Z2 = stratify_pairs_series(node_germ(9), 0, 1, 7)
        assert Z1.series == Z2.series


class TestLargeMu:
    """mu and e_smooth are unbounded input: the multiply by (1+q)^(2 delta + mu)
    or (1+q)^(-e_smooth) must not cost one pass per unit of the exponent."""

    def test_negative_mu_peel_names_the_residual(self):
        # one nested running sum per unit of |2 delta + mu| overflowed the C stack
        germ = SingularityGerm(1, -200000, node_germ(8).q_euler)
        assert basis_peel_by_rows(q_negate(germ.q_euler), 1, 1, 1, 199998)[1] == (
            2, 19999900000)
        with pytest.raises(NotBpsForm, match=r"^residual coefficient 19999900000 at q\^2 ") as exc:
            q_series_decompose(germ)
        assert (exc.value.exponent, exc.value.coefficient) == (2, 19999900000)

    def test_large_mu_peel_is_fast(self):
        germ = SingularityGerm(1, 10 ** 6, node_germ(8).q_euler)
        t0 = time.perf_counter()
        with pytest.raises(NotBpsForm):
            q_series_decompose(germ)
        assert time.perf_counter() - t0 < 0.3

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_any_mu_and_e_smooth_give_a_result_or_a_bpskit_error(self, data):
        big = st.integers(-(10 ** 30), 10 ** 30) | st.integers(-40, 40)
        d, order, g = (data.draw(st.integers(0, 3)), data.draw(st.integers(0, 12)),
                       data.draw(st.integers(0, 3)))
        mu, e_smooth = data.draw(big), data.draw(big)
        if data.draw(st.booleans()):
            e_smooth = 2 - 2 * g - mu  # past the Milnor check
        tail = data.draw(st.lists(st.integers(-9, 9), min_size=order, max_size=order))
        germ = SingularityGerm(d, mu, TruncSeries(0, [1] + tail, order))
        for call in (lambda: q_series_decompose(germ),
                     lambda: stratify_pairs_series(germ, e_smooth, g, order - g)):
            t0 = time.perf_counter()
            try:
                call()
            except BpskitError:
                pass
            assert time.perf_counter() - t0 < 1.0


class TestSemigroupGerms:
    """The unibranch germs y^p = x^q, with punctual Euler characteristics
    from conftest.semimodule_counts, delta = (p-1)(q-1)/2 and mu = 1 - 2 delta."""

    DECOMPOSITIONS = {(2, 3): [-2, 1], (2, 5): [3, -4, 1], (2, 7): [-4, 10, -6, 1],
                      (3, 4): [-5, 10, -6, 1], (3, 5): [7, -21, 21, -8, 1],
                      (4, 5): [14, -70, 133, -121, 55, -12, 1]}

    @staticmethod
    def germ(p, q, order):
        d = (p - 1) * (q - 1) // 2
        return SingularityGerm(d, 1 - 2 * d, TruncSeries(0, semimodule_counts(p, q, order), order))

    def test_punctual_euler_characteristics(self):
        assert semimodule_counts(2, 3, 8) == [1, 1, 2, 2, 2, 2, 2, 2, 2]
        assert semimodule_counts(3, 4, 7) == [1, 1, 2, 3, 4, 4, 5, 5]

    @pytest.mark.parametrize("pq", sorted(DECOMPOSITIONS))
    def test_decomposition(self, pq):
        n = q_series_decompose(self.germ(*pq, 12))
        assert n == self.DECOMPOSITIONS[pq]
        p, q = pq
        assert n[-1] == 1 and abs(n[0]) * (p + q) == comb(p + q, p)

    @pytest.mark.parametrize("pq", sorted(DECOMPOSITIONS))
    def test_bps_support_lies_between_the_genus_bounds(self, pq):
        # g = delta + 12 multiplies by (1+q)^23, past the passes/packed cutover
        n0 = self.DECOMPOSITIONS[pq][0]
        d = len(self.DECOMPOSITIONS[pq]) - 1
        germ = self.germ(*pq, d + 13)
        for g in (d, d + 1, d + 3, d + 12):
            n = bps_decompose(stratify_pairs_series(germ, 1 - 2 * (g - d), g, 1)).n
            assert [h for h, v in enumerate(n) if v] == list(range(g - d, g + 1))
            assert n[g - d] == n0
