"""Records the library builds from its own arithmetic bind their fields
through _Record._raw, without _check.  Each such result is rebuilt here
through the public constructors, which run every field check, nested
records and series first, and must equal the result.  The inputs
have the shapes of perfbench's bps-batch requests (genus up to 30,
entries of up to about 40 digits, windows g + 3 to g + 15) and the K3
tables up to h = 12."""

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from bpskit import (
    BiSeries,
    BpsVector,
    InputError,
    LaurentPoly,
    NodalCurve,
    PairsSeries,
    SingularityGerm,
    TruncSeries,
    bps_decompose,
    bps_recompose,
    hilbert_decompose,
    kkv_decompose,
    kkv_product,
    ky_series,
    milnor_from_geometry,
    nodal_contribution,
    nodal_pairs_series,
    nonsingular_contribution,
    stratify_pairs_series,
    subsets_of_nodes,
    validate_ggtc,
)
from bpskit.bps import _basis_sum
from bpskit.k3 import _kkv_table
from bpskit.series import _Record


def rebuilt(value):
    """value rebuilt through the public constructors, innermost first."""
    if isinstance(value, _Record):
        return type(value)(*map(rebuilt, value._values()))
    if isinstance(value, TruncSeries):
        return TruncSeries(value.min_exp, value.coeff_list(), value.order)
    if isinstance(value, LaurentPoly):
        return LaurentPoly(value.items())
    if isinstance(value, tuple):
        return tuple(map(rebuilt, value))
    return value


def assert_rebuilds(rec):
    assert isinstance(rec, _Record)
    assert rebuilt(rec) == rec


entry = st.integers(-10 ** 40, 10 ** 40)
genus = st.integers(0, 30)
reach = st.sampled_from((3, 8, 15)) | st.integers(3, 15)


@st.composite
def vectors(draw):
    g = draw(genus)
    n = draw(st.lists(entry, min_size=g + 1, max_size=g + 1))
    return BpsVector(g, tuple(n)), g + draw(reach)


@given(vectors(), st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_pairs_results_rebuild(case, perturb, data):
    v, order = case
    Z = bps_recompose(v, order)
    assert_rebuilds(Z)
    assert_rebuilds(bps_decompose(Z))
    if perturb:  # a report with failed identities, also when Z is zero
        cs = Z.series._span(1 - v.g, order)
        cs[data.draw(st.integers(0, len(cs) - 1))] += data.draw(entry.filter(bool))
        Z = PairsSeries(TruncSeries(1 - v.g, cs, order), v.g)
    assert_rebuilds(validate_ggtc(Z))


@given(vectors())
@settings(max_examples=40, deadline=None)
def test_hilbert_result_rebuilds(case):
    v, order = case
    assert_rebuilds(hilbert_decompose(_basis_sum(v.n, order, v.g, -1, -2), v.g))


@st.composite
def nodal_curves(draw):
    r = draw(st.integers(0, 5))
    g = draw(st.integers(r, 30))
    chi = {S: draw(st.just(0) | entry) for S in subsets_of_nodes(r)}
    return NodalCurve(g, r, chi), g + draw(reach)


@given(nodal_curves())
@settings(max_examples=40, deadline=None)
def test_nodal_results_rebuild(case):
    curve, order = case
    assert_rebuilds(nodal_contribution(curve))
    assert_rebuilds(nodal_pairs_series(curve, order))


@given(genus, st.just(0) | entry, reach)
@settings(max_examples=40, deadline=None)
def test_nonsingular_results_rebuild(g, chi, k):
    for rec in nonsingular_contribution(g, chi, g + k):
        assert_rebuilds(rec)


@st.composite
def germs_on_curves(draw):
    d, mu, g = draw(st.integers(0, 4)), draw(st.integers(-3, 3)), draw(genus)
    order = g + draw(reach)
    gorder = order + g - 1
    q_euler = TruncSeries(0, [1] + draw(st.lists(entry, min_size=gorder, max_size=gorder)),
                          gorder)
    return SingularityGerm(d, mu, q_euler), milnor_from_geometry(g, 0) - mu, g, order


@given(germs_on_curves())
@settings(max_examples=40, deadline=None)
def test_stratified_series_rebuilds(case):
    assert_rebuilds(stratify_pairs_series(*case))


@pytest.mark.parametrize("h", range(13))
def test_k3_results_rebuild(h):
    assert_rebuilds(_kkv_table(h))
    assert_rebuilds(kkv_decompose(kkv_product(h)))
    assert_rebuilds(ky_series(h, h + 8))


def test_empty_product_has_no_table():
    # order_q is -1 here, which no table's h_max may be
    with pytest.raises(InputError, match="^h_max must be non-negative$"):
        kkv_decompose(BiSeries([]))
