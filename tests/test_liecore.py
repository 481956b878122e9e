from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scalerep import liecore
from scalerep.errors import ConvergenceError, UsageError
from scalerep.liecore import (
    GroupElement,
    ad_series,
    associativity_residual,
    automorphism_identity_residual,
    automorphism_matrix,
    bracket,
    chart_exp,
    group_inverse,
    group_multiply,
    heisenberg_constants,
    second_kind_compose,
    second_kind_coords,
)

coord = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
elements = st.builds(GroupElement, coord, coord, coord)


def brute_force_inverse(g: GroupElement) -> GroupElement:
    # solve g*h = e directly from the multiplication law, never calling
    # group_inverse: first two coordinates are forced, the third follows
    h1 = -g.xi1
    h2 = -g.xi2
    h3 = -(g.xi3 + g.xi1 * h2)
    return GroupElement(h1, h2, h3)


def brute_force_second_kind(g: GroupElement):
    # factor g into the three one-parameter pieces by composing them with
    # group_multiply and bisecting the only free coordinate
    t1, t2 = g.xi1, g.xi2

    def third(t3):
        prod = group_multiply(
            group_multiply(GroupElement(t1, 0, 0), GroupElement(0, t2, 0)),
            GroupElement(0, 0, t3),
        )
        return prod.xi3 - g.xi3

    lo, hi = -1e4, 1e4
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if third(lo) * third(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return (t1, t2, 0.5 * (lo + hi))


def test_structure_constants_exact():
    sc = heisenberg_constants()
    assert sc.antisymmetry_residual() == 0.0
    assert sc.jacobi_residual() == 0.0


def test_bracket_basis_relations():
    sc = heisenberg_constants()
    e = np.eye(3)
    assert np.array_equal(bracket(sc, e[0], e[1]), e[2])
    assert np.array_equal(bracket(sc, e[1], e[0]), -e[2])
    assert not np.any(bracket(sc, e[0], e[2]))
    assert not np.any(bracket(sc, e[1], e[2]))


def test_bracket_dimension_mismatch():
    sc = heisenberg_constants()
    with pytest.raises(UsageError):
        bracket(sc, np.ones(2), np.ones(3))


@given(st.lists(st.floats(-5, 5), min_size=3, max_size=3))
def test_bracket_self_vanishes(coeffs):
    sc = heisenberg_constants()
    a = np.array(coeffs)
    assert np.max(np.abs(bracket(sc, a, a))) == 0.0


def test_group_frozen_examples():
    assert group_multiply(GroupElement(1, 0, 0), GroupElement(0, 1, 0)) == GroupElement(1, 1, 1)
    assert group_multiply(GroupElement(0, 1, 0), GroupElement(1, 0, 0)) == GroupElement(1, 1, 0)
    g = GroupElement(0.4, -1.2, 0.9)
    assert group_multiply(g, GroupElement()) == g


def test_inverse_against_brute_force():
    # frozen value from the oracle: (1,1,1) -> (-1,-1,0)
    assert brute_force_inverse(GroupElement(1, 1, 1)) == GroupElement(-1, -1, 0)
    assert group_inverse(GroupElement(1, 1, 1)) == GroupElement(-1, -1, 0)
    rng = np.random.default_rng(7)
    for _ in range(200):
        g = GroupElement(*rng.uniform(-2, 2, 3))
        expect = brute_force_inverse(g)
        got = group_inverse(g)
        assert np.allclose(got.as_array(), expect.as_array(), atol=1e-14)
    a = 1.7
    assert group_inverse(GroupElement(a, 0, 0)) == GroupElement(-a, 0, 0)


@given(elements, elements, elements)
@settings(max_examples=200)
def test_associativity(g, h, k):
    assert associativity_residual(g, h, k) < 1e-12


@given(elements)
def test_inverse_roundtrip(g):
    e = group_multiply(g, group_inverse(g)).as_array()
    assert np.max(np.abs(e)) < 1e-12


def test_second_kind_frozen_examples():
    # oracle values via brute-force factorization
    assert brute_force_second_kind(GroupElement(1, 1, 1)) == pytest.approx((1, 1, 0), abs=1e-9)
    assert brute_force_second_kind(GroupElement(2, 3, 0)) == pytest.approx((2, 3, -6), abs=1e-9)
    assert second_kind_coords(GroupElement(1, 1, 1)) == (1, 1, 0)
    assert second_kind_coords(GroupElement(2, 3, 0)) == (2, 3, -6)
    assert second_kind_coords(GroupElement()) == (0, 0, 0)


@given(elements)
def test_second_kind_roundtrip(g):
    ts = second_kind_coords(g)
    back = second_kind_compose(*ts)
    assert np.max(np.abs(back.as_array() - g.as_array())) < 1e-12


@given(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2))
def test_second_kind_compose_then_factor(t1, t2, t3):
    g = second_kind_compose(t1, t2, t3)
    assert np.allclose(second_kind_coords(g), (t1, t2, t3), atol=1e-12)


def test_chart_exp_one_parameter_property():
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = rng.standard_normal(3)
        s, t = rng.uniform(-2, 2, 2)
        lhs = group_multiply(chart_exp(x, s), chart_exp(x, t))
        rhs = chart_exp(x, s + t)
        assert np.max(np.abs(lhs.as_array() - rhs.as_array())) < 1e-12


def test_chart_exp_basis_directions():
    assert chart_exp((1, 0, 0), 0.7) == GroupElement(0.7, 0, 0)
    assert chart_exp((0, 1, 0), -0.4) == GroupElement(0, -0.4, 0)
    assert chart_exp((0, 0, 1), 2.0) == GroupElement(0, 0, 2.0)
    # mixed direction picks up the half product term
    g = chart_exp((1, 1, 0), 1.0)
    assert g == GroupElement(1.0, 1.0, 0.5)


def test_automorphism_matrix_conventions():
    g = GroupElement(0.5, -1.5, 2.0)
    f_cons = automorphism_matrix(g, "consistent")
    f_pap = automorphism_matrix(g, "paper")
    assert f_cons[0, 2] == g.xi2 and f_pap[0, 2] == g.xi2
    assert f_cons[1, 2] == -g.xi1 and f_pap[1, 2] == g.xi1
    assert np.array_equal(automorphism_matrix(GroupElement()), np.eye(3))
    with pytest.raises(UsageError):
        automorphism_matrix(g, "mystery")


@given(elements, elements)
def test_automorphism_homomorphism(g, h):
    for sign in ("consistent", "paper"):
        res = liecore.automorphism_homomorphism_residual(g, h, sign)
        assert res < 1e-12


def test_automorphism_inverse_pair():
    g = GroupElement(1.2, 0.3, -0.8)
    f = automorphism_matrix(g)
    finv = automorphism_matrix(group_inverse(g))
    assert np.max(np.abs(f @ finv - np.eye(3))) < 1e-14


@given(elements)
def test_automorphism_constants_identity(g):
    sc = heisenberg_constants()
    for sign in ("consistent", "paper"):
        assert automorphism_identity_residual(sc, g, sign) < 1e-12


def test_automorphism_expansion_first_order():
    # adjoint expansion along each one-parameter subgroup; exact here
    sc = heisenberg_constants()
    for k in range(3):
        for t in (0.5, 0.25):
            assert liecore.auto_expansion_residual(sc, k, t) == 0.0
    # the alternate convention is not the adjoint matrix: the expansion
    # fails at first order along the first subgroup
    basis = np.array([1.0, 0.0, 0.0])
    f = automorphism_matrix(chart_exp(basis, -0.5), "paper")
    assert abs(f[1, 2] - 0.5 * sc.c[0][1, 2]) > 0.4


def test_ad_series_nilpotent_terminates():
    from scalerep.blockrep import CHI1, CHI2, CHI3

    out = ad_series(CHI1, CHI2, 0.3)
    assert np.max(np.abs(out - (CHI2 + 0.3 * CHI3))) == 0.0
    assert np.array_equal(ad_series(CHI1, CHI3, 5.0), CHI3)


def test_ad_series_trivial_and_errors(monkeypatch):
    rng = np.random.default_rng(3)
    X = rng.standard_normal((5, 5))
    Y = rng.standard_normal((5, 5))
    assert np.array_equal(ad_series(X, Y, 0.0), Y)
    with pytest.raises(UsageError):
        ad_series(X, np.eye(4), 1.0)
    with pytest.raises(UsageError):
        ad_series(np.ones((2, 3)), np.ones((2, 3)), 1.0)
    # forced divergence: big non-nilpotent matrices at large t hit the cap
    monkeypatch.setattr(liecore, "AD_SERIES_TOL", 1e-16)
    monkeypatch.setattr(liecore, "AD_SERIES_MAX_TERMS", 8)
    with pytest.raises(ConvergenceError) as err:
        ad_series(10 * X, Y, 4.0)
    assert err.value.last_term > 0


def test_ad_series_matches_expm_conjugation(monkeypatch):
    # independent oracle: exp(tX) Y exp(-tX) via the matrix exponential
    import scipy.linalg

    rng = np.random.default_rng(5)
    X = 0.3 * rng.standard_normal((6, 6))
    Y = rng.standard_normal((6, 6))
    t = 0.7
    oracle = scipy.linalg.expm(t * X) @ Y @ scipy.linalg.expm(-t * X)
    monkeypatch.setattr(liecore, "AD_SERIES_TOL", 1e-15)
    monkeypatch.setattr(liecore, "AD_SERIES_MAX_TERMS", 200)
    series = ad_series(X, Y, t)
    assert np.max(np.abs(series - oracle)) < 1e-12


@pytest.mark.parametrize("sign", liecore.X3_SIGN_CHOICES)
def test_block_forms_equal_the_per_element_calls_bit_for_bit(sign):
    rng = np.random.default_rng(14)
    coords = rng.uniform(-2.0, 2.0, (40, 3, 3))
    g, h, k = (GroupElement(*c.T) for c in np.moveaxis(coords, 1, 0))
    x, y = rng.standard_normal((2, 40, 3))
    t = rng.uniform(-1.5, 1.5, 40)
    sc = heisenberg_constants()

    def per_element(fn, *blocks):
        return np.array([fn(*args) for args in zip(*blocks)])

    singles = [[GroupElement(*map(float, c)) for c in triple] for triple in coords]
    gs, hs, ks = zip(*singles)
    pairs = (
        (
            group_multiply(g, h).as_array(),
            per_element(lambda a, b: group_multiply(a, b).as_array(), gs, hs),
        ),
        (group_inverse(g).as_array(), per_element(lambda a: group_inverse(a).as_array(), gs)),
        (liecore.chart_distance(g, h), per_element(liecore.chart_distance, gs, hs)),
        (associativity_residual(g, h, k), per_element(associativity_residual, gs, hs, ks)),
        (np.stack(second_kind_coords(g), axis=-1), per_element(second_kind_coords, gs)),
        (
            second_kind_compose(g.xi1, g.xi2, g.xi3).as_array(),
            per_element(lambda a: second_kind_compose(a.xi1, a.xi2, a.xi3).as_array(), gs),
        ),
        (chart_exp(x, t).as_array(), per_element(lambda v, s: chart_exp(v, s).as_array(), x, t)),
        (chart_exp(x, 0.7).as_array(), per_element(lambda v: chart_exp(v, 0.7).as_array(), x)),
        (automorphism_matrix(g, sign), per_element(lambda a: automorphism_matrix(a, sign), gs)),
        (
            liecore.automorphism_homomorphism_residual(g, h, sign),
            per_element(partial(liecore.automorphism_homomorphism_residual, x3_sign=sign), gs, hs),
        ),
        (
            automorphism_identity_residual(sc, g, sign),
            per_element(lambda a: automorphism_identity_residual(sc, a, sign), gs),
        ),
        (bracket(sc, x, y), per_element(lambda a, b: bracket(sc, a, b), x, y)),
    )
    for block, oracle in pairs:
        assert block.shape == oracle.shape
        assert np.array_equal(block, oracle)
    # the residuals of one element stay Python floats
    assert type(associativity_residual(*singles[0])) is float
    assert type(liecore.automorphism_homomorphism_residual(gs[0], hs[0], sign)) is float
    assert type(automorphism_identity_residual(sc, gs[0], sign)) is float
    assert automorphism_matrix(gs[0], sign).shape == (3, 3)
