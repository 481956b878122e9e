import gc
import weakref

import numpy as np
import pytest
import scipy.linalg

from scalerep.errors import AccuracyError, UsageError
from scalerep.heisenberg import (
    SchwartzVector,
    UnitaryGroup,
    conjugation_residual,
    differentiability_probe,
    effective_support,
    hermite_generators,
    measured_conjugation_offset,
    norm_bound_sharp_check,
    support_bound,
)
from scalerep.hermite import evaluate_series, gauss_hermite
from scalerep.liecore import GroupElement, chart_exp
from scalerep.scale import scale_norm

from conftest import h0


def random_interior(rng, n, modes):
    phi = np.zeros(n, dtype=complex)
    phi[:modes] = rng.standard_normal(modes) + 1j * rng.standard_normal(modes)
    return phi / np.linalg.norm(phi)


def test_schwartz_vector_invariants():
    v = SchwartzVector.from_coeffs([1.0, 2.0, 0.0, 0.0])
    assert v.support_bound == 1
    with pytest.raises(UsageError):
        SchwartzVector(np.array([1.0, 0.0, 3.0]), support_bound=1)
    with pytest.raises(UsageError):
        SchwartzVector(np.ones((2, 2)), support_bound=0)
    assert support_bound(np.zeros(5)) == 0
    assert effective_support(np.array([1.0, 1e-12, 1e-12])) == 0


def test_generator_entry_against_quadrature(fam):
    # oracle: <h1, x h0> by quadrature on the closed forms
    xs, ws = gauss_hermite(128)
    g = np.pi ** (-0.25) * np.exp(-0.5 * xs * xs)
    h1 = np.sqrt(2.0) * xs * g
    overlap = float(np.sum(ws * h1 * xs * g))
    assert overlap == pytest.approx(0.7071067811865476, abs=1e-13)
    assert fam.x2[1, 0] == pytest.approx(-1j * overlap, abs=1e-13)


def test_generator_structure(fam):
    assert np.max(np.abs(fam.x1 + fam.x1.T)) == 0.0
    assert np.max(np.abs(fam.x1.imag)) == 0.0
    sym = 1j * fam.x2
    assert np.max(np.abs(sym - sym.T)) == 0.0
    assert np.max(np.abs(fam.x2.real)) == 0.0
    assert np.array_equal(fam.x3, -1j * np.eye(64))


def test_x3_paper_convention():
    alt = hermite_generators(16, "paper")
    assert np.array_equal(alt.x3, 1j * np.eye(16))
    with pytest.raises(UsageError):
        hermite_generators(16, "wrong")
    with pytest.raises(UsageError):
        hermite_generators(2)


def test_commutator_central_on_interior(fam):
    comm = fam.x1 @ fam.x2 - fam.x2 @ fam.x1
    target = -1j * np.eye(64)
    assert np.max(np.abs((comm - target)[:62, :62])) < 1e-12


def test_action_identity_and_phase(fam, rng):
    phi = random_interior(rng, 64, 20)
    assert np.max(np.abs(fam.action_analytic(GroupElement(), phi) - phi)) < 1e-12
    out = fam.action_analytic(GroupElement(0, 0, 1.4), phi)
    assert np.max(np.abs(out - np.exp(-1.4j) * phi)) < 1e-12


def test_action_translation_against_pointwise_oracle(fam):
    # oracle: evaluate the translated function pointwise and compare with
    # the evaluated output series
    rng = np.random.default_rng(4)
    phi = random_interior(rng, 64, 12)
    g = GroupElement(0.8, -0.5, 0.3)
    out = fam.action_analytic(g, phi)
    xs = np.linspace(-3, 3, 40)
    expect = np.exp(-1j * g.xi3) * np.exp(-1j * xs * g.xi2) * evaluate_series(phi, xs + g.xi1)
    got = evaluate_series(out, xs)
    assert np.max(np.abs(got - expect)) < 1e-10


def test_action_unitary(fam, rng):
    for _ in range(20):
        g = GroupElement(*rng.uniform(-2, 2, 3))
        phi = random_interior(rng, 64, 16)
        out = fam.action_analytic(g, phi)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-8


def test_action_support_precondition(fam):
    phi = np.zeros(64, dtype=complex)
    phi[40] = 1.0
    with pytest.raises(UsageError):
        fam.action_analytic(GroupElement(1, 0, 0), phi)
    with pytest.raises(UsageError):
        fam.action_analytic(GroupElement(), np.zeros(32))


def test_action_accuracy_signal(fam):
    # a vector near the support limit pushed hard sheds measurable mass
    phi = np.zeros(64, dtype=complex)
    phi[32] = 1.0
    with pytest.raises(AccuracyError) as err:
        fam.action_analytic(GroupElement(4.0, 4.0, 0.0), phi, defect_tol=1e-12)
    assert err.value.residual > 0


def test_factored_route_matches_analytic(fam, rng):
    for _ in range(5):
        g = GroupElement(*rng.uniform(-1, 1, 3))
        phi = random_interior(rng, 64, 16)
        a = fam.action_analytic(g, phi)
        b = fam.action_factored(g) @ phi
        assert np.linalg.norm(a - b) < 1e-6


def test_factored_modulation_is_multiplication(fam, rng):
    phi = random_interior(rng, 64, 16)
    out = fam.one_parameter(2, 0.9) @ phi
    expect = fam.action_analytic(GroupElement(0, 0.9, 0), phi)
    assert np.linalg.norm(out - expect) < 1e-10


def test_one_parameter_validation(fam):
    with pytest.raises(UsageError):
        fam.one_parameter(4, 0.1)


def test_conjugation_identity_and_modulation(fam, chain, rng):
    phi = random_interior(rng, 64, 8)
    assert conjugation_residual(fam, chain, GroupElement(), 1, phi, 1) < 1e-12
    res = conjugation_residual(fam, chain, GroupElement(0, 0.8, 0), 1, phi, 1)
    assert res < 1e-7
    # direct offset: T(g) X1 T(g^-1) = X1 + i xi2 for modulation
    offset = measured_conjugation_offset(fam, GroupElement(0, 0.8, 0), 1, phi)
    assert offset == pytest.approx(1j * 0.8, abs=1e-9)


def test_conjugation_measured_sign_for_translation(fam, rng):
    # the translation conjugate of the modulation generator measures -i xi1
    phi = random_interior(rng, 64, 8)
    offset = measured_conjugation_offset(fam, GroupElement(0.6, 0, 0), 2, phi)
    assert offset == pytest.approx(-1j * 0.6, abs=1e-9)


def test_conjugation_margin_enforced(fam, chain):
    phi = np.zeros(64, dtype=complex)
    phi[60] = 1.0
    with pytest.raises(UsageError):
        conjugation_residual(fam, chain, GroupElement(0.1, 0, 0), 1, phi, 1)


def test_differentiability_probe_rates(fam, chain, rng):
    grid = tuple(1e-2 * 0.5**k for k in range(8))
    phi = random_interior(rng, 64, 10)
    for x in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        probe = differentiability_probe(fam, chain, x, phi, 1, grid)
        assert probe.converged
        assert all(1.7 <= r <= 2.3 for r in probe.ratios)
    # scalar direction: the residual is |(exp(-it)-1)/t + i| ~ t/2 exactly
    probe = differentiability_probe(fam, chain, (0, 0, 1), phi, 0, (1e-3,))
    expect = abs((np.exp(-1e-3j) - 1) / 1e-3 + 1j) * scale_norm(chain, phi, 0)
    assert probe.residuals[0] == pytest.approx(expect, rel=1e-6)


def test_differentiability_probe_validation(fam, chain):
    phi = h0()
    with pytest.raises(UsageError):
        differentiability_probe(fam, chain, (1, 0, 0), phi, 1, (1e-3, 1e-2))
    with pytest.raises(UsageError):
        differentiability_probe(fam, chain, (1, 0, 0), phi, 1, (0.0, -1.0))


def test_sharp_bound_h0_instance(fam, chain):
    res = norm_bound_sharp_check(fam, chain, GroupElement(1, 1, 0), h0(), 1)
    assert res.bound == pytest.approx(np.sqrt(3) * np.sqrt(2), abs=1e-9)
    assert res.passed


def test_sharp_bound_phase_equality(fam, chain, rng):
    phi = random_interior(rng, 64, 12)
    res = norm_bound_sharp_check(fam, chain, GroupElement(0, 0, 0.7), phi, 2)
    assert abs(res.lhs - res.bound) < 1e-9


def test_sharp_bound_margin_enforced(fam, chain):
    phi = np.zeros(64, dtype=complex)
    phi[61] = 1.0
    with pytest.raises(UsageError):
        norm_bound_sharp_check(fam, chain, GroupElement(0.1, 0, 0), phi, 2)


def test_action_homomorphism_factored(fam, rng):
    from scalerep.liecore import group_multiply

    for _ in range(20):
        g = GroupElement(*rng.uniform(-1, 1, 3))
        h = GroupElement(*rng.uniform(-1, 1, 3))
        phi = random_interior(rng, 64, 16)
        lhs = fam.action_factored(g) @ (fam.action_factored(h) @ phi)
        rhs = fam.action_factored(group_multiply(g, h)) @ phi
        assert np.linalg.norm(lhs - rhs) < 1e-7


def test_continuity_to_identity(fam, chain, rng):
    phi = random_interior(rng, 64, 8)
    for x in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        values = []
        for t in (1e-2, 1e-4, 1e-6, 1e-8):
            g = chart_exp(x, t)
            values.append(scale_norm(chain, fam.action_analytic(g, phi) - phi, 2))
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-6


@pytest.mark.parametrize("N", (8, 64, 160))
def test_unitary_group_matches_dense_oracles(N):
    # error budgets from float64 eps and N: products through the same
    # eigenbasis differ by rounding (~N eps); against expm the eigenvalue
    # error ~N eps ||H|| is multiplied by |t|, with ||H|| <= sqrt(2N)
    eps = np.finfo(float).eps
    hnorm = np.sqrt(2.0 * N)
    same = 10 * N * eps
    ts = (0.0, 0.9, -0.9, 37.5)
    fam = hermite_generators(N)
    rng = np.random.default_rng(N)
    for U, X in zip(fam.subgroups, (fam.x1, fam.x2)):
        assert isinstance(U, UnitaryGroup)
        v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        v /= np.linalg.norm(v)
        block = rng.standard_normal((N, 3)) + 1j * rng.standard_normal((N, 3))
        for t in ts:
            out = U.apply(t, v)
            assert np.linalg.norm(out - U(t) @ v) <= same
            oracle = scipy.linalg.expm(t * X) @ v
            assert np.linalg.norm(out - oracle) <= same * (1 + abs(t) * hnorm)
            columns = np.stack([U.apply(t, b) for b in block.T], axis=1)
            assert np.max(np.abs(U.apply(t, block) - columns)) <= same
            assert abs(np.linalg.norm(out) - 1.0) <= same
            for s in ts:
                composed = U.apply(s, out)
                direct = U.apply(s + t, v)
                assert np.linalg.norm(composed - direct) <= same * (
                    1 + (abs(s) + abs(t)) * hnorm
                )


def test_unitary_group_arrays_are_read_only(fam):
    for U in fam.subgroups:
        for arr in (U.w, U.V):
            with pytest.raises(ValueError):
                arr[0] = 0


def test_act_factored_matches_the_assembled_action(fam, rng):
    for _ in range(5):
        g = GroupElement(*rng.uniform(-1, 1, 3))
        phi = random_interior(rng, 64, 16)
        expect = fam.action_factored(g) @ phi
        assert np.linalg.norm(fam.act_factored(g, phi) - expect) < 1e-12
    block = np.stack([random_interior(rng, 64, 16) for _ in range(3)], axis=1)
    expect = fam.action_factored(g) @ block
    assert np.max(np.abs(fam.act_factored(g, block) - expect)) < 1e-12


def test_family_caches_do_not_keep_the_family_alive():
    fam = hermite_generators(16)
    phi = np.zeros(16, dtype=complex)
    phi[0] = 1.0
    fam.action_analytic(GroupElement(0.1, 0.2, 0.3), phi)
    fam.one_parameter(1, 0.5)
    ref = weakref.ref(fam)
    del fam
    gc.collect()
    assert ref() is None
