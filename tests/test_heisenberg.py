import gc
import weakref

import numpy as np
import pytest
import scipy.linalg

from scalerep.errors import AccuracyError, UsageError
from scalerep.heisenberg import (
    UnitaryGroup,
    conjugation_residual,
    differentiability_probe,
    effective_support,
    hermite_generators,
    measured_conjugation_offset,
    norm_bound_sharp_check,
    support_bound,
)
from scalerep.hermite import gauss_hermite, hermite_functions
from scalerep.liecore import GroupElement, chart_exp, second_kind_coords, x3_sign_factor
from scalerep.scale import scale_norm

from conftest import h0


def eigen_matrix(U, t):
    """Dense exp(-i t H) rebuilt from the group's own eigenpairs (the oracle)."""
    return (U.V * np.exp(-1j * t * U.w)) @ U.V.conj().T


def factored_matrix(fam, g):
    """Dense exp(t1 X1) exp(t2 X2) exp(t3 X3) through the same eigenpairs (the oracle)."""
    t1, t2, t3 = second_kind_coords(g)
    U1, U2 = fam.subgroups
    return (eigen_matrix(U1, t1) @ eigen_matrix(U2, t2)) * np.exp(
        t3 * x3_sign_factor(fam.x3_sign)
    )


def random_interior(rng, n, modes):
    phi = np.zeros(n, dtype=complex)
    phi[:modes] = rng.standard_normal(modes) + 1j * rng.standard_normal(modes)
    return phi / np.linalg.norm(phi)


def test_schwartz_vector_invariants():
    # a Schwartz vector is a plain coefficient array; its support is measured on the array
    assert support_bound([1.0, 2.0, 0.0, 0.0]) == 1
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
    # a = 0 makes the displacement table the identity: phi comes back bit for bit
    assert np.array_equal(fam.action_analytic(GroupElement(), phi), phi)
    block = np.stack([random_interior(rng, 64, m) for m in (1, 20, 32)], axis=1)
    assert np.array_equal(fam.action_analytic(GroupElement(), block), block)
    out = fam.action_analytic(GroupElement(0, 0, 1.4), phi)
    assert np.max(np.abs(out - np.exp(-1.4j) * phi)) < 1e-12


def test_action_translation_against_pointwise_oracle(fam):
    # oracle: evaluate the translated function pointwise through the
    # Hermite functions and compare with the evaluated output series
    rng = np.random.default_rng(4)
    phi = random_interior(rng, 64, 12)
    g = GroupElement(0.8, -0.5, 0.3)
    out = fam.action_analytic(g, phi)
    xs = np.linspace(-3, 3, 40)
    shifted = phi @ hermite_functions(xs + g.xi1, 64)
    expect = np.exp(-1j * g.xi3) * np.exp(-1j * xs * g.xi2) * shifted
    got = out @ hermite_functions(xs, 64)
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
        b = fam.act_factored(g, phi)
        assert np.linalg.norm(a - b) < 1e-6


def test_factored_modulation_is_multiplication(fam, rng):
    phi = random_interior(rng, 64, 16)
    out = fam.one_parameter(2, 0.9, phi)
    expect = fam.action_analytic(GroupElement(0, 0.9, 0), phi)
    assert np.linalg.norm(out - expect) < 1e-10


def test_one_parameter_validation(fam):
    with pytest.raises(UsageError):
        fam.one_parameter(4, 0.1, h0())


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
        lhs = fam.act_factored(g, fam.act_factored(h, phi))
        rhs = fam.act_factored(group_multiply(g, h), phi)
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
            assert np.linalg.norm(out - eigen_matrix(U, t) @ v) <= same
            adjoint = eigen_matrix(U, t).conj().T @ v
            assert np.linalg.norm(U.apply(t, v, adjoint=True) - adjoint) <= same
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
        expect = factored_matrix(fam, g) @ phi
        assert np.linalg.norm(fam.act_factored(g, phi) - expect) < 1e-12
    block = np.stack([random_interior(rng, 64, 16) for _ in range(3)], axis=1)
    expect = factored_matrix(fam, g) @ block
    assert np.max(np.abs(fam.act_factored(g, block) - expect)) < 1e-12


def test_family_caches_do_not_keep_the_family_alive():
    fam = hermite_generators(16)
    phi = np.zeros(16, dtype=complex)
    phi[0] = 1.0
    fam.action_analytic(GroupElement(0.1, 0.2, 0.3), phi)
    fam.one_parameter(1, 0.5, phi)
    fam.evaluators[2](0.5, phi, adjoint=True)
    ref = weakref.ref(fam)
    del fam
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("N", [64, 160])
@pytest.mark.parametrize("K", [1, 3, 8, 40])
def test_block_actions_match_the_vector_calls(N, K):
    # oracle: the K = 1 call on each column alone
    fam = hermite_generators(N)
    rng = np.random.default_rng(N + K)
    gs = [GroupElement(*rng.uniform(-1, 1, 3)) for _ in range(K)]
    block = np.stack([random_interior(rng, N, N // 4) for _ in range(K)], axis=1)
    analytic = fam.action_analytic(gs, block)
    factored = fam.act_factored(gs, block)
    assert analytic.shape == factored.shape == (N, K)
    for j, g in enumerate(gs):
        scale = 1e-13 * np.linalg.norm(block[:, j])
        assert np.linalg.norm(analytic[:, j] - fam.action_analytic(g, block[:, j])) <= scale
        assert np.linalg.norm(factored[:, j] - fam.act_factored(g, block[:, j])) <= scale
    # the two routes agree column by column, as hh-05 asserts
    assert np.max(np.linalg.norm(analytic - factored, axis=0)) < 1e-6


@pytest.mark.parametrize("N", [64, 160])
def test_a_block_element_acts_column_by_column(N):
    # coordinates of shape (K,) are K elements, one per column of the block
    fam = hermite_generators(N)
    rng = np.random.default_rng(N + 4)
    block = np.stack([random_interior(rng, N, N // 4) for _ in range(4)], axis=1)
    xi = rng.uniform(-0.5, 0.5, (3, 4))
    out = fam.action_analytic(GroupElement(*xi), block)
    for k in range(4):
        single = GroupElement(*(float(x) for x in xi[:, k]))
        assert np.array_equal(out[:, k], fam.action_analytic(single, block[:, k]))
    assert np.array_equal(fam.act_factored(GroupElement(*xi), block), fam.act_factored(
        [GroupElement(*xi[:, k]) for k in range(4)], block
    ))
    with pytest.raises(UsageError):
        fam.action_analytic(GroupElement(*xi), block[:, :3])


@pytest.mark.parametrize("N", [320, 640, 1024])
def test_action_matches_the_factored_route_past_the_old_node_cap(N):
    # N/4-mode columns drawn in the chart box |xi| <= 2 of the suites; the
    # 2N-node quadrature the action used to project on stopped at 320 nodes
    fam = hermite_generators(N)
    rng = np.random.default_rng(N)
    gs = [GroupElement(*rng.uniform(-2, 2, 3)) for _ in range(6)]
    block = np.stack([random_interior(rng, N, N // 4) for _ in range(6)], axis=1)
    analytic = fam.action_analytic(gs, block)
    assert np.max(np.linalg.norm(analytic - fam.act_factored(gs, block), axis=0)) <= 1e-12
    assert np.max(np.abs(np.linalg.norm(analytic, axis=0) - 1.0)) <= 1e-12


def test_block_with_one_bad_column_raises_the_vector_error(fam, rng):
    gs = [GroupElement(0.1, 0.2, 0.3), GroupElement(1, 0, 0), GroupElement(-0.2, 0.1, 0)]
    block = np.stack([random_interior(rng, 64, 16) for _ in range(3)], axis=1)
    wide = block.copy()
    wide[:, 1] = 0.0
    wide[40, 1] = 1.0
    with pytest.raises(UsageError) as vector:
        fam.action_analytic(gs[1], wide[:, 1])
    with pytest.raises(UsageError) as blocked:
        fam.action_analytic(gs, wide)
    assert str(blocked.value) == str(vector.value)
    # a column near the support limit pushed hard sheds mass, as in the vector case
    hard = block.copy()
    hard[:, 2] = 0.0
    hard[32, 2] = 1.0
    gs[2] = GroupElement(4.0, 4.0, 0.0)
    with pytest.raises(AccuracyError) as vector:
        fam.action_analytic(gs[2], hard[:, 2], defect_tol=1e-12)
    with pytest.raises(AccuracyError) as blocked:
        fam.action_analytic(gs, hard, defect_tol=1e-12)
    assert str(blocked.value).split(" of ")[1] == str(vector.value).split(" of ")[1]
    assert blocked.value.residual == pytest.approx(vector.value.residual, rel=1e-9)
    with pytest.raises(UsageError):
        fam.action_analytic(gs[:2], block)    # one element per column
    with pytest.raises(UsageError):
        fam.act_factored(gs, block[:, 0])     # a sequence needs a block


def test_block_bound_checks_match_the_vector_checks(fam, chain, rng):
    gs = [GroupElement(*rng.uniform(-1, 1, 3)) for _ in range(4)]
    block = np.stack([random_interior(rng, 64, 8) for _ in range(4)], axis=1)
    sharp = norm_bound_sharp_check(fam, chain, gs, block, 2)
    conj = conjugation_residual(fam, chain, gs, [1, 2, 3, 2], block, 1)
    for j, g in enumerate(gs):
        one = norm_bound_sharp_check(fam, chain, g, block[:, j], 2)
        assert sharp.ratio[j] == pytest.approx(one.ratio, rel=1e-12)
        assert sharp.bound[j] == pytest.approx(one.bound, rel=1e-14)
        alone = conjugation_residual(fam, chain, g, [1, 2, 3, 2][j], block[:, j], 1)
        assert abs(conj[j] - alone) < 1e-12
