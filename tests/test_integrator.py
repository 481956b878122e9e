from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from scalerep import blockrep
from scalerep.errors import UsageError
from scalerep.heisenberg import hermite_generators
from scalerep.integrator import (
    conjugation_coefficients,
    conjugation_series_vs_automorphism,
    derivative_identity_check,
    dual_generator_residual,
    dual_operator,
    evaluator_invariants,
    extension_probe,
    homomorphism_residual,
    int_identity_residual,
    integrate_chart,
    interpolation_constancy_residual,
    pairing_residual,
    translated_derivative_residual,
)
from scalerep.liecore import (
    GroupElement,
    ad_series,
    chart_exp,
    group_multiply,
    second_kind_coords,
)
from scalerep.scale import build_scale_chain, scale_norm

from conftest import dense_gens


def chart_oracle(fam, g):
    """Dense T(g): scipy expm of each generator at its second-kind coordinate, in order."""
    gens = dense_gens(fam)
    out = np.eye(len(gens[0]), dtype=complex)
    for X, t in zip(gens, second_kind_coords(g)):
        out = out @ scipy.linalg.expm(t * X)
    return out


def interior(rng, n, modes):
    phi = np.zeros(n, dtype=complex)
    phi[:modes] = rng.standard_normal(modes) + 1j * rng.standard_normal(modes)
    return phi / np.linalg.norm(phi)


ORACLE_FAMILIES = {
    "hermite-16": lambda: hermite_generators(16),
    "hermite-64": lambda: hermite_generators(64),
    "blocks-5": lambda: blockrep.block_generators(5),
}


@pytest.mark.parametrize("name", ORACLE_FAMILIES)
def test_integrate_chart_matches_the_expm_oracle(name):
    # oracle: each factor from scipy expm of its generator, multiplied in order
    family = ORACLE_FAMILIES[name]()
    rng = np.random.default_rng(len(name))
    N = len(dense_gens(family)[0])
    for _ in range(4):
        g = GroupElement(*rng.uniform(-2, 2, 3))
        T = chart_oracle(family, g)
        phi = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        block = rng.standard_normal((N, 5)) + 1j * rng.standard_normal((N, 5))
        for v in (phi, block):
            expect = T @ v
            out = integrate_chart(family, g, v)
            assert out.shape == v.shape
            assert np.linalg.norm(out - expect) <= 1e-12 * np.linalg.norm(expect)
            dual = T.conj().T @ v
            adjoint = integrate_chart(family, g, v, adjoint=True)
            assert np.linalg.norm(adjoint - dual) <= 1e-12 * np.linalg.norm(dual)
        for E, X, t in zip(family.evaluators, dense_gens(family), second_kind_coords(g)):
            U = scipy.linalg.expm(t * X)
            for out, expect in ((E(t, block), U @ block), (E(t, block, True), U.conj().T @ block)):
                assert np.linalg.norm(out - expect) <= 1e-12 * np.linalg.norm(expect)


@pytest.mark.parametrize("name", ORACLE_FAMILIES)
def test_a_block_acts_column_by_column(name):
    # each column of a block against its own vector call: a block runs
    # through matrix-matrix products and a vector through matrix-vector
    # products, whose sums round differently, so the two agree to a few
    # ulps of the column's scale rather than bit for bit
    family = ORACLE_FAMILIES[name]()
    rng = np.random.default_rng(3 + len(name))
    N = len(dense_gens(family)[0])
    g = GroupElement(0.7, -1.3, 0.4)
    block = rng.standard_normal((N, 6)) + 1j * rng.standard_normal((N, 6))
    for adjoint in (False, True):
        apply = partial(integrate_chart, family, g, adjoint=adjoint)
        out = apply(block)
        for k, col in enumerate(block.T):
            single = apply(col)
            assert np.max(np.abs(out[:, k] - single)) <= 1e-14 * np.max(np.abs(single))


def test_evaluator_invariants(fam, blocks, rng):
    phis = [interior(rng, 64, 16) for _ in range(3)]
    for chk in evaluator_invariants(fam, np.array(phis).T):
        assert chk.group_law_residual < 1e-10
        assert chk.derivative_residual < 1e-5
    phis_b = [interior(rng, blocks.dim, blocks.dim) for _ in range(3)]
    for chk in evaluator_invariants(blocks, np.array(phis_b).T):
        assert chk.group_law_residual < 1e-10
        assert chk.derivative_residual < 1e-7


def test_every_kernel_takes_the_model_families_directly(fam, chain, blocks, block_chain, rng):
    g, h = GroupElement(0.4, -0.3, 0.2), GroupElement(-0.2, 0.5, 0.1)
    for model, ch, modes in ((fam, chain, 12), (blocks, block_chain, blocks.dim)):
        gens = dense_gens(model)
        N = len(gens[0])
        phi, F = interior(rng, N, modes), interior(rng, N, N)
        checks = evaluator_invariants(model, np.array([phi, F]).T)
        assert len(checks) == 3   # one per generator
        scale = np.max(np.abs(gens[2])) ** 2  # 1 for Hermite, M^2 for blocks
        assert homomorphism_residual(model, g, h, phi, ch, 1) < 1e-9 * scale
        assert int_identity_residual(model, 1, 2, 0.7, phi, ch, 1) < 1e-6 * scale
        x = (0.4, -0.3, 0.2)
        assert interpolation_constancy_residual(model, x, 0.8, g, phi, ch, 1) < 1e-6 * scale
        assert pairing_residual(model, g, phi, F) < 1e-10 * scale
        assert dual_generator_residual(model, 2, F) < 1e-6
    # the checks that need an algebra element or the conjugation law are Hermite's
    phi = interior(rng, 64, 12)
    assert translated_derivative_residual(fam, (0, 1, 0), 0.2, g, phi, chain, 1) < 1e-4
    (residual,) = derivative_identity_check(fam, (1, 1, 0), 0.3, phi, chain, 1, h_grid=(1e-3,))
    assert residual < 1e-3
    assert conjugation_series_vs_automorphism(fam, 1, 0.6, phi, chain, 1) < 1e-8
    with pytest.raises(UsageError, match="3 coefficients"):
        derivative_identity_check(fam, (1, 1), 0.3, phi, chain, 1)


def test_integrate_chart_identity(fam):
    U = integrate_chart(fam, GroupElement(), np.eye(64))
    assert np.max(np.abs(U - np.eye(64))) < 1e-14


def test_integrate_chart_box(fam, blocks):
    # second-kind coordinates cover the whole group and every evaluator is
    # exact at any time: elements outside the sampling box |xi| <= 2, as
    # hh-06's products of two box-1 elements can be, are applied like any other
    rng = np.random.default_rng(2)
    for model in (fam, blocks):
        N = len(dense_gens(model)[0])
        v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        far = (GroupElement(3.0, 0, 0), GroupElement(1.5, 1.5, 3.0), GroupElement(-2.5, 0.5, -4))
        for g in far:
            T = chart_oracle(model, g)
            for adjoint, expect in ((False, T @ v), (True, T.conj().T @ v)):
                out = integrate_chart(model, g, v, adjoint=adjoint)
                assert np.linalg.norm(out - expect) <= 1e-12 * np.linalg.norm(expect)


@pytest.mark.parametrize("name", ORACLE_FAMILIES)
def test_a_block_element_acts_one_element_per_column(name):
    # a block of K elements against the K single-element calls on the columns
    family = ORACLE_FAMILIES[name]()
    rng = np.random.default_rng(7 + len(name))
    N = len(dense_gens(family)[0])
    xi = rng.uniform(-3, 3, (3, 6))
    block = rng.standard_normal((N, 6)) + 1j * rng.standard_normal((N, 6))
    for adjoint in (False, True):
        apply = partial(integrate_chart, family, adjoint=adjoint)
        out = apply(GroupElement(*xi), block)
        for k in range(6):
            single = apply(GroupElement(*xi[:, k]), block[:, k])
            assert np.linalg.norm(out[:, k] - single) <= 1e-13 * np.linalg.norm(single)
        # too few, too many, a (2, 3) block of them, and a block element with one vector
        for shape in ((3, 5), (3, 7), (3, 2, 3)):
            with pytest.raises(UsageError, match="one group element per block column"):
                apply(GroupElement(*rng.uniform(-1, 1, shape)), block)
        with pytest.raises(UsageError, match="one group element per block column"):
            apply(GroupElement(*xi), block[:, 0])


def test_chart_matches_analytic_action(fam, rng):
    for _ in range(10):
        g = GroupElement(*rng.uniform(-1, 1, 3))
        phi = interior(rng, 64, 16)
        lhs = integrate_chart(fam, g, phi)
        rhs = fam.action_analytic(g, phi)
        assert np.linalg.norm(lhs - rhs) < 1e-6


def test_chart_matches_block_rep(blocks, rng):
    for _ in range(10):
        g = GroupElement(*rng.uniform(-2, 2, 3))
        U = integrate_chart(blocks, g, np.eye(blocks.dim))
        T = blockrep.rep_operator(g, blocks)
        scale = max(1.0, float(np.max(np.abs(T))))
        assert np.max(np.abs(U - T)) / scale < 1e-13


def test_homomorphism_residual(fam, chain, rng):
    for _ in range(5):
        g = GroupElement(*rng.uniform(-0.9, 0.9, 3))
        h = GroupElement(*rng.uniform(-0.9, 0.9, 3))
        phi = interior(rng, 64, 16)
        if max(np.abs(group_multiply(g, h).as_array())) > 2.0:
            continue
        assert homomorphism_residual(fam, g, h, phi, chain, 1) < 1e-6
    phi = interior(rng, 64, 16)
    assert homomorphism_residual(
        fam, GroupElement(0.5, 0, 0), GroupElement(), phi, chain, 1
    ) < 1e-10


def test_int_identity_nilpotent_two_terms(fam, chain, rng):
    phi = interior(rng, 64, 12)
    assert int_identity_residual(fam, 1, 2, 0.0, phi, chain, 1) < 1e-10
    assert int_identity_residual(fam, 1, 2, 0.7, phi, chain, 1) < 1e-6
    assert int_identity_residual(fam, 2, 2, 1.1, phi, chain, 1) < 1e-8
    # explicit two-term oracle: conjugate equals X2 + t [X1, X2] on phi
    t = 0.5
    E = fam.evaluators[0]
    X1, X2, _ = dense_gens(fam)
    lhs = E(t, X2 @ E(-t, phi))
    comm = X1 @ X2 - X2 @ X1
    rhs = (X2 + t * comm) @ phi
    assert scale_norm(chain, lhs - rhs, 1) < 1e-6


def test_conjugation_coefficients_match_the_exact_matrix_model():
    # oracle: the ad series on the 3x3 matrix model, which terminates exactly
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            for t in (0.0, 0.7, -1.3):
                c = conjugation_coefficients(i, j, t)
                model = sum(ck * X for ck, X in zip(c, blockrep.CHIS))
                series = ad_series(blockrep.CHIS[i - 1], blockrep.CHIS[j - 1], t)
                assert np.array_equal(series, model)
    assert np.array_equal(conjugation_coefficients(1, 2, 0.5), [0.0, 1.0, 0.5])
    assert np.array_equal(conjugation_coefficients(2, 1, 0.5), [1.0, 0.0, -0.5])


@pytest.mark.parametrize("n_modes", (64, 160))
def test_int_identity_holds_across_the_whole_chart(n_modes):
    # |t| = 1 at (1, 2) and (2, 1): an ad series summed on the truncated
    # matrices does not terminate there
    hfam = hermite_generators(n_modes)
    chain = build_scale_chain(hfam.scale_family, 2)
    phi = interior(np.random.default_rng(5), n_modes, n_modes // 8)
    for i, j in ((1, 2), (2, 1), (1, 3)):
        for t in (-1.0, 1.0):
            assert int_identity_residual(hfam, i, j, t, phi, chain, 1) < 1e-12


def test_int_identity_blocks_exact(blocks, block_chain, rng):
    phi = interior(rng, blocks.dim, blocks.dim)
    for (i, j, t) in ((1, 2, 0.8), (2, 1, -0.6), (3, 1, 1.2)):
        res = int_identity_residual(blocks, i, j, t, phi, block_chain, 1)
        assert res < 1e-9 * blocks.M**2


def test_int_identity_index_guard(fam, chain):
    phi = np.zeros(64, dtype=complex)
    phi[0] = 1.0
    with pytest.raises(UsageError):
        int_identity_residual(fam, 0, 2, 0.5, phi, chain, 1)


def test_derivative_identity_second_order(fam, chain, rng):
    phi = interior(rng, 64, 12)
    residuals = derivative_identity_check(
        fam, (1.0, 1.0, 0.0), 0.3, phi, chain, 1, h_grid=(1e-2, 5e-3, 2.5e-3)
    )
    for k in range(len(residuals) - 1):
        ratio = residuals[k] / residuals[k + 1]
        assert 3.4 <= ratio <= 4.6
    # the derivative's other form: U X phi agrees with X U phi
    X = partial(fam.apply_generator, (1.0, 1.0, 0.0))
    U = partial(integrate_chart, fam, chart_exp((1.0, 1.0, 0.0), 0.3))
    assert scale_norm(chain, X(U(phi)) - U(X(phi)), 1) < 1e-6


def test_translated_derivative(fam, chain, rng):
    phi = interior(rng, 64, 12)
    res = translated_derivative_residual(
        fam, (0, 1, 0), 0.2, GroupElement(0.3, -0.2, 0.1), phi, chain, 1
    )
    assert res < 1e-4


def test_interpolation_constancy(fam, chain, rng):
    phi = interior(rng, 64, 12)
    res = interpolation_constancy_residual(
        fam, (0.4, -0.3, 0.2), 0.8, GroupElement(0.2, 0.1, -0.3), phi, chain, 1
    )
    assert res < 1e-6


def test_series_matches_automorphism_rows(fam, chain, rng):
    phi = interior(rng, 64, 12)
    for i in (1, 2, 3):
        res = conjugation_series_vs_automorphism(fam, i, 0.6, phi, chain, 1)
        assert res < 1e-8


def test_dual_operator_properties(fam, rng):
    A = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    Ax = dual_operator(A)
    assert np.array_equal(dual_operator(Ax), A)
    phi = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    F = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    # pairing identity for an arbitrary operator
    lhs = np.vdot(A @ phi, F)
    rhs = np.vdot(phi, Ax @ F)
    assert abs(lhs - rhs) < 1e-10 * abs(lhs)


def test_dual_pairing_for_group(fam, rng):
    for _ in range(20):
        g = GroupElement(*rng.uniform(-2, 2, 3))
        phi = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        F = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        assert pairing_residual(fam, g, phi, F) < 1e-10 * np.linalg.norm(phi) * np.linalg.norm(F)
    # a block of K elements with (N, K) blocks gives the K column residuals
    xi = rng.uniform(-2, 2, (3, 5))
    phis = rng.standard_normal((64, 5)) + 1j * rng.standard_normal((64, 5))
    Fs = rng.standard_normal((64, 5)) + 1j * rng.standard_normal((64, 5))
    block = pairing_residual(fam, GroupElement(*xi), phis, Fs)
    assert block.shape == (5,)
    for k in range(5):
        one = pairing_residual(fam, GroupElement(*xi[:, k]), phis[:, k], Fs[:, k])
        assert abs(block[k] - one) < 1e-10 * np.linalg.norm(phis[:, k]) * np.linalg.norm(Fs[:, k])


def test_dual_pairing_sees_a_wrong_adjoint(fam, rng):
    # the pairing is measured, not true by construction: evaluators whose
    # adjoint forgets to conjugate the phases fail it
    forgetful = tuple((lambda t, v, adjoint=False, E=E: E(t, v)) for E in fam.evaluators)
    wrong = SimpleNamespace(evaluators=forgetful)
    g = GroupElement(0.9, -1.1, 0.3)
    phi = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    F = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    assert pairing_residual(wrong, g, phi, F) > 1e-3 * np.linalg.norm(phi) * np.linalg.norm(F)


def test_dual_generator_finite_difference(fam, rng):
    for i in (1, 2, 3):
        F = interior(rng, 64, 32)
        assert dual_generator_residual(fam, i, F) < 1e-6


def test_extension_probe_verdicts():
    t = 1.0
    hermite_ladder = []
    for N in (32, 64, 128):
        fam = hermite_generators(N)
        hermite_ladder.append((N, np.linalg.norm(fam.evaluators[0](t, np.eye(N)), 2)))
    verdict = extension_probe(hermite_ladder)
    assert verdict.verdict == "extends"
    assert all(abs(v - 1.0) < 1e-8 for v in verdict.norms)

    block_ladder = []
    for M in (10, 50, 100):
        bl = blockrep.block_generators(M)
        block_ladder.append((3 * M, blockrep.exp_operator_norm(bl, 1, t)))
    verdict = extension_probe(block_ladder)
    assert verdict.verdict == "does not extend"
    assert verdict.norms[-1] >= 100

    with pytest.raises(UsageError):
        extension_probe(block_ladder[:2])
    with pytest.raises(UsageError):
        extension_probe([(10, 1.0), (10, 1.0), (11, 1.0)])
