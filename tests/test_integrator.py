from functools import partial

import numpy as np
import pytest
import scipy.linalg

from scalerep import blockrep
from scalerep.errors import UsageError
from scalerep.heisenberg import hermite_generators
from scalerep.integrator import (
    IntegrableFamily,
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


def hermite_family(hfam):
    return IntegrableFamily(hfam.gens, hfam.evaluators)


def block_family(blocks):
    evaluators = tuple(partial(blockrep.exp_apply, blocks, i) for i in (1, 2, 3))
    return IntegrableFamily(blocks.gens, evaluators)


def chart_oracle(ifam, g):
    """Dense T(g): scipy expm of each generator at its second-kind coordinate, in order."""
    out = np.eye(ifam.dim, dtype=complex)
    for X, t in zip(ifam.gens, second_kind_coords(g)):
        out = out @ scipy.linalg.expm(t * X)
    return out


@pytest.fixture(scope="module")
def ifam(fam):
    return hermite_family(fam)


@pytest.fixture(scope="module")
def bfam(blocks):
    return block_family(blocks)


def interior(rng, n, modes):
    phi = np.zeros(n, dtype=complex)
    phi[:modes] = rng.standard_normal(modes) + 1j * rng.standard_normal(modes)
    return phi / np.linalg.norm(phi)


def test_family_validation(fam):
    with pytest.raises(UsageError):
        IntegrableFamily(gens=fam.gens, evaluators=(), labels=("X1",))
    with pytest.raises(UsageError):
        IntegrableFamily(fam.gens, fam.evaluators[:2])


ORACLE_FAMILIES = {
    "hermite-16": lambda: hermite_family(hermite_generators(16)),
    "hermite-64": lambda: hermite_family(hermite_generators(64)),
    "blocks-5": lambda: block_family(blockrep.block_generators(5)),
}


@pytest.mark.parametrize("name", ORACLE_FAMILIES)
def test_integrate_chart_matches_the_expm_oracle(name):
    # oracle: each factor from scipy expm of its generator, multiplied in order
    family = ORACLE_FAMILIES[name]()
    rng = np.random.default_rng(len(name))
    N = family.dim
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
        for E, X, t in zip(family.evaluators, family.gens, second_kind_coords(g)):
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
    N = family.dim
    g = GroupElement(0.7, -1.3, 0.4)
    block = rng.standard_normal((N, 6)) + 1j * rng.standard_normal((N, 6))
    for adjoint in (False, True):
        apply = partial(integrate_chart, family, g, adjoint=adjoint)
        out = apply(block)
        for k, col in enumerate(block.T):
            single = apply(col)
            assert np.max(np.abs(out[:, k] - single)) <= 1e-14 * np.max(np.abs(single))


def test_evaluator_invariants(ifam, bfam, rng, blocks):
    phis = [interior(rng, 64, 16) for _ in range(3)]
    for chk in evaluator_invariants(ifam, phis):
        assert chk.group_law_residual < 1e-10
        assert chk.derivative_residual < 1e-5
    phis_b = [interior(rng, blocks.dim, blocks.dim) for _ in range(3)]
    for chk in evaluator_invariants(bfam, phis_b):
        assert chk.group_law_residual < 1e-10
        assert chk.derivative_residual < 1e-7


def test_integrate_chart_identity(ifam):
    U = integrate_chart(ifam, GroupElement(), np.eye(64))
    assert np.max(np.abs(U - np.eye(64))) < 1e-14


def test_integrate_chart_box(ifam):
    with pytest.raises(UsageError):
        integrate_chart(ifam, GroupElement(3.0, 0, 0), np.eye(64)[0])
    with pytest.raises(UsageError):
        integrate_chart(ifam, GroupElement(3.0, 0, 0), np.eye(64)[0], adjoint=True)


def test_chart_matches_analytic_action(ifam, fam, rng):
    for _ in range(10):
        g = GroupElement(*rng.uniform(-1, 1, 3))
        phi = interior(rng, 64, 16)
        lhs = integrate_chart(ifam, g, phi)
        rhs = fam.action_analytic(g, phi)
        assert np.linalg.norm(lhs - rhs) < 1e-6


def test_chart_matches_block_rep(bfam, blocks, rng):
    for _ in range(10):
        g = GroupElement(*rng.uniform(-2, 2, 3))
        U = integrate_chart(bfam, g, np.eye(blocks.dim))
        T = blockrep.rep_operator(g, blocks)
        scale = max(1.0, float(np.max(np.abs(T))))
        assert np.max(np.abs(U - T)) / scale < 1e-13


def test_homomorphism_residual(ifam, chain, rng):
    for _ in range(5):
        g = GroupElement(*rng.uniform(-0.9, 0.9, 3))
        h = GroupElement(*rng.uniform(-0.9, 0.9, 3))
        phi = interior(rng, 64, 16)
        if max(np.abs(group_multiply(g, h).as_array())) > 2.0:
            continue
        assert homomorphism_residual(ifam, g, h, phi, chain, 1) < 1e-6
    phi = interior(rng, 64, 16)
    assert homomorphism_residual(
        ifam, GroupElement(0.5, 0, 0), GroupElement(), phi, chain, 1
    ) < 1e-10


def test_homomorphism_chart_guard(ifam, chain):
    phi = np.zeros(64, dtype=complex)
    phi[0] = 1.0
    with pytest.raises(UsageError):
        homomorphism_residual(
            ifam, GroupElement(1.5, 0, 0), GroupElement(1.5, 1.5, 0), phi, chain, 0
        )


def test_int_identity_nilpotent_two_terms(ifam, fam, chain, rng):
    phi = interior(rng, 64, 12)
    assert int_identity_residual(ifam, 1, 2, 0.0, phi, chain, 1) < 1e-10
    assert int_identity_residual(ifam, 1, 2, 0.7, phi, chain, 1) < 1e-6
    assert int_identity_residual(ifam, 2, 2, 1.1, phi, chain, 1) < 1e-8
    # explicit two-term oracle: conjugate equals X2 + t [X1, X2] on phi
    t = 0.5
    E = ifam.evaluators[0]
    lhs = E(t, fam.x2 @ E(-t, phi))
    comm = fam.x1 @ fam.x2 - fam.x2 @ fam.x1
    rhs = (fam.x2 + t * comm) @ phi
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
    ifam = hermite_family(hfam)
    chain = build_scale_chain(hfam.scale_family, 2)
    phi = interior(np.random.default_rng(5), n_modes, n_modes // 8)
    for i, j in ((1, 2), (2, 1), (1, 3)):
        for t in (-1.0, 1.0):
            assert int_identity_residual(ifam, i, j, t, phi, chain, 1) < 1e-12


def test_int_identity_blocks_exact(bfam, blocks, block_chain, rng):
    phi = interior(rng, blocks.dim, blocks.dim)
    for (i, j, t) in ((1, 2, 0.8), (2, 1, -0.6), (3, 1, 1.2)):
        res = int_identity_residual(bfam, i, j, t, phi, block_chain, 1)
        assert res < 1e-9 * blocks.M**2


def test_int_identity_index_guard(ifam, chain):
    phi = np.zeros(64, dtype=complex)
    phi[0] = 1.0
    with pytest.raises(UsageError):
        int_identity_residual(ifam, 0, 2, 0.5, phi, chain, 1)


def test_derivative_identity_second_order(ifam, chain, rng):
    phi = interior(rng, 64, 12)
    rows = derivative_identity_check(
        ifam, (1.0, 1.0, 0.0), 0.3, phi, chain, 1, h_grid=(1e-2, 5e-3, 2.5e-3)
    )
    for k in range(len(rows) - 1):
        ratio = rows[k].residual_left / rows[k + 1].residual_left
        assert 3.4 <= ratio <= 4.6
    for row in rows:
        assert abs(row.residual_left - row.residual_right) < 1e-6


def test_translated_derivative(ifam, chain, rng):
    phi = interior(rng, 64, 12)
    res = translated_derivative_residual(
        ifam, (0, 1, 0), 0.2, GroupElement(0.3, -0.2, 0.1), phi, chain, 1
    )
    assert res < 1e-4


def test_interpolation_constancy(ifam, chain, rng):
    phi = interior(rng, 64, 12)
    res = interpolation_constancy_residual(
        ifam, (0.4, -0.3, 0.2), 0.8, GroupElement(0.2, 0.1, -0.3), phi, chain, 1
    )
    assert res < 1e-6


def test_series_matches_automorphism_rows(ifam, fam, chain, rng):
    phi = interior(rng, 64, 12)
    for i in (1, 2, 3):
        res = conjugation_series_vs_automorphism(ifam, fam, i, 0.6, phi, chain, 1)
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


def test_dual_pairing_for_group(ifam, rng):
    for _ in range(20):
        g = GroupElement(*rng.uniform(-2, 2, 3))
        phi = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        F = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        assert pairing_residual(ifam, g, phi, F) < 1e-10 * np.linalg.norm(phi) * np.linalg.norm(F)


def test_dual_pairing_sees_a_wrong_adjoint(ifam, rng):
    # the pairing is measured, not true by construction: evaluators whose
    # adjoint forgets to conjugate the phases fail it
    forgetful = tuple((lambda t, v, adjoint=False, E=E: E(t, v)) for E in ifam.evaluators)
    wrong = IntegrableFamily(ifam.gens, forgetful)
    g = GroupElement(0.9, -1.1, 0.3)
    phi = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    F = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    assert pairing_residual(wrong, g, phi, F) > 1e-3 * np.linalg.norm(phi) * np.linalg.norm(F)


def test_dual_generator_finite_difference(ifam, rng):
    for i in (1, 2, 3):
        F = interior(rng, 64, 32)
        assert dual_generator_residual(ifam, i, F) < 1e-6


def test_extension_probe_verdicts():
    t = 1.0
    hermite_ladder = []
    for N in (32, 64, 128):
        fam = hermite_generators(N)
        hermite_ladder.append((N, np.linalg.norm(fam.evaluators[0](t, np.eye(N)), 2)))
    verdict = extension_probe(hermite_ladder, t, label="X1")
    assert verdict.verdict == "extends"
    assert all(abs(v - 1.0) < 1e-8 for v in verdict.norms)

    block_ladder = []
    for M in (10, 50, 100):
        bl = blockrep.block_generators(M)
        block_ladder.append((3 * M, blockrep.exp_operator_norm(bl, 1, t)))
    verdict = extension_probe(block_ladder, t, label="X1")
    assert verdict.verdict == "does not extend"
    assert verdict.norms[-1] >= 100

    with pytest.raises(UsageError):
        extension_probe(block_ladder[:2], t)
    with pytest.raises(UsageError):
        extension_probe([(10, 1.0), (10, 1.0), (11, 1.0)], t)
