import numpy as np
import pytest

from scalerep import blockrep
from scalerep.errors import UsageError
from scalerep.heisenberg import hermite_generators
from scalerep.integrator import (
    IntegrableFamily,
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
from scalerep.liecore import GroupElement, chart_exp, group_multiply
from scalerep.scale import scale_norm


@pytest.fixture(scope="module")
def ifam(fam):
    return IntegrableFamily(
        gens=fam.gens,
        evaluators=tuple((lambda t, i=i: fam.one_parameter(i, t)) for i in (1, 2, 3)),
        labels=("X1", "X2", "X3"),
    )


@pytest.fixture(scope="module")
def bfam(blocks):
    return IntegrableFamily(
        gens=blocks.gens,
        evaluators=tuple(
            (lambda t, i=i: blockrep.exp_generator(blocks, i, t)) for i in (1, 2, 3)
        ),
        labels=("X1", "X2", "X3"),
    )


def interior(rng, n, modes):
    phi = np.zeros(n, dtype=complex)
    phi[:modes] = rng.standard_normal(modes) + 1j * rng.standard_normal(modes)
    return phi / np.linalg.norm(phi)


def test_family_validation(fam):
    with pytest.raises(UsageError):
        IntegrableFamily(gens=fam.gens, evaluators=(), labels=("X1",))


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
    U = integrate_chart(ifam, GroupElement())
    assert np.max(np.abs(U - np.eye(64))) < 1e-14


def test_integrate_chart_box(ifam):
    with pytest.raises(UsageError):
        integrate_chart(ifam, GroupElement(3.0, 0, 0))


def test_chart_matches_analytic_action(ifam, fam, rng):
    for _ in range(10):
        g = GroupElement(*rng.uniform(-1, 1, 3))
        phi = interior(rng, 64, 16)
        lhs = integrate_chart(ifam, g) @ phi
        rhs = fam.action_analytic(g, phi)
        assert np.linalg.norm(lhs - rhs) < 1e-6


def test_chart_matches_block_rep(bfam, blocks, rng):
    for _ in range(10):
        g = GroupElement(*rng.uniform(-2, 2, 3))
        U = integrate_chart(bfam, g)
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
    lhs = E(t) @ (fam.x2 @ (E(-t) @ phi))
    comm = fam.x1 @ fam.x2 - fam.x2 @ fam.x1
    rhs = (fam.x2 + t * comm) @ phi
    assert scale_norm(chain, lhs - rhs, 1) < 1e-6


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


def test_dual_pairing_for_group(fam, rng):
    for _ in range(20):
        g = GroupElement(*rng.uniform(-2, 2, 3))
        Tg = fam.action_factored(g)
        phi = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        F = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        assert pairing_residual(Tg, phi, F) < 1e-10 * np.linalg.norm(phi) * np.linalg.norm(F)


def test_dual_generator_finite_difference(ifam, rng):
    for i in (1, 2, 3):
        F = interior(rng, 64, 32)
        assert dual_generator_residual(ifam, i, F) < 1e-6


def test_extension_probe_verdicts():
    t = 1.0
    hermite_ladder = []
    for N in (32, 64, 128):
        fam = hermite_generators(N)
        hermite_ladder.append((N, fam.one_parameter(1, t)))
    verdict = extension_probe(hermite_ladder, t, label="X1")
    assert verdict.verdict == "extends"
    assert all(abs(v - 1.0) < 1e-8 for v in verdict.norms)

    block_ladder = []
    for M in (10, 50, 100):
        bl = blockrep.block_generators(M)
        block_ladder.append((3 * M, blockrep.exp_generator(bl, 1, t)))
    verdict = extension_probe(block_ladder, t, label="X1")
    assert verdict.verdict == "does not extend"
    assert verdict.norms[-1] >= 100

    with pytest.raises(UsageError):
        extension_probe(block_ladder[:2], t)
    with pytest.raises(UsageError):
        extension_probe([(10, np.eye(2)), (10, np.eye(2)), (11, np.eye(2))], t)
