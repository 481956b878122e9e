import numpy as np
import pytest

from scalerep.errors import UsageError
from scalerep.hermite import gauss_hermite
from scalerep.scale import (
    GeneratorFamily,
    build_scale_chain,
    group_bound_check,
    monotonicity_check,
    recombined_family,
    scale_norm,
    scale_operator_norm,
)

from conftest import h0


def quadrature_h0_norms():
    """Oracle for the ground-state scale norms, straight from the integrals.

    Generator words act on the closed forms h0' = -x h0, (x h0)' = (1-x^2) h0
    etc.; the Gram recursion is never consulted.
    """
    xs, ws = gauss_hermite(160)
    g = np.pi ** (-0.25) * np.exp(-0.5 * xs * xs)

    def sq(values):
        return float(np.sum(ws * values * values))

    level1 = sq(-xs * g) + sq(xs * g) + sq(g)
    level2 = (
        sq((xs * xs - 1) * g)      # d/dx d/dx h0
        + sq((1 - xs * xs) * g)    # d/dx (x h0), modulus of -i dropped
        + sq(xs * xs * g)          # x h0'
        + sq(xs * xs * g)          # x x h0
        + 2 * (sq(-xs * g) + sq(xs * g))
        + sq(g)
    )
    return level1, level2


def test_h0_norms_match_quadrature_oracle(chain):
    level1, level2 = quadrature_h0_norms()
    assert level1 == pytest.approx(2.0, abs=1e-12)
    assert level2 == pytest.approx(6.0, abs=1e-12)
    assert scale_norm(chain, h0(), 1) ** 2 == pytest.approx(level1, abs=1e-9)
    assert scale_norm(chain, h0(), 2) ** 2 == pytest.approx(level2, abs=1e-9)


def test_zero_family_grams_stay_identity():
    fam = GeneratorFamily(8, (np.zeros((8, 8)),) * 2, ("A", "B"), 7)
    chain = build_scale_chain(fam, 3)
    for G in chain.grams:
        assert np.array_equal(G, np.eye(8))


def test_level_zero_is_euclidean(chain, rng):
    phi = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    assert scale_norm(chain, phi, 0) == pytest.approx(np.linalg.norm(phi), rel=1e-14)
    assert scale_norm(chain, np.zeros(64), 3) == 0.0


def test_scale_norm_validation(chain):
    with pytest.raises(UsageError):
        scale_norm(chain, np.zeros(64), 4)
    with pytest.raises(UsageError):
        scale_norm(chain, np.zeros(63), 1)


def test_guard_band_rejects_deep_chains(fam):
    family = fam.scale_family
    assert family.max_safe_depth() == (family.interior_bound - 1) // 2
    with pytest.raises(UsageError) as err:
        build_scale_chain(family, family.max_safe_depth() + 1)
    assert str(family.max_safe_depth()) in str(err.value)
    with pytest.raises(UsageError):
        build_scale_chain(family, -1)


def test_interior_budget_shrinks_with_depth(fam):
    family = fam.scale_family
    assert family.interior_modes(0) == 63
    assert family.interior_modes(2) == 59
    family.require_interior(10, 3)
    with pytest.raises(UsageError):
        family.require_interior(60, 3)


def test_monotonicity_random_vectors(chain, rng):
    for n in range(3):
        for _ in range(50):
            modes = chain.family.interior_modes(n + 1)
            phi = np.zeros(64, dtype=complex)
            phi[:modes] = rng.standard_normal(modes) + 1j * rng.standard_normal(modes)
            res = monotonicity_check(chain, phi, n)
            assert res.passed
            assert res.lhs <= res.rhs * (1 + 1e-12)
    res = monotonicity_check(chain, np.zeros(64), 0)
    assert res.passed and res.lhs == res.rhs == 0.0


def test_monotonicity_h0_instance(chain, fam):
    # ||X2 h0||_0 = 1/sqrt(2) <= ||h0||_1 = sqrt(2)
    lhs = scale_norm(chain, fam.x2 @ h0(), 0)
    assert lhs == pytest.approx(2 ** -0.5, abs=1e-12)
    assert lhs <= scale_norm(chain, h0(), 1)
    with pytest.raises(UsageError):
        monotonicity_check(chain, h0(), 3)


def test_increment_psd(chain, block_chain):
    assert chain.increment_eigenvalue_floor() >= -1e-12
    assert block_chain.increment_eigenvalue_floor() >= -1e-12


def test_gram_hermitian(chain):
    assert chain.hermiticity_residual() < 1e-12


def test_basis_invariance_orthogonal(chain):
    theta = 0.73
    O = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    alt = build_scale_chain(recombined_family(chain.family, O), 3)
    for a, b in zip(alt.grams, chain.grams):
        scale = max(1.0, float(np.max(np.abs(b))))
        assert np.max(np.abs(a - b)) / scale < 1e-12


def test_recombination_validation(chain):
    with pytest.raises(UsageError):
        recombined_family(chain.family, np.eye(3))


def test_group_bound_identity_element(chain):
    res = group_bound_check(chain, lambda v: v, 1.0, np.eye(3), 2, h0())
    assert res.passed
    assert res.bound == pytest.approx((1 + 3.0) ** 2 * scale_norm(chain, h0(), 2))


def test_group_bound_margin_enforced(chain):
    phi = np.zeros(64, dtype=complex)
    phi[62] = 1.0
    with pytest.raises(UsageError):
        group_bound_check(chain, lambda v: v, 1.0, np.eye(3), 2, phi)


def test_scale_operator_norm_identity(chain):
    assert scale_operator_norm(chain, np.eye(64), 2) == pytest.approx(1.0, abs=1e-10)
    # interior restriction of a diagonal matrix picks the interior max
    D = np.diag(np.arange(64, dtype=float))
    nrm = scale_operator_norm(chain, D, 0, interior_modes=10)
    assert nrm == pytest.approx(9.0, abs=1e-8)


def test_norm_homogeneity_and_triangle(chain, rng):
    top = float(np.max(np.abs(chain.gram(3))))
    for _ in range(50):
        phi = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        psi = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        c = complex(*rng.standard_normal(2))
        n = int(rng.integers(0, 4))
        assert abs(
            scale_norm(chain, c * phi, n) - abs(c) * scale_norm(chain, phi, n)
        ) < 1e-12 * top
        assert scale_norm(chain, phi + psi, n) <= (
            scale_norm(chain, phi, n) + scale_norm(chain, psi, n) + 1e-12 * top
        )


def test_family_validation():
    with pytest.raises(UsageError):
        GeneratorFamily(4, (np.zeros((3, 3)),), ("A",), 3)
    with pytest.raises(UsageError):
        GeneratorFamily(4, (np.zeros((4, 4)),), ("A", "B"), 3)
    with pytest.raises(UsageError):
        GeneratorFamily(4, (np.zeros((4, 4)),), ("A",), 9)
    with pytest.raises(UsageError):
        GeneratorFamily(4, (np.zeros((4, 4)),), ("A",), 3, band_growth=-1)
