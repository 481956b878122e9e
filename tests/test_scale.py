import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from scalerep.blockrep import block_generators, h1_operator_norm, rep_operator
from scalerep.errors import UsageError
from scalerep.heisenberg import hermite_generators
from scalerep.hermite import gauss_hermite, position_rows
from scalerep.liecore import GroupElement
from scalerep.scale import (
    BandedGram,
    DiagonalGram,
    GeneratorFamily,
    banded_adjoint,
    banded_apply,
    banded_product,
    bound_check,
    build_scale_chain,
    monotonicity_check,
    recombined_family,
    scale_norm,
    scale_operator_norm,
)
from scalerep.suites import SuiteConfig

from conftest import dense, dense_chain, dense_gens, h0


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
    fam = GeneratorFamily((np.zeros((3, 8)),) * 2)
    chain = build_scale_chain(fam, 3)
    for G in chain.grams:
        assert np.array_equal(G.dense(), np.eye(8))


def test_level_zero_is_euclidean(chain, rng):
    phi = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    assert scale_norm(chain, phi, 0) == pytest.approx(np.linalg.norm(phi), rel=1e-14)
    assert scale_norm(chain, np.zeros(64), 3) == 0.0


def test_scale_norm_validation(chain):
    with pytest.raises(UsageError):
        scale_norm(chain, np.zeros(64), 4)
    with pytest.raises(UsageError):
        scale_norm(chain, np.zeros(63), 1)
    with pytest.raises(UsageError):
        scale_norm(chain, np.zeros((64, 2, 2)), 1)


def test_block_scale_norms_are_the_column_norms_bit_for_bit(chain, block_chain, fam, rng):
    # oracle: the per-vector norm of each column, for each Gram structure
    dense = build_scale_chain(recombined_family(fam.scale_family, np.eye(2)), 2)
    for ch, dim in ((chain, 64), (dense, 64), (block_chain, block_chain.family.dim)):
        block = rng.standard_normal((dim, 7)) + 1j * rng.standard_normal((dim, 7))
        block[:, 3] = 0.0
        for n in range(ch.n_max + 1):
            norms = scale_norm(ch, block, n)
            assert norms.shape == (7,)
            for j in range(7):
                assert norms[j] == scale_norm(ch, block[:, j], n)


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
            slack = 1e-12 * max(1.0, res.rhs)
            assert res.lhs <= res.rhs + slack
            assert all(g <= res.rhs + slack for g in res.generator_lhs)
            assert res.lhs <= res.rhs * (1 + 1e-12)
    res = monotonicity_check(chain, np.zeros(64), 0)
    assert res.lhs == res.rhs == 0.0 and res.generator_lhs == (0.0, 0.0)


def test_monotonicity_h0_instance(chain, fam):
    # ||X2 h0||_0 = 1/sqrt(2) <= ||h0||_1 = sqrt(2)
    lhs = scale_norm(chain, fam.apply_generator((0, 1, 0), h0()), 0)
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
        scale = max(1.0, float(np.max(np.abs(b.weights))))
        assert np.max(np.abs(a.dense() - np.diag(b.weights))) / scale < 1e-12


def test_recombination_validation(chain):
    with pytest.raises(UsageError):
        recombined_family(chain.family, np.eye(3))


def test_group_bound_identity_element(chain):
    # generic factor (1 + sum_ij |f_ij|)^n at f = I
    res = bound_check(chain, lambda v: v, h0(), 2, (1 + np.sum(np.abs(np.eye(3)))) ** 2)
    assert res.lhs <= res.bound * (1 + 1e-6)
    assert res.bound == pytest.approx((1 + 3.0) ** 2 * scale_norm(chain, h0(), 2))


def test_group_bound_margin_enforced(chain):
    phi = np.zeros(64, dtype=complex)
    phi[62] = 1.0
    with pytest.raises(UsageError):
        bound_check(chain, lambda v: v, phi, 2, (1 + np.sum(np.abs(np.eye(3)))) ** 2)


def test_scale_operator_norm_identity(chain):
    assert scale_operator_norm(chain, np.eye(64), 2) == pytest.approx(1.0, abs=1e-10)
    # interior restriction of a diagonal matrix picks the interior max
    D = np.diag(np.arange(64, dtype=float))
    nrm = scale_operator_norm(chain, D[:, :10], 0)
    assert nrm == pytest.approx(9.0, abs=1e-8)


def test_norm_homogeneity_and_triangle(chain, rng):
    top = float(np.max(np.abs(chain.gram(3).weights)))
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
        GeneratorFamily((np.zeros((3, 4)), np.zeros((3, 3))))
    with pytest.raises(UsageError):
        GeneratorFamily((np.zeros((4, 3)),))
    fam = GeneratorFamily((np.zeros((3, 4)),) * 2)
    assert (fam.dim, fam.d, fam.interior_bound, fam.band_growth) == (4, 2, 3, 1)
    assert fam.gram_form is BandedGram
    # a declared coupling makes the family diagonal, and only (3, N) rows declare one
    assert GeneratorFamily((np.zeros((3, 4)),), np.zeros((3, 4))).gram_form is DiagonalGram
    with pytest.raises(UsageError, match="coupling"):
        GeneratorFamily((np.zeros((3, 4)),), np.zeros((4, 4)))


def cholesky_operator_norm(G, A, k):
    """sup over the leading k modes of ||A phi||_G / ||phi||_G, via Cholesky factors."""
    L = scipy.linalg.cholesky(G, lower=True)
    Lk = scipy.linalg.cholesky(G[:k, :k], lower=True)
    return np.linalg.norm(L.conj().T @ A[:, :k] @ np.linalg.inv(Lk.conj().T), 2)


@pytest.mark.parametrize("N", (8, 64, 160, 320))
def test_diagonal_chain_matches_the_dense_recursion(N):
    eps = np.finfo(float).eps
    family = hermite_generators(N).scale_family
    n_max = min(3, family.max_safe_depth())
    chain = build_scale_chain(family, n_max)
    oracle = dense_chain(dense_gens(family), n_max)
    for n, (G, form) in enumerate(zip(oracle, chain.grams)):
        assert isinstance(form, DiagonalGram) and form.weights.shape == (N,)
        # the off-diagonal terms of X1 and X2 cancel exactly, not to rounding
        assert np.max(np.abs(G - np.diag(np.diag(G)))) == 0.0
        assert np.max(np.abs(np.diag(G).imag)) == 0.0
        # positive sums: at most a few roundings per level
        rel = np.abs(np.diag(G).real - form.weights) / form.weights
        assert np.max(rel) <= 4 * n * eps
    rng = np.random.default_rng(N)
    A = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    floors = [np.min(np.linalg.eigvalsh(b - a)) for a, b in zip(oracle, oracle[1:])]
    assert chain.increment_eigenvalue_floor() == pytest.approx(min(floors), rel=1e-13, abs=0)
    for n, G in enumerate(oracle):
        for phi in A[:, :3].T:
            dense = np.sqrt(np.vdot(phi, G @ phi).real)
            assert scale_norm(chain, phi, n) == pytest.approx(dense, rel=1e-13, abs=0)
        for k in (N, max(1, N // 4)):
            oracle_norm = cholesky_operator_norm(G, A, k)
            measured = scale_operator_norm(chain, A[:, :k], n)
            assert measured == pytest.approx(oracle_norm, rel=1e-13, abs=0)


@pytest.mark.parametrize("N", (64, 640))
def test_the_hermite_chain_weights_are_the_integer_polynomials(N):
    # the coupling |X1|^2 + |X2|^2 is held as the exact integers k, so the
    # interior weights are exact: w_1 = 2m + 2 and w_2 = 4m^2 + 8m + 6
    chain = build_scale_chain(hermite_generators(N).scale_family, 2)
    m = np.arange(N)
    assert np.array_equal(chain.gram(1).weights[:-1], 2 * m[:-1] + 2)
    assert np.array_equal(chain.gram(2).weights[:-2], 4 * m[:-2] ** 2 + 8 * m[:-2] + 6)


@pytest.mark.parametrize("N", (13, 64, 160, 450))
@pytest.mark.parametrize("K", (1, 7, 25, 100))
def test_diagonal_scale_norm_is_the_per_column_vdot(N, K):
    # oracle: the vdot of each column, as one contiguous vector, with its weighted copy
    family = hermite_generators(N).scale_family
    chain = build_scale_chain(family, min(3, family.max_safe_depth()))
    rng = np.random.default_rng(N + K)
    block = rng.standard_normal((N, K)) + 1j * rng.standard_normal((N, K))
    block[:, 0] = 0.0
    for n in range(chain.n_max + 1):
        w = chain.gram(n).weights
        expected = [np.sqrt(max(np.vdot(c, w * c).real, 0.0)) for c in block.T.copy()]
        assert np.array_equal(scale_norm(chain, block, n), expected)
        assert scale_norm(chain, block[:, -1], n) == expected[-1]


def weighted_block(chain, A, n, k):
    root = np.sqrt(chain.gram(n).weights)
    return root[:, None] * A[:, :k] / root[None, :k]


@pytest.mark.parametrize("N", (13, 64, 160))
def test_gram_route_operator_norm_is_the_spectral_norm(N):
    family = hermite_generators(N).scale_family
    chain = build_scale_chain(family, min(3, family.max_safe_depth()))
    rng = np.random.default_rng(N)
    A = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    for n in range(chain.n_max + 1):
        for k in (1, N // 4, N // 2, N):
            oracle = np.linalg.norm(weighted_block(chain, A, n, k), 2)
            measured = scale_operator_norm(chain, A[:, :k], n)
            assert measured == pytest.approx(oracle, rel=1e-13, abs=0)


def test_scale_operator_norm_rejects_a_block_it_cannot_read(chain):
    for bad in (
        np.ones((63, 16)),
        np.ones((64, 65)),
        np.ones((64, 0)),
        np.ones(64),
        np.ones((1, 64, 16)),
    ):
        with pytest.raises(UsageError):
            scale_operator_norm(chain, bad, 1)


def test_scale_operator_norm_needs_a_diagonal_chain(block_chain):
    fam = GeneratorFamily((np.zeros((3, 8)),) * 2)
    with pytest.raises(UsageError):
        scale_operator_norm(build_scale_chain(fam, 1), np.eye(8), 1)
    # the block model's chain is diagonal: its level-1 norm of T(g) is the blockwise one
    blocks = block_chain.family
    g = GroupElement(1.0, -0.5, 0.75)
    measured = scale_operator_norm(block_chain, rep_operator(g, blocks), 1)
    assert measured == pytest.approx(h1_operator_norm(blocks, g), rel=1e-12, abs=0)


def test_block_monotonicity_gives_the_column_checks(chain, rng):
    for n in range(3):
        modes = chain.family.interior_modes(n + 1)
        block = np.zeros((64, 12), dtype=complex)
        block[:modes] = rng.standard_normal((modes, 12)) + 1j * rng.standard_normal((modes, 12))
        block[:, 5] = 0.0
        res = monotonicity_check(chain, block, n)
        slack = 1e-12 * np.maximum(1.0, res.rhs)
        assert res.lhs.shape == (12,) and (res.lhs <= res.rhs + slack).all()
        assert all((g <= res.rhs + slack).all() for g in res.generator_lhs)
        for j in range(12):
            col = monotonicity_check(chain, block[:, j], n)
            # the norms of a block are the column norms bit for bit; X @ block is a
            # matrix product, which BLAS may round differently from X @ column
            assert (res.lhs[j], res.rhs[j]) == (col.lhs, col.rhs)
            assert np.allclose([g[j] for g in res.generator_lhs], col.generator_lhs, rtol=1e-14)


@pytest.mark.parametrize("N", (5, 8, 13, 16))
def test_banded_chain_matches_the_dense_recursion(N):
    eps = np.finfo(float).eps
    rng = np.random.default_rng(N)
    base = hermite_generators(N).scale_family
    for theta in rng.uniform(0, 2 * np.pi, 3):
        c, s = np.cos(theta), np.sin(theta)
        for O in (np.array([[c, -s], [s, c]]), np.array([[c, -s], [-s, -c]])):
            family = recombined_family(base, O)
            chain = build_scale_chain(family, family.max_safe_depth())
            oracle = dense_chain(dense_gens(family), chain.n_max)
            for n, (form, G) in enumerate(zip(chain.grams, oracle)):
                assert form.bands.shape == (4 * n + 1, N)
                dense = form.dense()
                assert np.max(np.abs(dense - G)) <= 4 * eps * max(1.0, np.max(np.abs(G)))
                outside = np.abs(np.subtract.outer(np.arange(N), np.arange(N))) > 2 * n
                assert not dense[outside].any()
                assert np.array_equal(form.bands[2 * n].real, np.diag(dense).real)


def test_rows_of_a_wrong_shape_or_past_an_edge_are_refused():
    rows = np.ones((3, 6))
    rows[0, 0] = rows[2, -1] = 0.0
    GeneratorFamily((rows, np.zeros((3, 6))))
    for bad in (
        (np.zeros((6, 6)), rows),          # a dense matrix
        (np.zeros((3, 6, 1)), rows),       # rows of the wrong shape
        (np.zeros((3, 5)), rows),          # rows of mixed N
    ):
        with pytest.raises(UsageError, match="rows of one size N"):
            GeneratorFamily(bad)
    for edge in ((0, 0), (2, -1)):       # X[0, -1] and X[N - 1, N]
        past = rows.copy()
        past[edge] = 1.0
        with pytest.raises(UsageError, match="zero past the edges"):
            GeneratorFamily((np.zeros((3, 6)), past))


def inside(N, b):
    """Where the (2b + 1, N) diagonals of a band hold entries: (i, i + d) in range."""
    column = np.arange(N) + np.arange(-b, b + 1)[:, None]
    return (0 <= column) & (column < N)


def random_band(rng, N, b, complex_):
    """Random diagonals of half-width b, zero past the edges."""
    A = rng.standard_normal((2 * b + 1, N))
    if complex_:
        A = A + 1j * rng.standard_normal((2 * b + 1, N))
    return np.where(inside(N, b), A, 0)


@pytest.mark.parametrize("N", (4, 13, 64))
@pytest.mark.parametrize("complex_", (False, True))
def test_the_row_kernels_are_the_dense_products(N, complex_):
    eps = np.finfo(float).eps
    rng = np.random.default_rng(N + complex_)
    offsets = np.subtract.outer(np.arange(N), np.arange(N))
    for b in range(4):   # A's half-width
        A = random_band(rng, N, b, complex_)
        DA = dense(A)
        v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        for x in (v, v.real, rng.standard_normal((N, 5)) + 1j * rng.standard_normal((N, 5))):
            expect = DA @ x   # the edge rows included
            out = banded_apply(A, x)
            assert out.shape == x.shape
            bound = (2 * b + 2) * eps * np.max(np.abs(DA)) * np.max(np.abs(x))
            assert np.max(np.abs(out - expect)) <= bound
        adjoint = banded_adjoint(A)
        assert adjoint.shape == A.shape and np.array_equal(dense(adjoint), DA.conj().T)
        assert not adjoint[~inside(N, b)].any()
        for c in (0, 1, 3):   # B's half-width: unequal to A's but in one case
            B = random_band(rng, N, c, complex_)
            DB = dense(B)
            product, expect = banded_product(A, B), DA @ DB
            assert product.shape == (2 * (b + c) + 1, N)
            assert not product[~inside(N, b + c)].any()
            assert not expect[np.abs(offsets) > b + c].any()
            scale = 2 * (2 * min(b, c) + 2) * eps * np.max(np.abs(DA)) * np.max(np.abs(DB))
            assert np.max(np.abs(dense(product) - expect)) <= scale


@pytest.mark.parametrize("M", (1, 5, 50))
def test_the_block_model_applies_each_generator_as_its_dense_product(M):
    fam = block_generators(M)
    rng = np.random.default_rng(M)
    v = rng.standard_normal(fam.dim) + 1j * rng.standard_normal(fam.dim)
    block = rng.standard_normal((fam.dim, 4)) + 1j * rng.standard_normal((fam.dim, 4))
    for x, S in zip(np.eye(3), fam.stacks):
        D = dense(S)
        for w in (v, v.real, block):
            assert np.array_equal(fam.apply_generator(x, w), D @ w)
            assert np.array_equal(fam.apply_generator(x, w, adjoint=True), D.T @ w)
    x = np.array([0.3, -1.2, 0.7])
    combined = sum(c * dense(S) for c, S in zip(x, fam.stacks))
    assert np.allclose(fam.apply_generator(x, block), combined @ block, rtol=1e-15, atol=0)
    with pytest.raises(UsageError, match="3 coefficients"):
        fam.apply_generator((1, 0), v)


def test_generator_rows_are_read_only():
    fam = hermite_generators(16)
    recombined = recombined_family(fam.scale_family, np.eye(2))
    shared = (*fam.scale_family.gens, fam.scale_family.coupling, *recombined.gens, *block_generators(3).stacks)
    for X in (fam.x1, fam.x2, fam.x3, position_rows(16), *shared):
        with pytest.raises(ValueError, match="read-only"):
            X[1, 0] = 1.0


def test_a_family_at_2048_modes_holds_no_dense_generator():
    # three complex 2048 x 2048 generators would take 192 MiB; their rows take
    # 288 KiB, and a dense coupling would take 32 MiB per chain step
    base = hermite_generators(2048).scale_family
    O = np.array([[0.6, -0.8], [0.8, 0.6]])
    for build in (
        lambda: SuiteConfig(suite="scale-core", trunc=2048).validate(),
        lambda: hermite_generators(2048),
        lambda: recombined_family(base, O),
        lambda: build_scale_chain(base, 3),
    ):
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


def test_scale_norms_are_invariant_under_the_fourier_frame(chain, fam, rng):
    # P = diag(i^k) only moves real and imaginary parts.  A real block (what the
    # frame's beta ladder measures) keeps every bit; a complex one keeps its
    # norms to 1 ulp, as the dot's fused products pair the two parts unevenly
    real = rng.standard_normal((64, 9))
    block = real + 1j * rng.standard_normal((64, 9))
    eps = np.finfo(float).eps
    for n in range(chain.n_max + 1):
        for v in (real, real[:, 0]):
            framed = (fam.frame * v.T).T
            assert np.array_equal(scale_norm(chain, framed, n), scale_norm(chain, v, n))
        norms = scale_norm(chain, block, n)
        framed = scale_norm(chain, fam.frame[:, None] * block, n)
        assert np.all(np.abs(framed - norms) <= eps * norms)
