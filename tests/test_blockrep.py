import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scalerep import blockrep, suites
from scalerep.blockrep import (
    CHIS,
    NORM_RATIO_BOUNDS,
    _operator_norm,
    block_generators,
    collapse_identity_residual,
    exp_apply,
    exp_norm_closed_form,
    exp_operator_norm,
    h1_operator_norm,
    nilpotent_resolvent,
    nonextendability_evidence,
    norm_equivalence_report,
    rep_apply,
    rep_homomorphism_residual,
    rep_operator,
    unboundedness_growth,
)
from scalerep.errors import UsageError
from scalerep.liecore import GroupElement, group_multiply
from scalerep.scale import DiagonalGram, build_scale_chain, scale_norm

from conftest import dense_chain, dense_gens

coord = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
elements = st.builds(GroupElement, coord, coord, coord)


def test_block_action_displayed_formula(blocks):
    # X1 phi = (phi_2, 0, 0, 2 phi_5, 0, 0, 3 phi_8, ...)
    rng = np.random.default_rng(0)
    phi = rng.standard_normal(blocks.dim)
    out = blocks.apply_generator((1, 0, 0), phi)
    for n in range(1, blocks.M + 1):
        base = 3 * (n - 1)
        assert out[base] == n * phi[base + 1]
        assert out[base + 1] == 0.0 and out[base + 2] == 0.0


def test_product_relations_exact(blocks):
    assert blocks.product_relation_residual() == 0.0
    X1, X2, X3 = dense_gens(blocks)
    for X in (X1, X2, X3):
        assert not np.any(X @ X)
    assert not np.any(X2 @ X1)


def test_block_generators_validation():
    with pytest.raises(UsageError):
        block_generators(0)


def test_x3_weight_makes_product_exact():
    # n * n = n^2 blockwise: X1 X2 equals X3 entry for entry
    fam = block_generators(7)
    X1, X2, X3 = dense_gens(fam)
    assert np.array_equal(X1 @ X2, X3)


@given(elements, elements)
@settings(max_examples=100)
def test_rep_homomorphism(g, h):
    fam = block_generators(12)
    assert rep_homomorphism_residual(fam, g, h) < 1e-13


def test_rep_frozen_pair(blocks):
    lhs = rep_operator(GroupElement(1, 0, 0), blocks) @ rep_operator(
        GroupElement(0, 1, 0), blocks
    )
    rhs = rep_operator(GroupElement(1, 1, 1), blocks)
    assert np.array_equal(lhs, rhs)
    prod = group_multiply(GroupElement(1, 0, 0), GroupElement(0, 1, 0))
    assert prod == GroupElement(1, 1, 1)


def test_norm_chain_collapse(blocks, block_chain):
    assert collapse_identity_residual(blocks, block_chain) == 0.0
    lo, hi = NORM_RATIO_BOUNDS
    rng = np.random.default_rng(3)
    for _ in range(200):
        phi = rng.standard_normal(blocks.dim) + 1j * rng.standard_normal(blocks.dim)
        ratio = scale_norm(block_chain, phi, 2) / scale_norm(block_chain, phi, 1)
        assert lo - 1e-12 <= ratio <= hi + 1e-12


def test_norm_ratio_oracle_expansion(blocks, block_chain, rng):
    # brute-force oracle: ||phi||_2^2 = 2||X1 phi||^2 + 2||X2 phi||^2
    #                                  + 3||X3 phi||^2 + ||phi||^2
    X1, X2, X3 = dense_gens(blocks)
    for _ in range(20):
        phi = rng.standard_normal(blocks.dim) + 1j * rng.standard_normal(blocks.dim)
        direct = scale_norm(block_chain, phi, 2) ** 2
        pieces = (
            2 * np.linalg.norm(X1 @ phi) ** 2
            + 2 * np.linalg.norm(X2 @ phi) ** 2
            + 3 * np.linalg.norm(X3 @ phi) ** 2
            + np.linalg.norm(phi) ** 2
        )
        assert direct == pytest.approx(pieces, rel=1e-12)


def test_ratio_supremum_approached(blocks, block_chain):
    phi = np.zeros(blocks.dim, dtype=complex)
    phi[-1] = 1.0   # third slot of the top block
    ratio = scale_norm(block_chain, phi, 2) / scale_norm(block_chain, phi, 1)
    assert np.sqrt(3.0) - ratio < 1e-3


def test_kernel_vector_flat_norms(blocks, block_chain):
    phi = np.zeros(blocks.dim, dtype=complex)
    phi[0] = 1.0
    values = [scale_norm(block_chain, phi, n) for n in (0, 1, 2)]
    assert max(values) - min(values) == 0.0


def test_unbounded_growth_exact():
    rows = unboundedness_growth((1, 10, 50, 100))
    for M, sigma in rows:
        assert sigma == pytest.approx(M, rel=1e-12)


def test_nilpotent_resolvent_identity(blocks, rng):
    for _ in range(10):
        lam = complex(rng.uniform(0.5, 4), rng.uniform(-2, 2))
        i = int(rng.integers(1, 4))
        res = nilpotent_resolvent(blocks, i, lam)
        assert res.identity_residual < 1e-12
    small = nilpotent_resolvent(block_generators(1), 1, 1.0)
    assert np.array_equal(small.stack, [np.eye(3) + np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]])])
    with pytest.raises(UsageError):
        nilpotent_resolvent(blocks, 1, 0.0)
    with pytest.raises(UsageError):
        nilpotent_resolvent(blocks, 5, 1.0)


def test_resolvent_norm_growth(blocks):
    res = nilpotent_resolvent(blocks, 1, 1.0)
    assert res.operator_norm >= blocks.M * (1 - 1e-6)
    small = nilpotent_resolvent(block_generators(5), 1, 2.0)
    # growth like M / |lam|^2
    assert small.operator_norm == pytest.approx(5 / 4, rel=0.3)


def test_exp_is_affine(blocks, rng):
    # oracle: the dense matrix I + t X_i, entry for entry
    t = 0.37
    eye = np.eye(blocks.dim)
    v = rng.standard_normal((blocks.dim, 4)) + 1j * rng.standard_normal((blocks.dim, 4))
    for i in (1, 2, 3):
        dense = eye + t * dense_gens(blocks)[i - 1]
        assert np.array_equal(exp_apply(blocks, i, t, eye), dense)
        assert np.array_equal(exp_apply(blocks, i, t, eye, adjoint=True), dense.T)
        expect = dense @ v
        assert np.max(np.abs(exp_apply(blocks, i, t, v) - expect)) <= 1e-14 * np.max(np.abs(expect))
        assert exp_operator_norm(blocks, i, t) == pytest.approx(np.linalg.norm(dense, 2), rel=1e-14)


def test_evaluators_are_exp_apply(blocks, rng):
    # the family's appliers are exp_apply itself, bit for bit
    v = rng.standard_normal(blocks.dim) + 1j * rng.standard_normal(blocks.dim)
    block = rng.standard_normal((blocks.dim, 3)) + 1j * rng.standard_normal((blocks.dim, 3))
    assert blocks.evaluators is blocks.evaluators
    for i, E in enumerate(blocks.evaluators, start=1):
        for x in (v, block):
            for adjoint in (False, True):
                expect = exp_apply(blocks, i, -0.8, x, adjoint=adjoint)
                assert np.array_equal(E(-0.8, x, adjoint=adjoint), expect)


def test_exp_apply_takes_one_time_per_block_column(rng):
    # column k of a timed block call is the scalar-time call on column k alone
    fam = block_generators(4)
    ts = rng.uniform(-2, 2, 5)
    block = rng.standard_normal((fam.dim, 5)) + 1j * rng.standard_normal((fam.dim, 5))
    for i in (1, 2, 3):
        for adjoint in (False, True):
            out = exp_apply(fam, i, ts, block, adjoint=adjoint)
            assert out.shape == block.shape
            for k in range(5):
                single = exp_apply(fam, i, ts[k], block[:, k], adjoint=adjoint)
                assert np.array_equal(out[:, k], single)
    # three times with a 12-vector once spread over the columns of every 3 x 3 block
    wrong = (
        (ts[:3], np.arange(12.0)),
        (ts[:2], block),
        (ts, block[:, :4]),
        (ts[:4].reshape(2, 2), block[:, :2]),
    )
    for t, v in wrong:
        for adjoint in (False, True):
            with pytest.raises(UsageError, match="need an \\(N, K\\) block"):
                exp_apply(fam, 1, t, v, adjoint=adjoint)


def test_exp_norm_closed_form_oracle():
    # oracle: the largest singular value of [[1, t], [0, 1]] solves
    # sigma^2 = 1 + t^2/2 + t sqrt(t^2 + 4)/2; check the golden-ratio case
    golden = 0.5 * (1 + np.sqrt(5.0))
    assert exp_norm_closed_form(1, 1.0) == pytest.approx(golden, abs=1e-14)
    rows = nonextendability_evidence((1, 10, 50), 1.0)
    for M, measured, closed in rows:
        assert measured == pytest.approx(closed, abs=1e-9)
        assert measured >= M
    rows0 = nonextendability_evidence((1, 5), 0.0)
    assert all(m == pytest.approx(1.0, abs=1e-14) for _, m, _ in rows0)


def test_h1_continuity_constant_m_independent():
    g = GroupElement(1.0, 1.0, 1.0)
    norms = [h1_operator_norm(block_generators(M), g) for M in (10, 50, 100)]
    spread = (max(norms) - min(norms)) / max(norms)
    assert spread < 0.01
    # samples never exceed the blockwise operator norm
    fam = block_generators(20)
    chain = build_scale_chain(fam, 2)
    bound = h1_operator_norm(fam, g)
    rng = np.random.default_rng(9)
    T = rep_operator(g, fam)
    for _ in range(100):
        phi = rng.standard_normal(fam.dim) + 1j * rng.standard_normal(fam.dim)
        ratio = scale_norm(chain, T @ phi, 1) / scale_norm(chain, phi, 1)
        assert ratio <= bound * (1 + 1e-12)


def test_norm_equivalence_report(blocks, block_chain, rng):
    shape = (blocks.dim, 25)
    phis = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2)]
    report = norm_equivalence_report(block_chain, phis)
    assert 1.0 <= report.ratio_min <= report.ratio_max <= np.sqrt(3) + 1e-12
    assert report.sample_count == 50
    with pytest.raises(UsageError):
        norm_equivalence_report(block_chain, [np.zeros((blocks.dim, 1))])
    with pytest.raises(UsageError, match=r"\(3M, K\) blocks"):
        norm_equivalence_report(block_chain, [phis[0][:, 0]])


def _kron_generators(M):
    # the dense build the block stacks replace
    n = np.arange(1, M + 1, dtype=float)
    return tuple(np.kron(np.diag(w), chi) for w, chi in zip((n, n, n * n), CHIS))


@pytest.mark.parametrize("M", (1, 7, 50))
def test_block_stacks_match_dense_oracle(M):
    eps = np.finfo(float).eps
    fam = block_generators(M)
    dense = _kron_generators(M)
    for X, D in zip(dense_gens(fam), dense):
        assert np.array_equal(X, D)
    I = np.eye(fam.dim)
    rng = np.random.default_rng(M)
    for _ in range(5):
        g, h = (GroupElement(*rng.uniform(-2.0, 2.0, 3)) for _ in range(2))
        T = I + g.xi1 * dense[0] + g.xi2 * dense[1] + g.xi3 * dense[2]
        assert np.array_equal(rep_operator(g, fam), T)
        phi = rng.standard_normal(fam.dim) + 1j * rng.standard_normal(fam.dim)
        Tphi = T @ phi
        assert np.max(np.abs(rep_apply(g, fam, phi) - Tphi)) <= 4 * eps * np.max(np.abs(Tphi))
        Th = I + h.xi1 * dense[0] + h.xi2 * dense[1] + h.xi3 * dense[2]
        gh = group_multiply(g, h)
        Tgh = I + gh.xi1 * dense[0] + gh.xi2 * dense[1] + gh.xi3 * dense[2]
        scale = max(1.0, np.max(np.abs(Tgh)))
        dense_residual = np.max(np.abs(T @ Th - Tgh)) / scale
        assert abs(rep_homomorphism_residual(fam, g, h) - dense_residual) <= 4 * eps
    for i in (1, 2, 3):
        lam = complex(*rng.uniform(0.5, 2.0, 2))
        R = (lam * I + dense[i - 1]) / lam**2
        A = lam * I - dense[i - 1]
        res = nilpotent_resolvent(fam, i, lam)
        diagonal = np.arange(M)   # block n of the stack is R's diagonal block n
        assert np.array_equal(res.stack, R.reshape(M, 3, M, 3)[diagonal, :, diagonal])
        dense_residual = max(np.max(np.abs(A @ R - I)), np.max(np.abs(R @ A - I)))
        entry_scale = np.max(np.abs(A)) * np.max(np.abs(R))
        assert abs(res.identity_residual - dense_residual) <= 4 * eps * entry_scale
        assert res.operator_norm == pytest.approx(np.linalg.norm(R, 2), rel=1e-12, abs=0)
    [(_, sigma)] = unboundedness_growth((M,))
    assert sigma == pytest.approx(np.linalg.norm(dense[0], 2), rel=1e-12, abs=0)
    [(_, measured, _)] = nonextendability_evidence((M,), 0.8)
    assert measured == pytest.approx(np.linalg.norm(I + 0.8 * dense[0], 2), rel=1e-12, abs=0)
    # level-1 norm of T(g) through the (diagonal) level-1 Gram form
    g = GroupElement(1.0, -0.5, 0.75)
    T = I + g.xi1 * dense[0] + g.xi2 * dense[1] + g.xi3 * dense[2]
    root = np.sqrt(np.diag(I + sum(D.T @ D for D in dense)))
    oracle = np.linalg.norm(root[:, None] * T / root[None, :], 2)
    assert h1_operator_norm(fam, g) == pytest.approx(oracle, rel=1e-12, abs=0)
    # and the per-block loop it vectorises, with unchanged arithmetic
    loop = 0.0
    for n in range(1, M + 1):
        d = np.sqrt([1.0, 1.0 + n**2, 1.0 + n**2 + n**4])
        Tn = np.array([[1.0, g.xi1 * n, g.xi3 * n**2], [0.0, 1.0, g.xi2 * n], [0.0, 0.0, 1.0]])
        loop = max(loop, float(np.linalg.norm(d[:, None] * Tn / d[None, :], 2)))
    assert h1_operator_norm(fam, g) == loop


@pytest.mark.parametrize("M", (1, 7, 50, 150))
def test_block_chain_matches_the_dense_recursion(M):
    fam = block_generators(M)
    chain = build_scale_chain(fam, 3)
    oracle = dense_chain(_kron_generators(M), 3)
    for form, G in zip(chain.grams, oracle):
        # every dense form is exactly diagonal, and its diagonal is the weights
        assert isinstance(form, DiagonalGram) and form.weights.shape == (3 * M,)
        assert np.array_equal(np.diag(G), form.weights)
        assert np.max(np.abs(G - np.diag(np.diag(G)))) == 0.0
    rng = np.random.default_rng(M)
    for level, G_n in enumerate(oracle):
        for _ in range(3):
            phi = rng.standard_normal(fam.dim) + 1j * rng.standard_normal(fam.dim)
            dense = np.sqrt(np.vdot(phi, G_n @ phi).real)
            assert scale_norm(chain, phi, level) == pytest.approx(dense, rel=1e-13, abs=0)
    floors = [np.min(np.linalg.eigvalsh(b - a)) for a, b in zip(oracle, oracle[1:])]
    assert chain.increment_eigenvalue_floor() == pytest.approx(min(floors), rel=1e-13, abs=0)
    assert chain.hermiticity_residual() == 0.0
    # the chain is built from the stacks: no dense generator was assembled
    assert not {"x1", "x2", "x3"} & set(vars(fam))


@pytest.mark.parametrize("M", (1, 7, 50))
def test_block_calls_match_the_vector_calls_bit_for_bit(M):
    fam = block_generators(M)
    chain = build_scale_chain(fam, 2)
    rng = np.random.default_rng(M + 15)
    block = rng.standard_normal((fam.dim, 9)) + 1j * rng.standard_normal((fam.dim, 9))
    block[:, 4] = 0.0
    g = GroupElement(*rng.uniform(-2.0, 2.0, 3))
    out = rep_apply(g, fam, block)
    assert out.shape == (fam.dim, 9)
    for k in range(9):
        assert np.array_equal(out[:, k], rep_apply(g, fam, block[:, k]))
    # a block counts its nonzero columns, and its window is the per-vector one
    cols = [block[:, k : k + 1] for k in range(9)]
    assert norm_equivalence_report(chain, [block]) == norm_equivalence_report(chain, cols)
    assert norm_equivalence_report(chain, [block[:, :3], block[:, 3:]]).sample_count == 8
    with pytest.raises(UsageError):
        norm_equivalence_report(chain, [block[:, 4:5]])


def test_stack_kernels_never_build_dense_matrices():
    # one dense 6000 x 6000 float matrix alone is 275 MiB
    g, h = GroupElement(0.3, -1.2, 0.7), GroupElement(-0.4, 0.9, 1.1)
    rng = np.random.default_rng(2000)
    tracemalloc.start()
    try:
        fam = block_generators(2000)
        rep_homomorphism_residual(fam, g, h)
        res = nilpotent_resolvent(fam, 2, 1.5 - 0.5j)
        assert res.identity_residual < 1e-9 and res.operator_norm > 0
        unboundedness_growth((2000,))
        nonextendability_evidence((2000,), 1.0)
        chain = build_scale_chain(fam, 2)
        for _ in range(1000):
            assert scale_norm(chain, rng.standard_normal(fam.dim), 2) > 0
        assert collapse_identity_residual(fam, chain) <= 1e-12 * 2000**4
        blocks = (rng.standard_normal((fam.dim, 25)) for _ in range(8))
        assert norm_equivalence_report(chain, blocks).sample_count == 200
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20


def _old_rep_homomorphism_residual(fam, g, h):
    # the whole-stack evaluation of one pair that the block form replaces
    S1, S2, S3 = fam.stacks
    rep = lambda e: np.eye(3) + e.xi1 * S1 + e.xi2 * S2 + e.xi3 * S3
    rhs = rep(group_multiply(g, h))
    scale = max(1.0, float(np.max(np.abs(rhs))))
    return float(np.max(np.abs(rep(g) @ rep(h) - rhs))) / scale


@pytest.mark.parametrize("M", (1, 7, 50, 150))
def test_block_of_pairs_matches_the_per_pair_residuals_bit_for_bit(M):
    fam = block_generators(M)
    rng = np.random.default_rng(M + 14)
    gc, hc = rng.uniform(-2.0, 2.0, (2, 300, 3))
    g, h = GroupElement(*gc.T), GroupElement(*hc.T)
    block = rep_homomorphism_residual(fam, g, h)
    assert block.shape == (300,)
    singles = [(GroupElement(*map(float, a)), GroupElement(*map(float, b))) for a, b in zip(gc, hc)]
    for value, (a, b) in zip(block, singles):
        assert value == rep_homomorphism_residual(fam, a, b)
        assert value == _old_rep_homomorphism_residual(fam, a, b)
    assert np.max(block) > 0.0  # rounding shows, so the comparison is not of zeros
    # one diagonal block of a block of elements is that block of each element's stack
    for n in {0, M // 2, M - 1}:
        stack = fam.rep_stack(g)[:, n]
        assert stack.shape == (300, 3, 3)
        for j, (a, _) in enumerate(singles[:20]):
            old = np.eye(3) + a.xi1 * fam.stacks[0] + a.xi2 * fam.stacks[1] + a.xi3 * fam.stacks[2]
            assert np.array_equal(stack[j], old[n])
            assert np.array_equal(fam.rep_stack(a), old)


@pytest.mark.parametrize("M", (1, 50, 150))
def test_one_element_against_a_block_matches_the_per_pair_residuals_bit_for_bit(M):
    fam = block_generators(M)
    rng = np.random.default_rng(M + 18)
    g = GroupElement(*map(float, rng.uniform(-2.0, 2.0, 3)))
    hc = rng.uniform(-2.0, 2.0, (200, 3))
    singles = [GroupElement(*map(float, b)) for b in hc]
    left = rep_homomorphism_residual(fam, g, GroupElement(*hc.T))
    right = rep_homomorphism_residual(fam, GroupElement(*hc.T), g)
    assert left.shape == right.shape == (200,)
    for k, b in enumerate(singles):
        assert left[k] == rep_homomorphism_residual(fam, g, b) == _old_rep_homomorphism_residual(fam, g, b)
        assert right[k] == rep_homomorphism_residual(fam, b, g) == _old_rep_homomorphism_residual(fam, b, g)
    assert isinstance(rep_homomorphism_residual(fam, g, singles[0]), float)


def test_homomorphism_residual_reads_the_weights_from_the_stacks():
    # X3 weighted n^2 (1 + 1e-9) breaks X1 X2 = X3: the slots must show it
    fam = block_generators(50)
    S1, S2, S3 = fam.stacks
    fam.__dict__["stacks"] = (S1, S2, S3 * (1.0 + 1e-9))
    rng = np.random.default_rng(9)
    gc, hc = rng.uniform(-2.0, 2.0, (2, 50, 3))
    block = rep_homomorphism_residual(fam, GroupElement(*gc.T), GroupElement(*hc.T))
    I = np.eye(fam.dim)
    X1, X2, X3 = dense_gens(fam)
    rep = lambda e: I + e.xi1 * X1 + e.xi2 * X2 + e.xi3 * X3
    for value, a, b in zip(block, gc, hc):
        g, h = GroupElement(*a), GroupElement(*b)
        Tgh = rep(group_multiply(g, h))
        dense = np.max(np.abs(rep(g) @ rep(h) - Tgh)) / max(1.0, np.max(np.abs(Tgh)))
        assert value == _old_rep_homomorphism_residual(fam, g, h)
        assert dense > 1e-12 and value == pytest.approx(dense, rel=1e-6)
    assert np.min(block) > 1e-12


def test_homomorphism_residual_of_a_block_holds_a_few_pairs_at_a_time():
    # one (1000, 2000) float array alone is 15.3 MiB, a (1000, 2000, 3, 3) one 137 MiB
    fam = block_generators(2000)
    rng = np.random.default_rng(2000)
    g, h = (GroupElement(*rng.uniform(-2.0, 2.0, (3, 1000))) for _ in range(2))
    tracemalloc.start()
    try:
        block = rep_homomorphism_residual(fam, g, h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert block.shape == (1000,) and np.max(block) < 1e-13
    assert peak < 4 * 2**20


def test_resolvent_operator_norm_is_taken_when_read(monkeypatch):
    calls = []

    def count(stack):
        calls.append(stack.shape)
        return _operator_norm(stack)

    res = nilpotent_resolvent(block_generators(50), 3, 0.7 + 1.3j)
    assert res.operator_norm == _operator_norm(res.stack)
    monkeypatch.setattr(blockrep, "_operator_norm", count)
    [nl06] = [c for c in suites.SUITES["nilpotent-l2"] if c.case_id.startswith("nl-06")]
    monkeypatch.setitem(suites.SUITES, "nilpotent-l2", (nl06,))
    records, _ = suites.run_suite(suites.SuiteConfig(suite="nilpotent-l2"))
    assert records and calls == []                 # 20 draws, no norm taken
    res = nilpotent_resolvent(block_generators(50), 1, 1.0)
    assert res.operator_norm == res.operator_norm and calls == [(50, 3, 3)]  # read twice, taken once
