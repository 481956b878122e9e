import warnings

import numpy as np
import pytest
import scipy.special

from scalerep import hermite, hilleyosida, suites
from scalerep.errors import ConvergenceError, SingularOperatorError, UsageError
from scalerep.heisenberg import UnitaryGroup, hermite_generators
from scalerep.hermite import gauss_hermite
from scalerep.hilleyosida import (
    YosidaSeriesSpec,
    e118_constants,
    equicontinuity_bound_check,
    estimate_beta,
    estimate_type,
    global_conditions_report,
    resolvent_closed_form_x2,
    resolvent_laplace,
    resolvent_matrix,
    yosida_reconstruct,
)
from scalerep.sampling import interior_vector
from scalerep.scale import bound_check, build_scale_chain, scale_norm

from conftest import dense, h0


@pytest.fixture(scope="module")
def x2_evaluator(fam):
    x = (1j * dense(fam.x2)).real
    w, V = np.linalg.eigh(x)
    Vh = V.conj().T

    def evaluator(t, v):
        return ((V * np.exp(-1j * t * w)) @ Vh) @ v

    return evaluator


@pytest.fixture(scope="module")
def x2_group(fam):
    return UnitaryGroup(*np.linalg.eigh((1j * dense(fam.x2)).real))


def quadrature_resolvent_norm_sq(lam):
    # oracle: integral of h0(x)^2 / (lam^2 + x^2) dx by quadrature
    xs, ws = gauss_hermite(256)
    g2 = np.exp(-xs * xs) / np.sqrt(np.pi)
    return float(np.sum(ws * g2 / (lam * lam + xs * xs)))


def test_resolvent_norm_oracle_values():
    # the analytic value sqrt(pi) e erfc(1), computed independently, and the
    # quadrature oracle agree; frozen to 13 digits
    analytic = float(np.sqrt(np.pi) * np.e * scipy.special.erfc(1.0))
    assert analytic == pytest.approx(0.7578721561413, abs=1e-12)
    assert quadrature_resolvent_norm_sq(1.0) == pytest.approx(analytic, abs=1e-12)


def test_closed_form_resolvent_value(fam):
    out = resolvent_closed_form_x2(1.0, h0(), 64)
    assert float(np.vdot(out, out).real) == pytest.approx(0.7578721561413, abs=1e-8)
    with pytest.raises(UsageError):
        resolvent_closed_form_x2(1j, h0(), 64)


def test_resolvent_matrix_basic():
    lam = 3.0
    R = resolvent_matrix(np.zeros((3, 5)), lam)
    assert np.max(np.abs(R - np.eye(5) / lam)) < 1e-14
    with pytest.raises(SingularOperatorError):
        resolvent_matrix(np.outer([0, 1, 0], [1j, 2j, 3j]), 2j)
    with pytest.raises(UsageError):
        resolvent_matrix(np.outer([0, 1, 0], [1.0, 2.0, 3.0]), 2.0)   # not skew-Hermitian


def test_resolvent_routes_agree_at_moderate_lambda(fam, chain, x2_group):
    for lam in (2.0, 4.0):
        matrix = resolvent_matrix(fam.x2, lam) @ h0()
        closed = resolvent_closed_form_x2(lam, h0(), 64)
        laplace = resolvent_laplace(x2_group, lam, h0()).vector
        for n in (0, 1):
            assert scale_norm(chain, matrix - closed, n) < 1e-6
            assert scale_norm(chain, laplace - matrix, n) < 1e-6


def test_closed_form_matches_the_matrix_route_past_the_old_node_cap():
    # at 640 modes the truncation gap is below rounding at every hy-07 lambda;
    # a rule capped at 320 nodes left 2.7e-05 there
    N = 640
    fam = hermite_generators(N)
    chain = build_scale_chain(fam.scale_family, 1)
    for lam in (1.0, 2.0, 4.0):
        matrix = resolvent_matrix(fam.x2, lam) @ h0(N)
        closed = resolvent_closed_form_x2(lam, h0(N), N)
        assert scale_norm(chain, matrix - closed, 1) <= 1e-12


def test_resolvent_negative_branch(fam, x2_group):
    lam = -2.0
    laplace = resolvent_laplace(x2_group, lam, h0())
    matrix = resolvent_matrix(fam.x2, lam) @ h0()
    assert np.linalg.norm(laplace.vector - matrix) < 1e-6


def test_laplace_identity_group_scalar(monkeypatch):
    monkeypatch.setattr(hilleyosida, "LAPLACE_TOL", 1e-10)
    ident = UnitaryGroup(np.zeros(4), np.eye(4))
    phi = np.array([1.0, 2.0, 0.0, -1.0], dtype=complex)
    out = resolvent_laplace(ident, 2.0, phi)
    assert np.max(np.abs(out.vector - phi / 2.0)) < 1e-9


def test_laplace_tail_control(x2_group, monkeypatch):
    monkeypatch.setattr(hilleyosida, "LAPLACE_TOL", 1e-6)
    res_small = resolvent_laplace(x2_group, 0.5, h0())
    res_big = resolvent_laplace(x2_group, 4.0, h0())
    assert res_small.t_max > res_big.t_max
    assert res_small.tail_bound <= 1e-6
    with pytest.raises(UsageError):
        resolvent_laplace(x2_group, 1j, h0())


@pytest.mark.parametrize("lam", [-0.01, 0.05, 1.0, 20.0])
@pytest.mark.parametrize("norm", [1.0, 20.0, 1e6])
def test_laplace_tail_bound_is_relative_to_phi(fam, x2_group, norm, lam):
    # t_max is sized for a tail bound relative to ||phi||, and the check agrees:
    # no norm is refused, and the route meets the matrix resolvent to LAPLACE_TOL
    phi = norm * h0()
    out = resolvent_laplace(x2_group, lam, phi)
    assert out.t_max == resolvent_laplace(x2_group, lam, h0()).t_max
    assert out.tail_bound <= hilleyosida.LAPLACE_TOL * norm
    gap = np.linalg.norm(out.vector - resolvent_matrix(fam.x2, lam) @ phi)
    assert gap <= hilleyosida.LAPLACE_TOL * norm


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_laplace_refuses_a_non_finite_phi_or_lambda(x2_group, bad):
    phi = h0()
    phi[3] = bad
    with pytest.raises(UsageError, match="finite phi"):
        resolvent_laplace(x2_group, 1.0, phi)
    with pytest.raises(UsageError, match="finite lambda"):
        resolvent_laplace(x2_group, bad, h0())


def test_laplace_below_unit_real_part_matches_the_matrix_route(fam, x2_group):
    # t_max covers the 1/|Re lambda| of the tail bound: at lambda = 0.05 the
    # tail stays below LAPLACE_TOL, over 949 panels in node chunks
    for lam in (0.05, -0.05):
        got = resolvent_laplace(x2_group, lam, h0())
        assert got.tail_bound < hilleyosida.LAPLACE_TOL and got.panels == 949
        assert np.linalg.norm(got.vector - resolvent_matrix(fam.x2, lam) @ h0()) < 1e-7


def test_gauss_legendre_panels_against_scipy():
    # oracle: scipy's roots_legendre, whose end weights are off by 9e-14 relative
    for n in (1, 2, 16, 17, 40):
        x, w = hilleyosida._gauss_legendre(n)
        xs, ws = scipy.special.roots_legendre(n)
        assert np.max(np.abs(x - xs)) <= 4e-16 and np.max(np.abs(w - ws)) <= 1e-14
        assert abs(np.sum(w) - 2.0) <= 1e-15 and not (x.flags.writeable or w.flags.writeable)


def laplace_by_nodes(apply, lam, phi, tol, nodes_per_panel=16):
    # oracle: the per-node loop the spectral sum replaces, one apply per node
    lam = complex(lam)
    a = abs(lam.real)
    nrm = float(np.linalg.norm(phi))
    t_max = float(np.log(nrm / (0.1 * tol * nrm * min(a, 1.0))) / a)
    sign = 1.0 if lam.real > 0 else -1.0
    panels = max(1, int(np.ceil(t_max / 0.5)))
    xg, wg = scipy.special.roots_legendre(nodes_per_panel)
    total = np.zeros_like(phi)
    edges = np.linspace(0.0, t_max, panels + 1)
    for left, right in zip(edges[:-1], edges[1:]):
        half = 0.5 * (right - left)
        mid = 0.5 * (right + left)
        for xq, wq in zip(xg, wg):
            s = mid + half * xq
            weight = half * wq * np.exp(-lam * sign * s)
            total = total + weight * apply(sign * s, phi)
    return sign * total, t_max, panels, nrm * np.exp(-a * t_max) / a


def test_spectral_laplace_sum_matches_per_node_loop(x2_group, x2_evaluator, monkeypatch):
    phis = (h0(), interior_vector(np.random.default_rng(5), 64, 16))

    def no_apply(self, t, v):
        raise AssertionError("resolvent_laplace must not apply the group per node")

    for lam in (1.0, 2.0, 4.0, -2.0, 0.5):
        for phi in phis:
            vector, t_max, panels, tail = laplace_by_nodes(x2_evaluator, lam, phi, 1e-8)
            with monkeypatch.context() as m:
                m.setattr(UnitaryGroup, "apply", no_apply)
                got = resolvent_laplace(x2_group, lam, phi)
            assert np.linalg.norm(got.vector - vector) <= 1e-13 * np.linalg.norm(phi)
            assert (got.t_max, got.panels, got.tail_bound) == (t_max, panels, tail)


def test_resolvent_first_identity(fam):
    lam, mu = 2.0, 5.0
    Rl = resolvent_matrix(fam.x2, lam)
    Rm = resolvent_matrix(fam.x2, mu)
    assert np.max(np.abs(Rl - Rm - (mu - lam) * (Rl @ Rm))) < 1e-9


def test_lambda_to_infinity_limit(fam, rng):
    phi = np.zeros(64, dtype=complex)
    phi[:16] = rng.standard_normal(16)
    phi /= np.linalg.norm(phi)
    errs = [
        float(np.linalg.norm(lam * (resolvent_matrix(fam.x2, lam) @ phi) - phi))
        for lam in (10.0, 100.0, 1000.0)
    ]
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] * 1000 < 20


def test_type_estimate_x2_vanishes(fam, chain, x2_evaluator, rng):
    phis = [np.zeros(64, dtype=complex) for _ in range(10)]
    for p in phis:
        p[:32] = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        p /= np.linalg.norm(p)
    grid = (1.0, 100.0, 1e4, 1e6, 1e7)
    for n in (0, 1, 2, 3):
        est = estimate_type(x2_evaluator, chain, n, grid, np.array(phis).T)
        assert abs(est.omega_n) < 1e-6


def with_nan_columns(apply, columns):
    """``apply`` with the given output columns replaced by NaN, as a failed solve would leave them."""

    def applied(*args):
        out = np.array(apply(*args), dtype=complex)
        out[:, columns] = np.nan
        return out

    return applied


def test_a_nan_sample_makes_the_type_and_the_verdict_nan(chain):
    block = np.eye(64, 3, dtype=complex)
    ident = lambda t, v: v
    finite = estimate_type(ident, chain, 0, (1.0, 2.0), block)
    assert finite.omega_n == 0.0
    for columns in ([1], [0, 1, 2]):
        est = estimate_type(with_nan_columns(ident, columns), chain, 0, (1.0, 2.0), block)
        assert np.isnan(est.omega_n)
        assert np.isnan(global_conditions_report([finite, est], (0, 1)).omega_sup)


def test_a_nan_sample_makes_the_worst_equicontinuity_ratio_nan(chain):
    block = np.eye(64, 3, dtype=complex)

    def scaled(lam, v):
        return v / lam

    rows = equicontinuity_bound_check(scaled, chain, 0, 2, 20.0, block)
    assert [worst for _, worst, _ in rows] == pytest.approx([1.0, 1.0])
    for columns in ([1], [0, 1, 2]):
        nan_resolvent = with_nan_columns(scaled, columns)
        rows = equicontinuity_bound_check(nan_resolvent, chain, 0, 2, 20.0, block)
        assert all(np.isnan(worst) for _, worst, _ in rows)


def test_type_estimate_validation(chain):
    ident = lambda t, v: v
    with pytest.raises(UsageError):
        estimate_type(ident, chain, 0, (), h0()[:, None])
    with pytest.raises(UsageError):
        estimate_type(ident, chain, 0, (0.0, 1.0), h0()[:, None])
    with pytest.raises(UsageError):
        estimate_type(ident, chain, 0, (1.0,), np.zeros((64, 1)))
    for samples in (h0(), np.zeros((64, 0))):   # a vector, and a block of no columns
        with pytest.raises(UsageError):
            estimate_type(ident, chain, 0, (1.0,), samples)


def test_yosida_series_spec_validation():
    with pytest.raises(UsageError):
        YosidaSeriesSpec(lambda_sequence=(10.0, 5.0))
    with pytest.raises(UsageError):
        YosidaSeriesSpec(lambda_sequence=(-1.0, 2.0))
    with pytest.raises(UsageError):
        YosidaSeriesSpec(lambda_sequence=())


def test_yosida_reconstruction_converges(fam, chain, x2_evaluator):
    spec = YosidaSeriesSpec(lambda_sequence=(10.0, 20.0, 50.0, 100.0))
    reference = x2_evaluator(0.5, h0())

    def apply_resolvent(lam, v):
        return resolvent_matrix(fam.x2, lam) @ v

    result = yosida_reconstruct(apply_resolvent, spec, 0.5, h0(), chain, 1, reference)
    distances = [d for _, d in result.trace]
    assert all(b < a for a, b in zip(distances, distances[1:]))
    # measured level-1 error at lambda = 100 sits near 9.5e-3 (first-order
    # in 1/lambda); assert the observed magnitude window
    assert distances[-1] < 2e-2
    assert result.terms_used[-1] > 50


def test_yosida_t_zero_and_negative_branch(fam, chain, x2_evaluator):
    spec = YosidaSeriesSpec(lambda_sequence=(10.0, 40.0))

    def apply_resolvent(lam, v):
        return resolvent_matrix(fam.x2, lam) @ v

    refused = lambda lam, v: pytest.fail("t = 0 applied a resolvent")
    res0 = yosida_reconstruct(refused, spec, 0.0, h0(), chain, 1, h0())
    assert max(d for _, d in res0.trace) == 0.0
    assert res0.terms_used == (1, 1)   # the first weight past e^0 is 0: the sum is phi
    reference = x2_evaluator(-0.3, h0())
    res = yosida_reconstruct(apply_resolvent, spec, -0.3, h0(), chain, 0, reference)
    assert res.trace[-1][1] < res.trace[0][1]


def test_yosida_guards(fam, chain):
    def apply_resolvent(lam, v):
        return resolvent_matrix(fam.x2, lam) @ v

    def nan_resolvent(lam, v):
        return np.full_like(v, np.nan)

    # NaN terms never meet the stop rule: the cap 5 + 20 sqrt(5) + 40 = 89 ends the series
    spec = YosidaSeriesSpec(lambda_sequence=(5.0,))
    with pytest.raises(ConvergenceError, match="series cap j_max=89 hit at lambda=5"):
        yosida_reconstruct(nan_resolvent, spec, 1.0, h0(), chain, 0, h0())
    # e^{-1500} underflows: refused before any term, not summed to a zero vector
    spec = YosidaSeriesSpec(lambda_sequence=(700.0, 1500.0))
    with pytest.raises(ConvergenceError, match="e\\^-1500 underflows at lambda=1500") as err:
        yosida_reconstruct(apply_resolvent, spec, 1.0, h0(), chain, 0, h0())
    assert err.value.last_term == 0.0


def test_equicontinuity_bound_ladder(fam, chain, rng):
    def apply_resolvent(lam, v):
        return resolvent_matrix(fam.x2, lam) @ v

    for n in (0, 1, 2, 3):
        lam = n + 2.0
        phis = []
        for _ in range(30):
            modes = min(16, chain.family.interior_modes(max(n, 1)))
            phi = np.zeros(64, dtype=complex)
            phi[:modes] = rng.standard_normal(modes) + 1j * rng.standard_normal(modes)
            phis.append(phi / np.linalg.norm(phi))
        rows = equicontinuity_bound_check(apply_resolvent, chain, n, 5, lam, np.array(phis).T)
        assert max(worst for _, worst, _ in rows) <= 1 + 1e-8
        # bound at lam = n + 2 is 2^{-p}
        for p, _, bound in rows:
            assert bound == pytest.approx(2.0**-p)
    with pytest.raises(UsageError):
        equicontinuity_bound_check(apply_resolvent, chain, 2, 3, 1.0, h0()[:, None])
    with pytest.raises(UsageError):
        equicontinuity_bound_check(apply_resolvent, chain, 0, 0, 3.0, h0()[:, None])
    with pytest.raises(UsageError):
        equicontinuity_bound_check(apply_resolvent, chain, 0, 1, 3.0, h0())   # a vector


def test_e118_constants_recursion():
    cs = e118_constants(2.0, 1)
    assert cs == [0.25, 1.25]
    cs = e118_constants(2.0, 3)
    # c2 = 1 + c0 c1, c3 = 1 + c0 c1 c2
    assert cs[2] == pytest.approx(1 + 0.25 * 1.25)
    assert cs[3] == pytest.approx(1 + 0.25 * 1.25 * cs[2])


def test_e118_bound_level0(fam, chain):
    def apply_resolvent(lam, v):
        return resolvent_matrix(fam.x2, lam) @ v

    def check(lam):
        # the printed constant of (e1.18): sqrt of the product of the recursion
        factor = np.sqrt(np.prod(e118_constants(lam, 0)))
        return bound_check(chain, lambda v: apply_resolvent(lam, v), h0(), 0, factor)

    res = check(3.0)
    assert res.bound == pytest.approx(scale_norm(chain, h0(), 0) / 3.0)
    assert res.lhs <= res.bound * (1 + 1e-6)
    with pytest.raises(SingularOperatorError):
        check(2j)


def resolvent_applier(X, seen=None):
    """(lam, B) -> (lam - X)^{-1} B, each resolvent built once; ``seen`` logs (lam, B.shape)."""
    cache = {}

    def apply(lam, B):
        if seen is not None:
            seen.append((lam, B.shape))
        if lam not in cache:
            cache[lam] = resolvent_matrix(X, lam)
        return cache[lam] @ B

    return apply


def dense_power_betas(X, chain, levels, lambdas, p_max):
    """The beta ladder from full N x N powers and SVD norms (the oracle)."""
    best = dict.fromkeys(levels, -np.inf)
    for lam in lambdas:
        R = resolvent_matrix(X, lam)
        power = np.eye(len(R))
        for p in range(1, p_max + 1):
            power = power @ R
            for n, k in levels.items():
                root = np.sqrt(chain.gram(n).weights)
                nu = np.linalg.norm(root[:, None] * power[:, :k] / root[None, :k], 2)
                best[n] = max(best[n], lam - nu ** (-1.0 / p))
    return tuple(best.values())


def test_beta_ladder_strictly_increases(fam, chain, rng):
    betas = estimate_beta(
        resolvent_applier(fam.x2),
        chain,
        dict.fromkeys((0, 1, 2), 16),
        lambdas=(4.5, 6.0, 9.0, 15.0, 23.0),
        p_max=4,
    )
    assert betas[0] < betas[1] < betas[2]
    assert betas[0] < 0.1


def test_global_conditions_verdicts(fam, chain, x2_evaluator, rng):
    phis = []
    for _ in range(10):
        phi = np.zeros(64, dtype=complex)
        phi[:24] = rng.standard_normal(24) + 1j * rng.standard_normal(24)
        phis.append(phi / np.linalg.norm(phi))
    grid = (1.0, 1e3, 1e6, 1e7)
    block = np.array(phis).T
    estimates = [estimate_type(x2_evaluator, chain, n, grid, block) for n in (0, 1, 2)]
    betas = estimate_beta(
        resolvent_applier(fam.x2),
        chain,
        dict.fromkeys((0, 1, 2), 16),
        lambdas=(4.0, 8.0, 16.0, 23.0),
        p_max=4,
    )
    verdict = global_conditions_report(estimates, betas)
    assert verdict.omega_sup <= 1e-6
    assert not verdict.uniform_equicontinuity
    with pytest.raises(UsageError):
        global_conditions_report(estimates[:1], betas[:1])


def test_estimate_beta_block_route_matches_dense_powers(fam, chain):
    # the (N, k) blocks R^p[:, :k] and Gram-route norms give the ladder of the
    # full powers and SVDs up to rounding
    levels = {0: 16, 1: 16, 2: 12, 3: 9}
    lambdas = (4.5, 6.0, 11.0, 23.0)
    betas = estimate_beta(resolvent_applier(fam.x2), chain, levels, lambdas, p_max=4)
    oracle = dense_power_betas(fam.x2, chain, levels, lambdas, p_max=4)
    assert betas == pytest.approx(oracle, rel=0, abs=1e-12)


def test_estimate_beta_applies_the_resolvent_to_leading_blocks_only(fam, chain):
    seen = []
    levels = {0: 7, 1: 16, 2: 11}
    estimate_beta(resolvent_applier(fam.x2, seen), chain, levels, (4.0, 9.0), p_max=3)
    assert seen == [(lam, (64, 16)) for lam in (4.0, 9.0) for _ in range(3)]


def test_global_conditions_build_each_resolvent_once(monkeypatch):
    # hy-13 measures every level on one resolvent per lambda, applied to
    # (N, k) blocks; the phase family needs no resolvent matrix at all
    x2_calls, calls = [], []
    estimate = hilleyosida.estimate_beta
    build = hilleyosida.resolvent_matrix

    def count_x2(apply_resolvent, *args, **kwargs):
        def counted(lam, B):
            x2_calls.append((lam, B.shape))
            return apply_resolvent(lam, B)

        return estimate(counted, *args, **kwargs)

    def count(X, lam):
        calls.append(lam)
        return build(X, lam)

    monkeypatch.setattr(hilleyosida, "estimate_beta", count_x2)
    monkeypatch.setattr(hilleyosida, "resolvent_matrix", count)
    [hy13] = [c for c in suites.SUITES["hille-yosida"] if c.case_id.startswith("hy-13")]
    monkeypatch.setitem(suites.SUITES, "hille-yosida", (hy13,))
    records, _ = suites.run_suite(suites.SuiteConfig(suite="hille-yosida"))
    assert len(records) == 3
    [grid] = calls   # one elimination for the stack of the x2 lambda grid
    assert len(grid) == len(set(grid)) == 7
    # five powers per lambda, each an (N, k) block with k = N/4 interior modes;
    # the phase family's three lambdas follow, with no resolvent matrix
    assert x2_calls[:35] == [(lam, (64, 16)) for lam in grid for _ in range(5)]
    assert len(x2_calls) == 35 + 3 * 3


@pytest.mark.parametrize("N", [8, 64, 160])
@pytest.mark.parametrize("lam", [1.0, -2.0, 23.0])
def test_tridiagonal_resolvent_is_the_lu_resolvent_bit_for_bit(N, lam):
    # oracle: LAPACK's partial-pivoting solve, which never swaps a row here
    x2 = hermite_generators(N).x2
    eye = np.eye(N, dtype=complex)
    assert np.array_equal(resolvent_matrix(x2, lam), np.linalg.solve(lam * eye - dense(x2), eye))


def test_tridiagonal_resolvent_guards():
    x2 = hermite_generators(16).x2
    with pytest.raises(SingularOperatorError):
        hilleyosida.resolvent_matrix(x2, 2.0j)
    with pytest.raises(UsageError):
        hilleyosida.resolvent_matrix(x2 + np.outer([0, 1, 0], np.ones(16)), 1.0)   # not skew
    wide = dense(x2)
    wide[0, 2], wide[2, 0] = 1.0, -1.0
    with pytest.raises(UsageError):
        hilleyosida.resolvent_matrix(wide, 1.0)   # not tridiagonal


@pytest.mark.parametrize("N", [16, 64])
def test_tridiagonal_resolvent_refuses_an_elimination_that_overflows(N):
    # a subnormal Re lam overflows the first multiplier; no numpy warning escapes
    x2 = hermite_generators(N).x2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lam in (5e-324, 1e-310):
            with pytest.raises(SingularOperatorError, match="floating-point range") as err:
                hilleyosida.resolvent_matrix(x2, lam)
            assert err.value.condition_estimate == np.inf
        R = hilleyosida.resolvent_matrix(x2, 1e-300)
    assert np.isfinite(R).all() and np.max(np.abs(R)) > 1e280


def test_x2_resolvents_keep_one_read_only_stack(monkeypatch):
    calls = []
    build = hilleyosida.resolvent_matrix
    monkeypatch.setattr(
        hilleyosida, "resolvent_matrix", lambda X, lam: calls.append(lam) or build(X, lam)
    )
    resolvents = hermite_generators(512).x2_resolvents((3.0, 4.0))   # one lambda a stack
    R = resolvents.matrix(3.0)
    assert resolvents.matrix(3.0) is R and calls == [(3.0,)]
    with pytest.raises(ValueError):
        R[0, 0] = 0
    resolvents.matrix(4.0)
    resolvents.matrix(3.0)
    assert calls == [(3.0,), (4.0,), (3.0,)]   # one held: the last lambda's


@pytest.mark.parametrize("N", [8, 64, 160])
@pytest.mark.parametrize("lam", [1.0, -2.0, 23.0])
def test_x1_resolvent_is_the_x2_resolvent_in_its_real_frame(N, lam):
    # X2 = P X1 P^* with P = diag(i^k), so P^* R_X2 P is real and equals R_X1 entry for entry
    fam = hermite_generators(N)
    frame = fam.frame[:, None] * resolvent_matrix(fam.x2, lam) * fam.frame.conj()
    R1 = resolvent_matrix(fam.x1.real, lam)
    assert R1.dtype == np.float64
    assert not frame.imag.any()
    assert np.array_equal(R1, frame.real)


@pytest.mark.parametrize("N", [8, 64])
def test_a_lambda_stack_is_the_per_lambda_resolvents_bit_for_bit(N):
    fam = hermite_generators(N)
    lams = (0.5, 1.0, -2.0, 4.5, 23.0, 1000.0, -3.0)
    for X in (fam.x1.real, fam.x2, fam.x1 + 0.25j * np.outer([0, 1, 0], np.arange(N))):
        stack = resolvent_matrix(X, lams)
        assert stack.shape == (len(lams), N, N)
        for lam, R in zip(lams, stack):
            assert np.array_equal(R, resolvent_matrix(X, lam))


def test_an_overflowing_lambda_in_a_stack_is_named():
    x2 = hermite_generators(16).x2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularOperatorError, match="lam=1e-310 left the floating") as err:
            resolvent_matrix(x2, [3.0, 1e-310, 2.0])
    assert err.value.condition_estimate == np.inf
    with pytest.raises(SingularOperatorError, match="imaginary axis"):
        resolvent_matrix(x2, [3.0, 2.0j])


def test_x2_resolvents_eliminate_named_lambdas_as_bounded_stacks(monkeypatch):
    fam = hermite_generators(160)
    calls = []
    build = hilleyosida.resolvent_matrix
    monkeypatch.setattr(
        hilleyosida, "resolvent_matrix", lambda X, lam: calls.append(lam) or build(X, lam)
    )
    lams = [1.5 + k for k in range(12)]
    resolvents = fam.x2_resolvents(lams)
    for lam in lams:
        assert np.array_equal(resolvents.matrix(lam), build(fam.x1.real, lam))
    # at most 2^18 entries a stack: 10 lambdas at N = 160
    assert calls == [tuple(lams[:10]), tuple(lams[10:])]
    v = np.random.default_rng(3).standard_normal((160, 3)) + 0j
    expect = build(fam.x2, lams[-1]) @ v
    assert np.allclose(resolvents.apply(lams[-1], v), expect, rtol=0, atol=1e-14)
    assert np.allclose(resolvents.apply(lams[-1], v[:, 0]), expect[:, 0], rtol=0, atol=1e-14)
    assert len(calls) == 2   # applied from the stack held


@pytest.mark.parametrize(
    "trunc, stacks",
    [(None, [1, 1, 4, 20, 3, 8, 4, 4, 7]), (160, [1, 1, 4, 10, 10, 3, 8, 4, 4, 7])],
)
def test_each_hille_yosida_case_eliminates_the_lambdas_it_names(monkeypatch, trunc, stacks):
    # hy-04's two calls, then one stack per case that names lambdas (hy-05, with
    # its negative branch, and hy-07 share one), split only where a stack would
    # pass 2^18 entries
    calls = []
    build = hilleyosida.resolvent_matrix
    monkeypatch.setattr(
        hilleyosida, "resolvent_matrix", lambda X, lam: calls.append(np.size(lam)) or build(X, lam)
    )
    suites.run_suite(suites.SuiteConfig(suite="hille-yosida", trunc=trunc))
    assert calls == stacks
    resolvents = hermite_generators(16).x2_resolvents((1.0, 2.0))
    with pytest.raises(UsageError, match="lam=3.0 is not among the named"):
        resolvents.apply(3.0, np.ones(16))
    assert len(calls) == len(stacks)   # refused, not eliminated alone


def test_the_x2_type_ladder_applies_the_subgroup_once_per_t(monkeypatch):
    ctx = suites.SuiteContext(suites.SuiteConfig(suite="hille-yosida"))
    apply, seen = UnitaryGroup.apply, []

    def counted(group, t, v, adjoint=False):
        seen.append(t)
        return apply(group, t, v, adjoint)

    monkeypatch.setattr(UnitaryGroup, "apply", counted)
    estimates = ctx.x2_type_estimates
    assert seen == list(suites.TYPE_T_GRID)   # 8 applications for the 4 levels, not 32
    monkeypatch.undo()
    phis = suites._phis_for_type(ctx.cfg, ctx)
    for est in estimates:   # bit-identical to one call per level
        alone = estimate_type(ctx.x2_subgroup.apply, ctx.chain, est.n, suites.TYPE_T_GRID, phis)
        assert alone == est


def test_one_ladder_rule_per_size(monkeypatch):
    hermite._ladder_rule.cache_clear()
    monkeypatch.setattr(np.linalg, "eigh", None)   # no call reaches LAPACK
    for N in (24, 24, 25, 24):
        hermite_generators(N).subgroups
    assert hermite._ladder_rule.cache_info().misses == 2
    for U in hermite_generators(24).subgroups:   # both groups share the rule's arrays
        assert U.V is hermite._ladder_rule(24, 24)[2]
        assert not (U.w.flags.writeable or U.V.flags.writeable)
