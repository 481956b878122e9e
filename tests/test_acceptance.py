"""Acceptance gate: one test per criterion, at the pinned tolerances.

Every test prints a PASS/FAIL banner before asserting, so the run log
always carries the verdict table.  Default sizes throughout: 64 Hermite
modes, 50 blocks, scale depth 3, seed 42.
"""

import numpy as np
import pytest
import scipy.special

from scalerep import blockrep, hilleyosida, integrator, liecore
from scalerep.heisenberg import UnitaryGroup, differentiability_probe, hermite_generators
from scalerep.hermite import gauss_hermite
from scalerep.liecore import GroupElement
from scalerep.report import to_csv, to_json
from scalerep.sampling import case_rng, group_element, interior_vector
from scalerep.scale import bound_check, build_scale_chain, scale_norm
from scalerep.suites import SuiteConfig, missing_anchors, run_suite

from conftest import dense

SEED = 42
N = 64
M = 50
N_MAX = 3


def banner(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def fam():
    return hermite_generators(N)


@pytest.fixture(scope="module")
def chain(fam):
    return build_scale_chain(fam.scale_family, N_MAX)


@pytest.fixture(scope="module")
def blocks():
    return blockrep.block_generators(M)


@pytest.fixture(scope="module")
def x2_subgroup(fam):
    x = (1j * dense(fam.x2)).real
    w, V = np.linalg.eigh(x)
    Vh = V.conj().T
    return lambda t, v: ((V * np.exp(-1j * t * w)) @ Vh) @ v


@pytest.fixture(scope="module")
def x2_group(fam):
    return UnitaryGroup(*np.linalg.eigh((1j * dense(fam.x2)).real))


def test_criterion_01_algebraic_exactness(blocks):
    tol = 1e-12
    rng = case_rng(SEED, "acceptance", "criterion-1")
    sc = liecore.heisenberg_constants()
    residuals = {
        "antisymmetry": sc.antisymmetry_residual(),
        "jacobi": sc.jacobi_residual(),
        "product-relation": blocks.product_relation_residual(),
    }
    worst = 0.0
    for _ in range(200):
        lam = complex(rng.uniform(0.5, 4), rng.uniform(-2, 2))
        i = int(rng.integers(1, 4))
        worst = max(worst, blockrep.nilpotent_resolvent(blocks, i, lam).identity_residual)
    residuals["resolvent-factorization"] = worst
    worst = 0.0
    for _ in range(1000):
        g = group_element(rng, 2.0)
        ts = liecore.second_kind_coords(g)
        back = liecore.second_kind_compose(*ts)
        worst = max(worst, float(np.max(np.abs(back.as_array() - g.as_array()))))
    residuals["second-kind-roundtrip"] = worst
    worst = 0.0
    for _ in range(1000):
        g, h, k = (group_element(rng, 2.0) for _ in range(3))
        worst = max(worst, liecore.associativity_residual(g, h, k))
    residuals["associativity"] = worst
    worst = 0.0
    for _ in range(500):
        worst = max(
            worst,
            liecore.automorphism_identity_residual(sc, group_element(rng, 2.0)),
        )
    residuals["automorphism-identity"] = worst
    top = max(residuals.values())
    ok = top < tol
    banner(1, ok, f"algebraic residuals max {top:.3e} < {tol:g} {residuals}")
    assert ok


def test_criterion_02_scale_monotonicity(fam, chain, blocks):
    floor = chain.increment_eigenvalue_floor()
    block_chain = build_scale_chain(blocks, N_MAX)
    floor_b = block_chain.increment_eigenvalue_floor()
    xs, ws = gauss_hermite(160)
    g = np.pi ** (-0.25) * np.exp(-0.5 * xs * xs)

    def sq(v):
        return float(np.sum(ws * v * v))

    oracle1 = np.sqrt(sq(-xs * g) + sq(xs * g) + sq(g))
    oracle2 = np.sqrt(
        sq((xs * xs - 1) * g) + sq((1 - xs * xs) * g) + 2 * sq(xs * xs * g)
        + 2 * (sq(-xs * g) + sq(xs * g)) + sq(g)
    )
    h0 = np.zeros(N, dtype=complex)
    h0[0] = 1.0
    d1 = abs(scale_norm(chain, h0, 1) - oracle1)
    d2 = abs(scale_norm(chain, h0, 2) - oracle2)
    ok = floor >= -1e-12 and floor_b >= -1e-12 and d1 < 1e-9 and d2 < 1e-9
    banner(
        2,
        ok,
        f"eig floors {floor:.2e}/{floor_b:.2e} >= -1e-12; "
        f"|norm1 - sqrt2|={d1:.2e}, |norm2 - sqrt6|={d2:.2e} < 1e-9 "
        f"(oracles {oracle1:.12f}, {oracle2:.12f})",
    )
    assert ok


def test_criterion_03_growth_bounds(fam, chain):
    rng = case_rng(SEED, "acceptance", "criterion-3")
    slack = 1e-6

    def sharp(g, phi, n):
        # the sharp factor (e1.9) on the analytic action
        factor = (1 + g.xi1**2 + g.xi2**2) ** (n / 2)
        return bound_check(chain, lambda v: fam.action_analytic(g, v), phi, n, factor)

    worst_sharp = 0.0
    worst_generic = 0.0
    for n in (1, 2, 3):
        modes = min(N // 4, chain.family.interior_modes(n))
        for _ in range(100):
            g = group_element(rng, 2.0)
            phi = interior_vector(rng, N, modes)
            worst_sharp = max(worst_sharp, sharp(g, phi, n).ratio)
            # the generic factor (2.16) on the factored action
            factor = (1 + np.sum(np.abs(fam.automorphism(g)))) ** n
            generic = bound_check(chain, lambda v: fam.action_factored(g, v), phi, n, factor)
            worst_generic = max(worst_generic, generic.ratio)
    worst_phase = 0.0
    for n in (1, 2, 3):
        phi = interior_vector(rng, N, 12)
        res = sharp(GroupElement(0, 0, 0.9), phi, n)
        worst_phase = max(worst_phase, abs(res.lhs - res.bound))
    ok = (
        worst_sharp <= 1 + slack
        and worst_generic <= 1 + slack
        and worst_phase < 1e-9
    )
    banner(
        3,
        ok,
        f"sharp ratio {worst_sharp:.9f}, generic ratio {worst_generic:.9f} "
        f"<= 1+1e-6 on 100 samples per level; phase equality gap {worst_phase:.2e} < 1e-9",
    )
    assert ok


def test_criterion_04_differentiability(fam, chain):
    rng = case_rng(SEED, "acceptance", "criterion-4")
    lo, hi = 1.7, 2.3
    worst_lo, worst_hi = np.inf, 0.0
    for x in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        for n in (0, 1, 2):
            phi = interior_vector(rng, N, 12)
            probe = differentiability_probe(fam, chain, x, phi, n)
            worst_lo = min(worst_lo, min(probe.ratios))
            worst_hi = max(worst_hi, max(probe.ratios))
    ok = lo <= worst_lo and worst_hi <= hi
    banner(
        4,
        ok,
        f"halving ratios within [{worst_lo:.3f}, {worst_hi:.3f}] in [1.7, 2.3] "
        f"for three directions, n <= 2",
    )
    assert ok


def test_criterion_05_resolvent_triple(fam, chain, x2_group):
    h0 = np.zeros(N, dtype=complex)
    h0[0] = 1.0
    worst = {}
    for lam in (1.0, 2.0, 4.0):
        laplace = hilleyosida.resolvent_laplace(x2_group, lam, h0).vector
        matrix = hilleyosida.resolvent_matrix(fam.x2, lam) @ h0
        closed = hilleyosida.resolvent_closed_form_x2(lam, h0, N)
        worst[lam] = max(
            scale_norm(chain, a - b, n)
            for n in (0, 1)
            for a, b in ((laplace, matrix), (matrix, closed), (laplace, closed))
        )
    closed1 = hilleyosida.resolvent_closed_form_x2(1.0, h0, N)
    value = float(np.vdot(closed1, closed1).real)
    oracle = float(np.sqrt(np.pi) * np.e * scipy.special.erfc(1.0))
    value_ok = abs(value - oracle) < 1e-4
    pair_ok = all(v < 1e-6 for v in worst.values())
    ok = pair_ok and value_ok
    banner(
        5,
        ok,
        f"pairwise distances {({k: f'{v:.3e}' for k, v in worst.items()})} vs 1e-6; "
        f"|R(1)h0|^2 = {value:.10f} vs oracle {oracle:.10f} (diff {abs(value-oracle):.2e} < 1e-4)",
    )
    assert ok


def test_criterion_06_yosida_reconstruction(fam, chain, x2_subgroup):
    h0 = np.zeros(N, dtype=complex)
    h0[0] = 1.0
    spec = hilleyosida.YosidaSeriesSpec(lambda_sequence=(10.0, 20.0, 50.0, 100.0))
    reference = x2_subgroup(0.5, h0)
    cache = {}

    def apply_resolvent(lam, v):
        if lam not in cache:
            cache[lam] = hilleyosida.resolvent_matrix(fam.x2, lam)
        return cache[lam] @ v

    result = hilleyosida.yosida_reconstruct(
        apply_resolvent, spec, 0.5, h0, chain, 1, reference
    )
    distances = dict(result.trace)
    monotone = all(
        b < a for a, b in zip([d for _, d in result.trace], [d for _, d in result.trace][1:])
    )
    target = distances[50.0]
    ok = monotone and target < 1e-3
    banner(
        6,
        ok,
        f"distance at lambda=50 is {target:.6g} vs 1e-3; "
        f"trace {[f'{lam:g}:{d:.4g}' for lam, d in result.trace]} "
        f"monotone={monotone}",
    )
    assert ok


def test_criterion_07_equicontinuity_ladder(fam, chain, x2_subgroup):
    rng = case_rng(SEED, "acceptance", "criterion-7")
    cache = {}

    def apply_resolvent(lam, v):
        if lam not in cache:
            cache[lam] = hilleyosida.resolvent_matrix(fam.x2, lam)
        return cache[lam] @ v

    worst = 0.0
    for n in (0, 1, 2, 3):
        lam = n + 2.0
        modes = min(N // 4, chain.family.interior_modes(max(n, 1)))
        phis = np.array([interior_vector(rng, N, modes) for _ in range(100)]).T
        report = hilleyosida.equicontinuity_bound_check(apply_resolvent, chain, n, 5, lam, phis)
        worst = max(worst, max(r[1] for r in report.rows))
        assert max(r[1] for r in report.rows) <= 1 + 1e-8
    phis = np.array([interior_vector(rng, N, N // 4) for _ in range(20)]).T
    grid = (1.0, 100.0, 1e4, 1e6, 1e7)
    estimates = [
        hilleyosida.estimate_type(x2_subgroup, chain, n, grid, phis) for n in (0, 1, 2, 3)
    ]
    lam_grid = (4.5, 5.0, 6.0, 8.0, 11.0, 15.0, 23.0)
    betas = hilleyosida.estimate_beta(
        apply_resolvent,
        chain,
        {n: min(N // 4, chain.family.interior_modes(max(n, 1))) for n in (0, 1, 2, 3)},
        lambdas=lam_grid,
        p_max=5,
    )
    verdict = hilleyosida.global_conditions_report(estimates, betas)
    ok = (
        worst <= 1 + 1e-8
        and verdict.omega_sup <= 1e-6
        and not verdict.uniform_equicontinuity
    )
    banner(
        7,
        ok,
        f"bound ratio {worst:.6f} <= 1+1e-8 for p<=5, n<=3 at lam=n+2; "
        f"omega_sup={verdict.omega_sup:.2e} (bounded-type holds); "
        f"beta ladder {[f'{b:.3f}' for b in betas]} strictly increases "
        f"(uniform equicontinuity violated)",
    )
    assert ok


def test_criterion_08_nilpotent_example(blocks):
    rng = case_rng(SEED, "acceptance", "criterion-8")
    worst_hom = 0.0
    for _ in range(1000):
        g = group_element(rng, 2.0)
        h = group_element(rng, 2.0)
        worst_hom = max(worst_hom, blockrep.rep_homomorphism_residual(blocks, g, h))
    growth = blockrep.unboundedness_growth((10, 50, 100))
    norm_exact = max(abs(sigma - m) for m, sigma in growth)
    exp_rows = blockrep.nonextendability_evidence((10, 50, 100), 1.0)
    exp_ok = all(measured >= m for m, measured, _ in exp_rows)
    chain = build_scale_chain(blocks, 2)
    lo, hi = blockrep.norm_ratio_bounds()
    rlo, rhi = np.inf, 0.0
    for _ in range(1000):
        phi = interior_vector(rng, blocks.dim, blocks.dim)
        ratio = scale_norm(chain, phi, 2) / scale_norm(chain, phi, 1)
        rlo, rhi = min(rlo, ratio), max(rhi, ratio)
    g = GroupElement(1.0, 1.0, 1.0)
    norms = [blockrep.h1_operator_norm(blockrep.block_generators(m), g) for m in (10, 50, 100)]
    variation = (max(norms) - min(norms)) / max(norms)
    ok = (
        worst_hom < 1e-12
        and norm_exact == 0.0
        and exp_ok
        and lo - 1e-12 <= rlo
        and rhi <= hi + 1e-12
        and variation < 0.01
    )
    banner(
        8,
        ok,
        f"homomorphism residual {worst_hom:.2e} < 1e-12 (1000 pairs, relative); "
        f"||X1|| = M exact on ladder (max dev {norm_exact:g}); exp norms >= M; "
        f"ratio window [{rlo:.6f}, {rhi:.6f}] in [1, sqrt3]; "
        f"H1 constant varies {variation:.4%} < 1% across M ladder",
    )
    assert ok


def test_criterion_09_integrator(fam, chain, blocks):
    rng = case_rng(SEED, "acceptance", "criterion-9")
    worst_chart = 0.0
    for _ in range(20):
        g = group_element(rng, 1.0)
        phi = interior_vector(rng, N, N // 4)
        lhs = integrator.integrate_chart(fam, g, phi)
        worst_chart = max(worst_chart, float(np.linalg.norm(lhs - fam.action_analytic(g, phi))))
    worst_block = 0.0
    for _ in range(20):
        g = group_element(rng, 2.0)
        U = integrator.integrate_chart(blocks, g, np.eye(blocks.dim))
        T = blockrep.rep_operator(g, blocks)
        worst_block = max(
            worst_block, float(np.max(np.abs(U - T))) / max(1.0, float(np.max(np.abs(T))))
        )
    worst_hom = 0.0
    for _ in range(20):
        g = group_element(rng, 0.9)
        h = group_element(rng, 0.9)
        if max(np.abs(liecore.group_multiply(g, h).as_array())) > 2.0:
            continue
        phi = interior_vector(rng, N, N // 4)
        worst_hom = max(
            worst_hom, integrator.homomorphism_residual(fam, g, h, phi, chain, 1)
        )
    phi = interior_vector(rng, N, 12)
    worst_int = max(
        integrator.int_identity_residual(fam, 1, 2, 0.7, phi, chain, 1),
        integrator.int_identity_residual(fam, 2, 1, -0.5, phi, chain, 1),
    )
    worst_pair = 0.0
    for _ in range(100):
        g = group_element(rng, 2.0)
        worst_pair = max(
            worst_pair,
            integrator.pairing_residual(
                fam, g, interior_vector(rng, N, N), interior_vector(rng, N, N)
            ),
        )
    hermite_verdicts = []
    for i in (1, 2, 3):
        ladder = [
            (n, np.linalg.norm(hermite_generators(n).one_parameter(i, 1.0, np.eye(n)), 2))
            for n in (32, 64, 128)
        ]
        hermite_verdicts.append(integrator.extension_probe(ladder).verdict)
    block_verdicts = []
    for i in (1, 2, 3):
        ladder = [
            (3 * m, blockrep.exp_operator_norm(blockrep.block_generators(m), i, 1.0))
            for m in (10, 50, 100)
        ]
        block_verdicts.append(integrator.extension_probe(ladder).verdict)
    ok = (
        worst_chart < 1e-6
        and worst_block < 1e-12
        and worst_hom < 1e-6
        and worst_int < 1e-6
        and worst_pair < 1e-10
        and all(v == "extends" for v in hermite_verdicts)
        and all(v == "does not extend" for v in block_verdicts)
    )
    banner(
        9,
        ok,
        f"chart-vs-analytic {worst_chart:.2e} < 1e-6; chart-vs-block {worst_block:.2e} "
        f"< 1e-12; homomorphism {worst_hom:.2e} < 1e-6; conjugation-series "
        f"{worst_int:.2e} < 1e-6; dual pairing {worst_pair:.2e} < 1e-10; "
        f"verdicts hermite={hermite_verdicts}, blocks={block_verdicts}",
    )
    assert ok


def test_criterion_10_determinism_and_coverage():
    cfg = SuiteConfig(suite="scale-core", seed=SEED)
    rec1, _ = run_suite(cfg)
    rec2, _ = run_suite(cfg)
    json_same = to_json(rec1) == to_json(rec2)
    csv_same = to_csv(rec1) == to_csv(rec2)
    missing = missing_anchors()
    ok = json_same and csv_same and not missing
    banner(
        10,
        ok,
        f"byte-identical repeat runs (json={json_same}, csv={csv_same}); "
        f"coverage missing anchors: {sorted(missing) if missing else 'none'}",
    )
    assert ok
