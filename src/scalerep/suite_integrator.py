"""The integrator suite: the chart integrator and the dual representation.

Evaluator invariants, the chart against the analytic and block actions,
the homomorphism and derivative identities, the dual pairing and
generator, and the truncation-ladder extension probes.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import blockrep, heisenberg, integrator, liecore, sampling, scale
from .errors import UsageError
from .liecore import GroupElement
from .sampling import CHART_BOX
from .suite_nilpotent_l2 import BLOCK_LADDER

HERMITE_LADDER = (32, 64, 128)


def _in_evaluator_invariants(cfg, ctx, rec):
    phis = sampling.interior_vector(rec.rng, ctx.N, ctx.N // 4, 5)
    checks = integrator.evaluator_invariants(ctx.hermite, phis)
    rec.check(
        "hermite-group-law",
        max(c.group_law_residual for c in checks),
        1e-9,
    )
    rec.check(
        "hermite-derivative",
        max(c.derivative_residual for c in checks),
        1e-5,
        note="central difference at h = 1e-6",
    )
    fam = ctx.blocks
    phis_b = sampling.interior_vector(rec.rng, fam.dim, fam.dim, 5)
    checks_b = integrator.evaluator_invariants(fam, phis_b)
    rec.check("block-group-law", max(c.group_law_residual for c in checks_b), 1e-9)
    rec.check("block-derivative", max(c.derivative_residual for c in checks_b), 1e-5)


def _in_chart_vs_analytic(cfg, ctx, rec):
    fam = ctx.hermite
    gs, block = sampling.draw_samples(rec.rng, 20, 1.0, ctx.N, ctx.N // 4)
    gaps = integrator.integrate_chart(fam, gs, block) - fam.action_analytic(gs, block)
    rec.worst("random", np.linalg.norm(gaps, axis=0), cfg.tolerance("route_agreement"))
    eye = np.eye(ctx.N)  # the operator itself, the chart applied to I
    rec.check(
        "identity",
        float(np.max(np.abs(integrator.integrate_chart(fam, liecore.IDENTITY, eye) - eye))),
        cfg.tolerance("algebraic"),
    )


def _in_chart_vs_blockrep(cfg, ctx, rec):
    eye = np.eye(ctx.blocks.dim)  # whole operators, the chart applied to I

    def gap():
        g = sampling.group_element(rec.rng, CHART_BOX)
        U = integrator.integrate_chart(ctx.blocks, g, eye)
        T = blockrep.rep_operator(g, ctx.blocks)
        return float(np.max(np.abs(U - T))) / max(1.0, float(np.max(np.abs(T))))

    rec.worst("exact-match", (gap() for _ in range(20)), cfg.tolerance("block_exact"))


def _in_homomorphism(cfg, ctx, rec):
    rng = rec.rng

    def residuals(fam, chain, dim, modes):
        g, h, block = sampling.draw_samples(rng, 15, 0.9, dim, modes, elements=2)
        return integrator.homomorphism_residual(fam, g, h, block, chain, 1)

    fam = ctx.hermite
    hermite = (fam, ctx.chain, ctx.N, ctx.action_modes(2))
    tol = cfg.tolerance("homomorphism")
    rec.worst("hermite-level1", residuals(*hermite), tol)
    phi = sampling.interior_vector(rng, ctx.N, ctx.action_modes(2))
    rec.check(
        "h-identity",
        integrator.homomorphism_residual(
            fam, sampling.group_element(rng, 0.9), liecore.IDENTITY, phi, ctx.chain, 1
        ),
        cfg.tolerance("algebraic") * 100,
    )
    blocks = (ctx.blocks, ctx.block_chain, ctx.blocks.dim, ctx.blocks.dim)
    block_scale = float(ctx.M**2)
    rec.worst(
        "block-level1",
        residuals(*blocks),
        cfg.tolerance("block_exact") * block_scale * 100,
        note="exact algebra up to float rounding at entry scale M^2",
    )


def _in_inverse_consistency(cfg, ctx, rec):
    g, h, block = sampling.draw_samples(rec.rng, 10, 0.8, ctx.N, ctx.action_modes(2), elements=2)
    # (g, h) and (h^{-1}, g^{-1}) side by side, so one block call measures both
    joined = lambda a, b: GroupElement(*np.hstack([a.as_array().T, b.as_array().T]))
    r = integrator.homomorphism_residual(
        ctx.hermite,
        joined(g, liecore.group_inverse(h)),
        joined(h, liecore.group_inverse(g)),
        np.hstack([block, block]),
        ctx.chain,
        1,
    )
    rec.worst("swap-inverse-residual-gap", np.abs(r[:10] - r[10:]), cfg.tolerance("homomorphism"))


def _in_int_identity(cfg, ctx, rec):
    rng = rec.rng
    fam = ctx.hermite
    tol = cfg.tolerance("int_identity")
    n = 1
    phi = sampling.interior_vector(rng, ctx.N, ctx.action_modes(n + 2))
    rec.check(
        "t-zero",
        integrator.int_identity_residual(fam, 1, 2, 0.0, phi, ctx.chain, n),
        cfg.tolerance("algebraic") * 100,
    )
    rec.check(
        "x1-conjugates-x2",
        integrator.int_identity_residual(fam, 1, 2, 0.7, phi, ctx.chain, n),
        tol,
    )
    rec.check(
        "self-conjugation",
        integrator.int_identity_residual(fam, 2, 2, 1.1, phi, ctx.chain, n),
        1e-8,
    )

    def residual():
        i = int(rng.integers(1, 4))
        j = int(rng.integers(1, 4))
        t = float(rng.uniform(-1.0, 1.0))
        return integrator.int_identity_residual(fam, i, j, t, phi, ctx.chain, n)

    rec.worst("random-pairs", (residual() for _ in range(10)), tol)
    bfam = ctx.blocks
    phi_b = sampling.interior_vector(rng, ctx.blocks.dim, ctx.blocks.dim)
    worst_b = 0.0
    for (i, j, t) in ((1, 2, 0.8), (2, 1, -0.6), (1, 3, 1.2)):
        worst_b = max(
            worst_b,
            integrator.int_identity_residual(bfam, i, j, t, phi_b, ctx.block_chain, 1),
        )
    rec.check(
        "block-exact",
        worst_b,
        cfg.tolerance("block_exact") * ctx.M**2 * 100,
    )


def _in_product_derivative(cfg, ctx, rec):
    # d/dt T(t,Xi) T(t,Xj) phi = T(t,Xi) (Xi + Xj) T(t,Xj) phi by central
    # differences on the factored evaluators
    rng = rec.rng
    fam = ctx.hermite
    t = 0.4
    worst_rows = []
    phi = sampling.interior_vector(rng, ctx.N, ctx.action_modes(2))
    for (i, j) in ((1, 2), (2, 1), (1, 3)):
        Ei, Ej = fam.evaluators[i - 1], fam.evaluators[j - 1]
        target = Ei(t, fam.apply_generator(np.eye(3)[i - 1] + np.eye(3)[j - 1], Ej(t, phi)))
        rows = []
        for h in (1e-2, 5e-3):
            fd = (Ei(t + h, Ej(t + h, phi)) - Ei(t - h, Ej(t - h, phi))) / (2 * h)
            rows.append(scale.scale_norm(ctx.chain, fd - target, 1))
        ratio = rows[0] / rows[1] if rows[1] > 0 else 4.0
        worst_rows.append((rows[-1], ratio))
    rec.check(
        "second-order-rate",
        max(abs(r - 4.0) for _, r in worst_rows),
        1.2,
        residuals=[r for r, _ in worst_rows],
    )


def _in_derivative_identity(cfg, ctx, rec):
    rng = rec.rng
    fam = ctx.hermite
    lo, hi = 3.4, 4.6
    phi = sampling.interior_vector(rng, ctx.N, ctx.action_modes(2))
    residuals = integrator.derivative_identity_check(
        fam, (1.0, 1.0, 0.0), 0.3, phi, ctx.chain, 1, h_grid=(1e-2, 5e-3, 2.5e-3)
    )
    ratios = [residuals[k] / residuals[k + 1] for k in range(len(residuals) - 1)]
    ok = all(lo <= r <= hi for r in ratios)
    rec.check(
        "central-difference-rate",
        max(ratios),
        hi,
        passed=ok,
        ratio_min=min(ratios),
    )
    # the two right-hand forms agree with each other
    X = partial(fam.apply_generator, (1.0, 1.0, 0.0))
    U = partial(integrator.integrate_chart, fam, liecore.chart_exp((1.0, 1.0, 0.0), 0.3))
    rec.check(
        "left-right-forms-agree",
        scale.scale_norm(ctx.chain, X(U(phi)) - U(X(phi)), 1),
        1e-7,
    )
    rec.check(
        "translated-variant",
        integrator.translated_derivative_residual(
            fam, (0.0, 1.0, 0.0), 0.2, GroupElement(0.3, -0.2, 0.1), phi, ctx.chain, 1
        ),
        1e-4,
        note="first-order in the step h = 1e-3 squared",
    )
    zero = np.zeros(3)
    (residual0,) = integrator.derivative_identity_check(
        fam, zero, 0.0, phi, ctx.chain, 1, h_grid=(1e-2,)
    )
    rec.check("zero-direction", residual0, cfg.tolerance("algebraic") * 100)


def _in_interpolation(cfg, ctx, rec):
    rng = rec.rng
    phi = sampling.interior_vector(rng, ctx.N, ctx.action_modes(2))

    def residual():
        x = rng.standard_normal(3) * 0.4
        t = float(rng.uniform(0.2, 0.9))
        g = sampling.group_element(rng, 0.4)
        return integrator.interpolation_constancy_residual(ctx.hermite, x, t, g, phi, ctx.chain, 1)

    rec.worst("path-constant", (residual() for _ in range(5)), cfg.tolerance("homomorphism"))


def _in_series_vs_automorphism(cfg, ctx, rec):
    phi = sampling.interior_vector(rec.rng, ctx.N, ctx.action_modes(2))
    worst = 0.0
    for i in (1, 2, 3):
        worst = max(
            worst,
            integrator.conjugation_series_vs_automorphism(ctx.hermite, i, 0.6, phi, ctx.chain, 1),
        )
    rec.check("coefficients-match", worst, 1e-8, convention=cfg.x3_sign)


def _in_dual_pairing(cfg, ctx, rec):
    gs, phis, Fs = sampling.draw_samples(rec.rng, 100, CHART_BOX, ctx.N, ctx.N, vectors=2)
    residuals = integrator.pairing_residual(ctx.hermite, gs, phis, Fs)
    # the pairing is the ambient inner product; level 1 names the test-side scale
    rec.worst("pairing-identity", residuals, cfg.tolerance("pairing"), pairing_level=1)


def _in_dual_generator(cfg, ctx, rec):
    worst = 0.0
    for i in (1, 2, 3):
        F = sampling.interior_vector(rec.rng, ctx.N, ctx.N // 2)
        worst = max(worst, integrator.dual_generator_residual(ctx.hermite, i, F))
    rec.check(
        "finite-difference-generator",
        worst,
        cfg.tolerance("dual_generator"),
        note="second-order difference at h = 1e-4",
    )


def _in_dual_involution(cfg, ctx, rec):
    rng = rec.rng
    A = rng.standard_normal((ctx.N, ctx.N)) + 1j * rng.standard_normal((ctx.N, ctx.N))
    rec.check(
        "involution-exact",
        float(np.max(np.abs(integrator.dual_operator(integrator.dual_operator(A)) - A))),
        0.0,
    )


def _in_extension_hermite(cfg, ctx, rec):
    t = 1.0
    families = [(N, heisenberg.hermite_generators(N, cfg.x3_sign)) for N in HERMITE_LADDER]
    for i, label in ((1, "X1"), (2, "X2"), (3, "X3")):
        # exp(t X_i) itself: the evaluator applied to I on the fixed ladder
        ladder = [(N, np.linalg.norm(f.evaluators[i - 1](t, np.eye(N)), 2)) for N, f in families]
        verdict = integrator.extension_probe(ladder)
        rec.holds(
            f"{label}-extends",
            verdict.verdict == "extends",
            norms=list(verdict.norms),
            growth_exponent=verdict.growth_exponent,
        )
    short = lambda: integrator.extension_probe(ladder[:2])
    rec.raises("short-ladder-refused", UsageError, short)


def _in_extension_blocks(cfg, ctx, rec):
    t = 1.0
    for i, label in ((1, "X1"), (2, "X2"), (3, "X3")):
        ladder = [
            (3 * M, blockrep.exp_operator_norm(blockrep.block_generators(M), i, t))
            for M in BLOCK_LADDER
        ]
        verdict = integrator.extension_probe(ladder)
        rec.holds(
            f"{label}-does-not-extend",
            verdict.verdict == "does not extend",
            norms=list(verdict.norms),
            growth_exponent=verdict.growth_exponent,
        )


CASES = (
    ("in-01-evaluator-invariants", ("thm-3.1",), _in_evaluator_invariants),
    ("in-02-chart-vs-analytic", ("3.2.24", "thm-3.1"), _in_chart_vs_analytic),
    ("in-03-chart-vs-blockrep", ("3.2.24", "e2.6"), _in_chart_vs_blockrep),
    ("in-04-homomorphism", ("3.2.30", "3.2.25"), _in_homomorphism),
    ("in-05-inverse-consistency", ("3.2.30",), _in_inverse_consistency),
    (
        "in-06-int-identity",
        ("3.2.10", "3.2.14", "3.2.22", "prop-3.1", "prop-3.3"),
        _in_int_identity,
    ),
    ("in-07-product-derivative", ("3.2.13", "prop-3.2"), _in_product_derivative),
    (
        "in-08-derivative-identity",
        ("3.2.27", "3.2.28", "3.2.23", "3.2.8", "3.2.8a", "3.2.9"),
        _in_derivative_identity,
    ),
    ("in-09-interpolation-constancy", ("3.2.29", "3.2.26"), _in_interpolation),
    ("in-10-series-vs-automorphism", ("3.2.22", "2.15"), _in_series_vs_automorphism),
    ("in-11-dual-pairing", ("2.3.1", "dual-group"), _in_dual_pairing),
    ("in-12-dual-generator", ("2.3.2", "2.3.3", "cor-3.1"), _in_dual_generator),
    ("in-13-dual-involution", ("2.3.1",), _in_dual_involution),
    (
        "in-14-extension-hermite",
        ("3.2.31", "3.2.32", "prop-3.4"),
        _in_extension_hermite,
    ),
    ("in-15-extension-blocks", ("prop-3.4",), _in_extension_blocks),
)
