"""The hille-yosida suite: types and resolvents of the X2 subgroup.

Type estimates, the Laplace, matrix and closed-form resolvent routes, the
resolvent identity, the Yosida reconstruction, the equicontinuity ladder
and the global conditions along the scale.
"""

from __future__ import annotations

from functools import partial
from math import erfc, inf

import numpy as np

from . import blockrep, hilleyosida, liecore, sampling, scale
from .errors import UsageError


def _hy_type_x2(cfg, ctx, rec):
    tol = cfg.tolerance("omega")
    for est in ctx.x2_type_estimates:
        rec.check(f"level{est.n}", abs(est.omega_n), tol, sample_size=est.sample_size)


def _hy_type_trivial(cfg, ctx, rec):
    phis = ctx.type_samples(5)
    ident = lambda t, v: v
    est = hilleyosida.estimate_type(ident, ctx.chain, 1, (1.0, 10.0), phis)
    rec.check("identity-group", abs(est.omega_n), cfg.tolerance("algebraic"))
    est = hilleyosida.estimate_type(ctx.hermite.evaluators[2], ctx.chain, 2, ctx.type_t_grid, phis)
    rec.check("phase-subgroup", abs(est.omega_n), cfg.tolerance("omega"))


def _hy_type_blocks(cfg, ctx, rec):
    omegas = []
    for M in (10, 50):
        fam = blockrep.block_generators(M)
        chain = scale.build_scale_chain(fam, 2)
        phis = sampling.interior_vector(rec.rng, fam.dim, fam.dim, 10)
        est = hilleyosida.estimate_type(fam.evaluators[0], chain, 0, (1.0, 10.0, 100.0), phis)
        omegas.append(est.omega_n)
    rec.holds(
        "positive-and-growing",
        omegas[0] > 0 and omegas[1] > omegas[0],
        omega_m10=omegas[0],
        omega_m50=omegas[1],
    )


def _hy_resolvent_matrix(cfg, ctx, rec):
    lam = 2.5
    R = hilleyosida.resolvent_matrix(np.zeros((3, 6)), lam)
    rec.check(
        "zero-operator",
        np.max(np.abs(R - np.eye(6) / lam)),
        cfg.tolerance("algebraic"),
    )
    rec.raises(
        "eigenvalue-signal-fires",
        hilleyosida.SingularOperatorError,
        lambda: hilleyosida.resolvent_matrix(np.array([[0, 0, 0], [1j, 2j, 3j], [0, 0, 0]]), 2j),
    )


def _hy_laplace_vs_matrix(cfg, ctx, rec):
    tol = cfg.tolerance("resolvent_agreement")
    for lam in (1.0, 2.0, 4.0):
        result, Rm = ctx.h0_resolvents[lam]
        for n in (0, 1):
            rec.check(
                f"lam{lam:g}-level{n}",
                scale.scale_norm(ctx.chain, result.vector - Rm, n),
                tol,
                t_max=result.t_max,
            )
    # negative real-part branch
    result, Rm = ctx.h0_resolvents[-2.0]
    rec.check("negative-branch", float(np.linalg.norm(result.vector - Rm)), tol)


def _hy_closed_form_value(cfg, ctx, rec):
    Rc = hilleyosida.resolvent_closed_form_x2(1.0, ctx.h0, ctx.N)
    value = float(np.vdot(Rc, Rc).real)
    oracle = float(np.sqrt(np.pi) * np.e * erfc(1.0))
    rec.check("squared-norm", abs(value - oracle), cfg.tolerance("oracle_value"), oracle=oracle)


def _hy_triple_agreement(cfg, ctx, rec):
    h0 = ctx.h0
    tol = cfg.tolerance("resolvent_agreement")
    for lam in (1.0, 2.0, 4.0):
        result, matrix = ctx.h0_resolvents[lam]
        routes = {"laplace": result.vector, "matrix": matrix}
        routes["closed"] = hilleyosida.resolvent_closed_form_x2(lam, h0, ctx.N)
        for n in (0, 1):
            for a, b in (("laplace", "matrix"), ("matrix", "closed"), ("laplace", "closed")):
                gap = scale.scale_norm(ctx.chain, routes[a] - routes[b], n)
                rec.check(f"lam{lam:g}-level{n}-{a}-{b}", gap, tol)


def _hy_resolvent_identity(cfg, ctx, rec):
    lams = rec.rng.uniform(1.5, 6.0, 20).tolist()   # (lam, mu) pairs, in the stream's order
    resolvents = ctx.hermite.x2_resolvents(lams)
    pairs = zip(lams[::2], lams[1::2])

    def residual(lam, mu):
        # Rl - Rm - (mu - lam) Rl Rm, in X2's real frame, in one temporary beside the stack
        Rl, Rm = resolvents.matrix(lam), resolvents.matrix(mu)
        gap = Rl @ Rm
        gap *= lam - mu
        gap += Rl
        gap -= Rm
        return float(np.max(np.abs(gap, out=gap)))

    rec.worst("sampled-pairs", (residual(*pair) for pair in pairs), 1e-9)


def _hy_lambda_limit(cfg, ctx, rec):
    phi = sampling.interior_vector(rec.rng, ctx.N, ctx.N // 2)
    errs = []
    resolvents = ctx.hermite.x2_resolvents((10.0, 100.0, 1000.0))
    for lam in resolvents.lams:
        out = lam * resolvents.apply(lam, phi)
        errs.append(float(np.linalg.norm(out - phi)))
    decays = all(b < a for a, b in zip(errs, errs[1:]))
    rec.check(
        "first-order-limit",
        errs[-1] * 1000.0,
        20.0,
        passed=decays and errs[-1] * 1000.0 < 20.0,
        errors=errs,
    )


def _hy_yosida(cfg, ctx, rec):
    h0 = ctx.h0
    t = 0.5
    n = 1
    reference = ctx.x2_subgroup.apply(t, h0)
    spec = hilleyosida.YosidaSeriesSpec(lambda_sequence=cfg.lambda_sequence)
    mirrored = tuple(-lam for lam in spec.lambda_sequence)
    apply_resolvent = ctx.hermite.x2_resolvents(spec.lambda_sequence + mirrored).apply
    result = hilleyosida.yosida_reconstruct(
        apply_resolvent, spec, t, h0, ctx.chain, n, reference
    )
    distances = [d for _, d in result.trace]
    rec.holds(
        "monotone-in-lambda",
        all(b < a for a, b in zip(distances, distances[1:])),
        distances=distances,
        lambdas=list(spec.lambda_sequence),
    )
    by_lam = dict(result.trace)
    target_lam = 50.0 if 50.0 in by_lam else max(by_lam)
    rec.check(
        f"distance-at-lam{target_lam:g}",
        by_lam[target_lam],
        cfg.tolerance("yosida_target"),
        t=t,
        level=n,
    )
    zero_t = hilleyosida.yosida_reconstruct(
        apply_resolvent, spec, 0.0, h0, ctx.chain, n, h0
    )
    rec.check(
        "t-zero-exact",
        max(d for _, d in zero_t.trace),
        cfg.tolerance("algebraic"),
    )
    neg = hilleyosida.yosida_reconstruct(
        apply_resolvent, spec, -0.4, h0, ctx.chain, 0, ctx.x2_subgroup.apply(-0.4, h0)
    )
    rec.holds(
        "negative-branch-converges",
        neg.trace[-1][1] < neg.trace[0][1],
        distances=[d for _, d in neg.trace],
    )


def _hy_equicontinuity(cfg, ctx, rec):
    slack = cfg.tolerance("equicontinuity_slack")
    lams = [n + 2.0 for n in range(0, min(cfg.n_max, 3) + 1)]
    apply_resolvent = ctx.hermite.x2_resolvents(lams).apply
    for n in range(0, min(cfg.n_max, 3) + 1):
        lam = n + 2.0
        phis = sampling.interior_vector(rec.rng, ctx.N, ctx.action_modes(max(n, 1)), 100)
        rows = hilleyosida.equicontinuity_bound_check(apply_resolvent, ctx.chain, n, 5, lam, phis)
        rec.check(
            f"level{n}",
            np.max([r[1] for r in rows]),
            1.0 + slack,
            lam=lam,
            p_max=5,
            samples=100,
        )
    rec.raises(
        "forbidden-region-error",
        UsageError,
        lambda: hilleyosida.equicontinuity_bound_check(
            apply_resolvent, ctx.chain, 2, 2, 1.5, np.ones((ctx.N, 1))
        ),
    )


def _e118_check(ctx, resolvents, lam, phi, n):
    """||R(lam) phi||_n for X2 against the printed constant recursion (e1.18), whose
    validity range is not stated: hy-12 records the ratio rather than judge it."""
    factor = float(np.sqrt(np.prod(hilleyosida.e118_constants(lam, n))))
    return scale.bound_check(ctx.chain, partial(resolvents.apply, lam), phi, n, factor)


def _hy_e118(cfg, ctx, rec):
    resolvents = ctx.hermite.x2_resolvents((1.0, 2.0, 4.0, 3.0))
    for lam in (1.0, 2.0, 4.0):
        for n in (0, 1, 2):
            phi = sampling.interior_vector(rec.rng, ctx.N, ctx.action_modes(max(n, 1)))
            res = _e118_check(ctx, resolvents, lam, phi, n)
            rec.record_only(
                f"lam{lam:g}-level{n}",
                res.lhs / res.bound if res.bound > 0 else inf,
                within_bound=bool(res.lhs <= res.bound * (1.0 + 1e-6)),
            )
    res = _e118_check(ctx, resolvents, 3.0, ctx.h0, 0)
    rec.check(
        "level0-equals-inverse-lambda",
        abs(res.bound - scale.scale_norm(ctx.chain, ctx.h0, 0) / 3.0),
        cfg.tolerance("algebraic"),
    )


def _hy_global_conditions(cfg, ctx, rec):
    n_top = min(cfg.n_max, 3)
    levels = {n: ctx.action_modes(max(n, 1)) for n in range(0, n_top + 1)}
    # one lambda grid for every level: ladder comparisons must not inherit
    # grid placement
    top = float(n_top)
    lam_grid = (top + 1.5, top + 2.0, top + 3.0, top + 5.0, top + 8.0, top + 12.0, top + 20.0)
    resolvents = ctx.hermite.x2_resolvents(lam_grid)
    # measured in X2's real frame, where the level-n operator norms are the same
    frame = lambda lam, B: resolvents.matrix(lam) @ B
    betas = hilleyosida.estimate_beta(frame, ctx.chain, levels, lam_grid, p_max=5)
    verdict = hilleyosida.global_conditions_report(ctx.x2_type_estimates, betas)
    rec.check(
        "bounded-type-holds",
        verdict.omega_sup,
        cfg.tolerance("omega"),
        omegas=[te.omega_n for te in ctx.x2_type_estimates],
    )
    rec.holds(
        "uniform-equicontinuity-violated",
        not verdict.uniform_equicontinuity,
        betas=list(betas),
    )
    # phase subgroup: both conditions hold, beta ladder flat
    sign = liecore.x3_sign_factor(cfg.x3_sign)
    phase_beta = list(
        hilleyosida.estimate_beta(
            lambda lam, B: B / (lam - sign),
            ctx.chain,
            levels,
            (top + 2.0, top + 5.0, top + 10.0),
            p_max=3,
        )
    )
    spread = max(phase_beta) - min(phase_beta)
    rec.check("phase-subgroup-flat-ladder", spread, 1e-6, betas=phase_beta)


CASES = (
    ("hy-01-type-x2", ("2.1.6", "e1.12", "e1.13"), _hy_type_x2),
    ("hy-02-type-trivial", ("2.1.6",), _hy_type_trivial),
    ("hy-03-type-blocks", ("2.1.6",), _hy_type_blocks),
    ("hy-04-resolvent-matrix", ("2.1.7",), _hy_resolvent_matrix),
    ("hy-05-laplace-vs-matrix", ("2.1.7", "e1.14"), _hy_laplace_vs_matrix),
    ("hy-06-closed-form-value", ("e1.16", "e1.17"), _hy_closed_form_value),
    ("hy-07-triple-agreement", ("2.1.7", "e1.14", "e1.17"), _hy_triple_agreement),
    ("hy-08-resolvent-identity", ("2.1.7",), _hy_resolvent_identity),
    ("hy-09-lambda-limit", ("e1.17",), _hy_lambda_limit),
    ("hy-10-yosida-reconstruction", ("2.1.8",), _hy_yosida),
    ("hy-11-equicontinuity-ladder", ("2.1.9", "e1.15", "e1.19"), _hy_equicontinuity),
    ("hy-12-e118-recursion", ("e1.18",), _hy_e118),
    ("hy-13-global-conditions", ("2.1.10", "2.1.11"), _hy_global_conditions),
)
