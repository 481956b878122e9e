"""The heisenberg-hermite suite: the group acting on truncated Hermite modes.

Generator entries and the commutator, unitarity and route agreement of
the action, the conjugation law, the sharp and generic growth bounds, and
continuity and differentiability along the scale.
"""

from __future__ import annotations

from functools import partial
from math import factorial, sqrt

import numpy as np

from . import heisenberg, hermite, liecore, sampling, scale
from .liecore import GroupElement
from .sampling import CHART_BOX
from .suite_scale_core import group_bound_ratios


def _hh_generator_entries(cfg, ctx, rec):
    fam = ctx.hermite
    tol = cfg.tolerance("algebraic")
    # quadrature oracle for <h1, x h0>
    xs, ws = hermite.gauss_hermite(96)
    h0 = np.pi ** (-0.25) * np.exp(-0.5 * xs * xs)
    h1 = sqrt(2.0) * xs * h0
    overlap = float(np.sum(ws * h1 * xs * h0))
    rec.check("x-matrix-entry", abs(overlap - 1.0 / sqrt(2.0)), cfg.tolerance("norm_oracle"))
    # the generators' (3, N) rows: X[1, 0] is x2[0, 1]; with real entries, X^* is X^T
    rec.check("x2-entry", abs(fam.x2[0, 1] - (-1j) * overlap), cfg.tolerance("norm_oracle"))
    antisymmetry = fam.x1 + scale.banded_adjoint(fam.x1)
    rec.check("x1-real-antisymmetric", np.max(np.abs(antisymmetry)), tol)
    rec.check("x1-imag-part", np.max(np.abs(fam.x1.imag)), tol)
    sym = (1j * fam.x2)
    rec.check("x2-i-times-symmetric", np.max(np.abs(sym - scale.banded_adjoint(sym))), tol)
    rec.check("x2-real-part", np.max(np.abs(fam.x2.real)), tol)


def _hh_commutator(cfg, ctx, rec):
    fam = ctx.hermite
    # the five diagonals of X1 X2 - X2 X1 - X3: defect[d + 2, i] is entry (i, i + d)
    defect = scale.banded_product(fam.x1, fam.x2) - scale.banded_product(fam.x2, fam.x1)
    defect[2] -= liecore.x3_sign_factor(cfg.x3_sign)
    j = np.arange(ctx.N) + np.arange(-2, 3)[:, None]  # the column of each entry; j[2] its row
    interior = (j[2] < ctx.N - 2) & (0 <= j) & (j < ctx.N - 2)
    rec.check(
        "central-on-interior",
        np.max(np.abs(defect[interior])),
        cfg.tolerance("algebraic"),
        convention=cfg.x3_sign,
    )
    rec.record_only("band-edge-defect", float(np.max(np.abs(defect))))


def _hh_unitarity(cfg, ctx, rec):
    tol = cfg.tolerance("unitarity")
    gs, block = sampling.draw_samples(rec.rng, 50, CHART_BOX, ctx.N, ctx.action_modes(0))
    for name, act in (
        ("analytic-route", ctx.hermite.action_analytic),
        ("factored-route", ctx.hermite.action_factored),
    ):
        rec.worst(name, np.abs(np.linalg.norm(act(gs, block), axis=0) - 1.0), tol)


def _hh_identity_phase(cfg, ctx, rec):
    tol = cfg.tolerance("algebraic")
    phi = sampling.interior_vector(rec.rng, ctx.N, ctx.N // 2)
    rec.check(
        "identity-action",
        np.max(np.abs(ctx.hermite.action_analytic(liecore.IDENTITY, phi) - phi)),
        tol,
    )
    xi3 = 0.8
    out = ctx.hermite.action_analytic(GroupElement(0, 0, xi3), phi)
    rec.check("pure-phase", np.max(np.abs(out - np.exp(-1j * xi3) * phi)), tol)


def _hh_route_agreement(cfg, ctx, rec):
    rng = rec.rng
    tol = cfg.tolerance("route_agreement")

    gs, block = sampling.draw_samples(rng, 40, 1.0, ctx.N, ctx.N // 4)
    gaps = ctx.hermite.action_analytic(gs, block) - ctx.hermite.action_factored(gs, block)
    rec.worst("l2-distance", np.linalg.norm(gaps, axis=0), tol)
    rec.worst("level1-distance", scale.scale_norm(ctx.chain, gaps, 1), tol)
    g = GroupElement(0, 0.9, 0)
    phi = sampling.interior_vector(rng, ctx.N, ctx.N // 4)
    a = ctx.hermite.action_analytic(g, phi)
    b = ctx.x2_subgroup.apply(0.9, phi)
    rec.check("pure-modulation", float(np.linalg.norm(a - b)), tol)


def _hh_action_homomorphism(cfg, ctx, rec):
    def residuals(act, box, modes, count):
        g, h, block = sampling.draw_samples(rec.rng, count, box, ctx.N, modes, elements=2)
        gh = liecore.group_multiply(g, h)
        return np.linalg.norm(act(g, act(h, block)) - act(gh, block), axis=0)

    tol = cfg.tolerance("homomorphism_l0")
    rec.worst("factored-route", residuals(ctx.hermite.action_factored, 1.0, ctx.N // 4, 50), tol)
    # analytic-route composition spreads support twice; use small vectors
    rec.worst("analytic-route", residuals(ctx.hermite.action_analytic, 0.5, ctx.N // 8, 10), tol)


def _hh_conjugation(cfg, ctx, rec):
    rng = rec.rng
    tol = cfg.tolerance("conjugation")
    n = 1
    # the check composes two actions and one generator application
    modes = min(ctx.N // 8, ctx.chain.family.interior_modes(n + 1))
    phi = sampling.interior_vector(rng, ctx.N, modes)
    rec.check(
        "identity-element",
        heisenberg.conjugation_residual(ctx.hermite, ctx.chain, liecore.IDENTITY, 1, phi, n),
        cfg.tolerance("algebraic"),
    )
    named = heisenberg.conjugation_residual(
        ctx.hermite, ctx.chain, GroupElement(0, 0.8, 0), 1, phi, n
    )
    rec.check("modulation-on-x1", named, tol, g=(0.0, 0.8, 0.0))

    gs, idx, phis = [], [], []
    for _ in range(30):
        gs.append(sampling.group_element(rng, 1.0))
        idx.append(int(rng.integers(1, 4)))
        phis.append(sampling.interior_vector(rng, ctx.N, modes))
    gs = GroupElement.stack(gs)
    phis = np.array(phis).T
    residuals = heisenberg.conjugation_residual(ctx.hermite, ctx.chain, gs, idx, phis, n)
    rec.worst("random", residuals, tol, convention=cfg.x3_sign)


def _hh_conjugation_sign(cfg, ctx, rec):
    phi = sampling.interior_vector(rec.rng, ctx.N, ctx.N // 4)
    xi1 = 0.6
    offset = heisenberg.measured_conjugation_offset(
        ctx.hermite, GroupElement(xi1, 0, 0), 2, phi
    )
    # offset / (-1j xi1) = +1 when the measured sign follows the group action
    rec.record_only(
        "translation-on-x2-offset",
        float((offset / (-1j * xi1)).real),
        imag_part=float((offset / (-1j * xi1)).imag),
        note="printed alternate sign would measure -1 here",
    )
    xi2 = 0.6
    offset1 = heisenberg.measured_conjugation_offset(
        ctx.hermite, GroupElement(0, xi2, 0), 1, phi
    )
    rec.record_only(
        "modulation-on-x1-offset",
        float((offset1 / (1j * xi2)).real),
        imag_part=float((offset1 / (1j * xi2)).imag),
    )


def _sharp_check(ctx, g, phi, n):
    """||T(g) phi||_n against the sharp growth factor (1 + xi1^2 + xi2^2)^{n/2} (e1.9)."""
    factor = (1.0 + g.xi1**2 + g.xi2**2) ** (n / 2.0)
    return scale.bound_check(ctx.chain, partial(ctx.hermite.action_analytic, g), phi, n, factor)


def _hh_growth_sharp_random(cfg, ctx, rec):
    bound = 1.0 + cfg.tolerance("growth_slack")
    for n in range(1, min(cfg.n_max, 3) + 1):
        gs, block = sampling.draw_samples(rec.rng, 100, CHART_BOX, ctx.N, ctx.action_modes(n))
        check = _sharp_check(ctx, gs, block, n)
        rec.worst(f"level{n}", check.ratio, bound)


def _hh_growth_sharp_instances(cfg, ctx, rec):
    res = _sharp_check(ctx, GroupElement(1, 1, 0), ctx.h0, 1)
    rec.check(
        "bound-factor-sqrt3",
        abs(res.bound - sqrt(3.0) * scale.scale_norm(ctx.chain, ctx.h0, 1)),
        cfg.tolerance("norm_oracle"),
    )
    rec.check("h0-instance", res.ratio, 1.0 + cfg.tolerance("growth_slack"))
    worst = 0.0
    for n in range(1, min(cfg.n_max, 3) + 1):
        phi = sampling.interior_vector(rec.rng, ctx.N, ctx.action_modes(n))
        res = _sharp_check(ctx, GroupElement(0, 0, 1.3), phi, n)
        worst = max(worst, abs(res.lhs - res.bound))
    rec.check("phase-equality", worst, cfg.tolerance("phase_equality"))


def _hh_growth_sharp_probe(cfg, ctx, rec):
    # displaced (coherent-style) state anti-aligned with the modulation:
    # the sharp factor is exceeded, so the bound is sampling-sensitive
    phi = np.zeros(ctx.N, dtype=complex)
    for m in range(min(30, ctx.N // 2)):
        phi[m] = np.exp(-0.25) * (-1j) ** m / sqrt(2.0**m * factorial(m))
    phi /= np.linalg.norm(phi)
    res = _sharp_check(ctx, GroupElement(0, 0.1, 0), phi, 1)
    rec.record_only(
        "displaced-state-ratio",
        res.ratio,
        note="frequency-shifted state exceeds the sharp factor; random draws do not",
    )


def _hh_growth_generic(cfg, ctx, rec):
    bound = 1.0 + cfg.tolerance("growth_slack")
    rec.worst("random", group_bound_ratios(cfg, ctx, rec.rng, 30), bound)


def _hh_continuity(cfg, ctx, rec):
    rng = rec.rng
    floor = cfg.tolerance("continuity_floor")
    t_values = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)
    for axis, x in (("x1", (1, 0, 0)), ("x2", (0, 1, 0)), ("x3", (0, 0, 1))):
        for n in range(0, min(cfg.n_max, 2) + 1):
            phi = sampling.interior_vector(rng, ctx.N, 8)
            steps = liecore.chart_exp(x, np.array(t_values))
            images = ctx.hermite.action_analytic(steps, np.repeat(phi[:, None], len(t_values), 1))
            values = scale.scale_norm(ctx.chain, images - phi[:, None], n).tolist()
            monotone = all(b <= a * 1.01 for a, b in zip(values, values[1:]))
            rec.check(
                f"{axis}-level{n}",
                values[-1],
                floor,
                passed=monotone and values[-1] < floor,
                decay_to=values[-1],
            )


def _hh_differentiability(cfg, ctx, rec):
    rng = rec.rng
    lo, hi = cfg.tolerance("ratio_lo"), cfg.tolerance("ratio_hi")
    for axis, x in (("x1", (1, 0, 0)), ("x2", (0, 1, 0)), ("x3", (0, 0, 1))):
        for n in range(0, min(cfg.n_max, 2) + 1):
            phi = sampling.interior_vector(rng, ctx.N, min(12, ctx.action_modes(n + 1)))
            probe = heisenberg.differentiability_probe(ctx.hermite, ctx.chain, x, phi, n)
            ratios = probe.ratios
            ok = probe.converged and all(lo <= r <= hi for r in ratios)
            measured_lo = min(ratios)
            measured_hi = max(ratios)
            rec.check(
                f"{axis}-level{n}",
                measured_hi,
                hi,
                passed=ok,
                ratio_min=measured_lo,
                final_residual=probe.residuals[-1],
            )
    zero = np.zeros(ctx.N, dtype=complex)
    probe_residuals = [
        scale.scale_norm(
            ctx.chain,
            (ctx.hermite.action_analytic(liecore.chart_exp((1, 0, 0), t), zero) - zero) / t
            - ctx.hermite.apply_generator((1, 0, 0), zero),
            1,
        )
        for t in (1e-2, 1e-3)
    ]
    rec.check("zero-vector", max(probe_residuals), cfg.tolerance("algebraic"))


CASES = (
    ("hh-01-generator-entries", ("e1.7",), _hh_generator_entries),
    ("hh-02-commutator-central", ("e1.3", "e1.7"), _hh_commutator),
    ("hh-03-unitarity", ("e1.6",), _hh_unitarity),
    ("hh-04-identity-and-phase", ("e1.6",), _hh_identity_phase),
    ("hh-05-route-agreement", ("e1.6", "3.2.24"), _hh_route_agreement),
    ("hh-06-action-homomorphism", ("e1.1", "e1.6"), _hh_action_homomorphism),
    ("hh-07-conjugation-law", ("2.15",), _hh_conjugation),
    ("hh-08-conjugation-sign-record", ("2.15",), _hh_conjugation_sign),
    ("hh-09-growth-sharp-random", ("e1.9",), _hh_growth_sharp_random),
    ("hh-10-growth-sharp-instances", ("e1.9",), _hh_growth_sharp_instances),
    ("hh-11-growth-sharp-displaced-probe", ("e1.9",), _hh_growth_sharp_probe),
    ("hh-12-growth-generic", ("2.16",), _hh_growth_generic),
    ("hh-13-continuity", ("e1.10", "2.18", "2.19", "prop-2.1"), _hh_continuity),
    ("hh-14-differentiability", ("e1.11", "2.20"), _hh_differentiability),
)
