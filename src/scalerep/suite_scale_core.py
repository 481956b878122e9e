"""The scale-core suite: the nested Gram-form scale of the Hermite pair.

The Gram chain, its norms and monotonicity, positive increments, the
generic group bound and invariance under recombining the generators.
``group_bound_ratios`` also serves heisenberg-hermite's hh-12.
"""

from __future__ import annotations

from functools import partial
from math import sqrt

import numpy as np

from . import hermite, liecore, sampling, scale
from .errors import UsageError
from .sampling import CHART_BOX


def _sc_zero_family(cfg, ctx, rec):
    N = 12
    fam = scale.GeneratorFamily((np.zeros((3, N)), np.zeros((3, N))))
    chain = scale.build_scale_chain(fam, 3)
    worst = max(G.identity_residual() for G in chain.grams)
    rec.check("grams-identity", worst, cfg.tolerance("algebraic"))


def _sc_h0_oracle(cfg, ctx, rec):
    # independent quadrature oracle: generator words applied to the
    # closed-form ground state (h0' = -x h0, etc.), never the Gram matrices
    xs, ws = hermite.gauss_hermite(160)
    h0 = np.pi ** (-0.25) * np.exp(-0.5 * xs * xs)
    d_h0 = -xs * h0
    x_h0 = xs * h0
    dd_h0 = (xs * xs - 1.0) * h0
    dx_h0 = (1.0 - xs * xs) * h0    # d/dx (x h0)
    xd_h0 = -xs * xs * h0           # x * h0'
    xx_h0 = xs * xs * h0

    def sq(v):
        return float(np.sum(ws * np.abs(v) ** 2))

    norm1_sq = sq(d_h0) + sq(x_h0) + sq(h0)
    norm2_sq = (
        sq(dd_h0) + sq(dx_h0) + sq(xd_h0) + sq(xx_h0)
        + 2.0 * (sq(d_h0) + sq(x_h0))
        + sq(h0)
    )
    tol = cfg.tolerance("norm_oracle")
    for n, oracle in ((1, norm1_sq), (2, norm2_sq)):
        gap = abs(scale.scale_norm(ctx.chain, ctx.h0, n) ** 2 - oracle)
        rec.check(f"level{n}", gap, tol, oracle=oracle)
    rec.check("level1-value", abs(norm1_sq - 2.0), tol)
    rec.check("level2-value", abs(norm2_sq - 6.0), tol)


def _sc_monotonicity(cfg, ctx, rec):
    def excess(phi, n):
        # max(||phi||_n - ||phi||_{n+1}, ||X_i phi||_n - ||phi||_{n+1})
        res = scale.monotonicity_check(ctx.chain, phi, n)
        return np.maximum.reduce([res.lhs - res.rhs, *(g - res.rhs for g in res.generator_lhs)])

    modes = ctx.chain.family.interior_modes
    rec.worst(
        "random-vectors",
        np.concatenate([
            excess(sampling.interior_vector(rec.rng, ctx.N, modes(n + 1), 100), n)
            for n in range(min(cfg.n_max, 3))
        ]),
        cfg.tolerance("algebraic"),
    )
    rec.check("zero-vector", excess(np.zeros(ctx.N, dtype=complex), 0), cfg.tolerance("algebraic"))
    lhs = scale.scale_norm(ctx.chain, ctx.hermite.apply_generator((0, 1, 0), ctx.h0), 0)
    rhs = scale.scale_norm(ctx.chain, ctx.h0, 1)
    rec.check(
        "h0-instance",
        abs(lhs - 1.0 / sqrt(2.0)) + abs(rhs - sqrt(2.0)),
        cfg.tolerance("norm_oracle"),
    )


def _sc_psd_increments(cfg, ctx, rec):
    floor = ctx.chain.increment_eigenvalue_floor()
    rec.check("hermite-family", max(0.0, -floor), cfg.tolerance("algebraic"))
    floor_b = ctx.block_chain.increment_eigenvalue_floor()
    rec.check("block-family", max(0.0, -floor_b), cfg.tolerance("algebraic"))


def _generic_factor(ctx, g, n):
    """(1 + sum_ij |f_ij|)^n with f the conjugation-law matrix of g: the generic
    growth factor of Prop. 2.1 (2.16), one per element of a block."""
    return (1.0 + np.sum(np.abs(ctx.hermite.automorphism(g)), axis=(-2, -1))) ** n


def group_bound_ratios(cfg, ctx, rng, per_level):
    """Generic group-bound ratios at random (g, phi), ``per_level`` per depth."""
    for n in range(1, min(cfg.n_max, 3) + 1):
        gs, block = sampling.draw_samples(rng, per_level, CHART_BOX, ctx.N, ctx.action_modes(n))
        act = partial(ctx.hermite.action_factored, gs)
        yield from scale.bound_check(ctx.chain, act, block, n, _generic_factor(ctx, gs, n)).ratio


def _sc_group_bound(cfg, ctx, rec):
    slack = cfg.tolerance("growth_slack")
    rec.worst("random-pairs", group_bound_ratios(cfg, ctx, rec.rng, 50), 1.0 + slack)
    factor = _generic_factor(ctx, liecore.IDENTITY, 2)
    res = scale.bound_check(ctx.chain, lambda v: v, ctx.h0, 2, factor)
    rec.check("identity-element", res.ratio, 1.0 + slack)


def _sc_basis_invariance(cfg, ctx, rec):
    def entry_gap(banded, diagonal):
        # largest entry of G_alt - diag(w), relative to the Gram entry scale
        diff = banded.bands.copy()
        diff[banded.width] -= diagonal.weights
        return float(np.max(np.abs(diff))) / max(1.0, diagonal.max_entry())

    def gap():
        theta = rec.rng.uniform(0, 2 * np.pi)
        O = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        if rec.rng.uniform() < 0.5:
            O[1] = -O[1]   # include reflections
        alt = scale.build_scale_chain(scale.recombined_family(ctx.chain.family, O), cfg.n_max)
        return max(entry_gap(a, b) for a, b in zip(alt.grams, ctx.chain.grams))

    rec.worst(
        "orthogonal-recombination",
        (gap() for _ in range(5)),
        cfg.tolerance("basis_invariance"),
        note="relative to the Gram entry scale, which grows like (2N)^n",
    )


def _sc_norm_properties(cfg, ctx, rec):
    rng = rec.rng
    levels, cs = np.empty(100, dtype=int), np.empty(100, dtype=complex)
    phis, psis = np.empty((2, 100, ctx.N), dtype=complex)
    for k in range(100):  # n, phi, psi and c of one sample, in stream order
        levels[k] = rng.integers(0, min(cfg.n_max, 3) + 1)
        phis[k] = sampling.interior_vector(rng, ctx.N, ctx.N // 2)
        psis[k] = sampling.interior_vector(rng, ctx.N, ctx.N // 2)
        cs[k] = complex(rng.standard_normal(), rng.standard_normal())
    sizes = np.array([abs(complex(c)) for c in cs])  # Python's |c|; np.abs can differ by an ulp
    homogeneity, triangle = np.empty(len(cs)), np.empty(len(cs))
    for n in set(levels.tolist()):  # the samples of one level as one block
        at, norm = levels == n, partial(scale.scale_norm, ctx.chain, n=n)
        phi, psi = phis[at].T, psis[at].T
        base = norm(phi)
        homogeneity[at] = np.abs(norm(cs[at] * phi) - sizes[at] * base)
        triangle[at] = norm(phi + psi) - base - norm(psi)
    bound = cfg.tolerance("algebraic") * ctx.chain.gram(min(cfg.n_max, 3)).max_entry()
    rec.worst("homogeneity", homogeneity, bound)
    rec.worst("triangle", triangle, bound)


def _sc_chain_validity(cfg, ctx, rec):
    tol = cfg.tolerance("algebraic")
    rec.check("g0-identity", ctx.chain.gram(0).identity_residual(), tol)
    rec.check("hermiticity", ctx.chain.hermiticity_residual(), tol)
    rec.raises(
        "guard-band-error-fires",
        UsageError,
        lambda: scale.build_scale_chain(ctx.chain.family, ctx.chain.family.max_safe_depth() + 1),
        note="over-deep chain request must raise a usage error",
    )


CASES = (
    ("sc-01-zero-family", ("2.4",), _sc_zero_family),
    ("sc-02-h0-norm-oracle", ("2.4", "2.5", "e1.8"), _sc_h0_oracle),
    ("sc-03-monotonicity", ("2.6",), _sc_monotonicity),
    ("sc-04-psd-increments", ("2.7", "def-1.1"), _sc_psd_increments),
    ("sc-05-group-bound-generic", ("2.16", "prop-2.1"), _sc_group_bound),
    ("sc-06-basis-invariance", ("2.4",), _sc_basis_invariance),
    ("sc-07-norm-properties", ("2.5",), _sc_norm_properties),
    ("sc-08-chain-validity", ("2.4", "2.7", "def-1.1"), _sc_chain_validity),
)
