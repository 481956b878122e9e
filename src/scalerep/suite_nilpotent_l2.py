"""The nilpotent-l2 suite: the block model of the group on truncated l2.

Block action and product relations, the collapse of the Gram norms, the
representation's homomorphism law, unbounded growth and resolvents of the
block generators, and continuity on the first scale level.
"""

from __future__ import annotations

from math import sqrt

import numpy as np

from . import blockrep, liecore, sampling, scale
from .errors import UsageError
from .liecore import GroupElement
from .sampling import CHART_BOX

BLOCK_LADDER = (10, 50, 100)


def _nl_block_action(cfg, ctx, rec):
    fam = blockrep.block_generators(max(3, min(ctx.M, 10)))
    tol = cfg.tolerance("block_exact")
    phi = np.zeros(fam.dim)
    phi[1] = 1.0    # (0, 1, 0 | 0, ...)
    out = fam.apply_generator((1, 0, 0), phi)
    expect = np.zeros(fam.dim)
    expect[0] = 1.0
    rec.check("block1-slot", np.max(np.abs(out - expect)), tol)
    phi = np.zeros(fam.dim)
    phi[4] = 1.0    # block 2, second slot
    out = fam.apply_generator((1, 0, 0), phi)
    expect = np.zeros(fam.dim)
    expect[3] = 2.0
    rec.check("block2-weight", np.max(np.abs(out - expect)), tol)


def _nl_product_relations(cfg, ctx, rec):
    fam = ctx.blocks
    rec.check("nine-pairs", fam.product_relation_residual(), 0.0)
    worst = max(fam.pair_residual(i, i) for i in (1, 2, 3))
    rec.check("squares-vanish", worst, 0.0)
    rec.check("x2x1-zero", fam.pair_residual(2, 1), 0.0)


def _nl_norm_collapse(cfg, ctx, rec):
    fam = ctx.blocks
    chain = ctx.block_chain
    rec.check(
        "gram2-collapse-identity",
        blockrep.collapse_identity_residual(fam, chain),
        cfg.tolerance("block_exact") * fam.M**4,
    )
    lo, hi = blockrep.NORM_RATIO_BOUNDS
    report = blockrep.norm_equivalence_report(
        chain, (sampling.interior_vector(rec.rng, fam.dim, fam.dim, 25) for _ in range(40))
    )
    rec.check(
        "ratio-window",
        report.ratio_max,
        hi + 1e-12,
        passed=report.ratio_min >= lo - 1e-12 and report.ratio_max <= hi + 1e-12,
        ratio_min=report.ratio_min,
        samples=report.sample_count,
    )
    # concentrated vector approaches the upper constant
    phi = np.zeros(fam.dim, dtype=complex)
    phi[3 * fam.M - 1] = 1.0   # top block, third slot: X3-dominated
    ratio = scale.scale_norm(chain, phi, 2) / scale.scale_norm(chain, phi, 1)
    rec.check("supremum-approach", hi - ratio, 1e-3, ratio=ratio)
    kernel = np.zeros(fam.dim, dtype=complex)
    kernel[0] = 1.0   # first slot of block 1 is annihilated by all three
    vals = [scale.scale_norm(chain, kernel, n) for n in (0, 1, 2)]
    rec.check("kernel-vector-flat", max(vals) - min(vals), cfg.tolerance("block_exact"))


def _nl_rep_homomorphism(cfg, ctx, rec):
    fam = ctx.blocks
    tol = cfg.tolerance("block_exact")
    named = blockrep.rep_homomorphism_residual(
        fam, GroupElement(1, 0, 0), GroupElement(0, 1, 0)
    )
    rec.check("frozen-pair", named, tol)
    g, h = sampling.group_element(rec.rng, CHART_BOX, (1000, 2)).unstack()
    rec.worst(
        "random-pairs",
        blockrep.rep_homomorphism_residual(fam, g, h),
        tol,
        note="relative to entry scale",
    )
    rec.check(
        "identity-element",
        float(np.max(np.abs(fam.rep_stack(liecore.IDENTITY) - blockrep.EYE3))),
        0.0,
    )


def _nl_unbounded_growth(cfg, ctx, rec):
    sizes = sorted(set(BLOCK_LADDER) | {1, ctx.M})
    rows = blockrep.unboundedness_growth(sizes)
    worst = max(abs(sigma - M) / M for M, sigma in rows)
    rec.check("norm-equals-M", worst, 1e-12, ladder=[m for m, _ in rows])


def _nl_resolvent(cfg, ctx, rec):
    fam = ctx.blocks

    def residual():
        lam = complex(rec.rng.uniform(0.5, 4.0), rec.rng.uniform(-2.0, 2.0))
        i = int(rec.rng.integers(1, 4))
        return blockrep.nilpotent_resolvent(fam, i, lam).identity_residual

    tol = cfg.tolerance("block_identity")
    rec.worst("factorization-identity", (residual() for _ in range(20)), tol)
    small = blockrep.block_generators(1)
    res = blockrep.nilpotent_resolvent(small, 1, 1.0)
    rec.check(
        "single-block",
        float(np.max(np.abs(res.stack[0] - (np.eye(3) + blockrep.CHI1)))),
        0.0,
    )
    rec.raises("lam-zero-refused", UsageError, lambda: blockrep.nilpotent_resolvent(fam, 1, 0.0))


def _nl_resolvent_growth(cfg, ctx, rec):
    fam = ctx.blocks
    res = blockrep.nilpotent_resolvent(fam, 1, 1.0)
    rec.holds(
        "norm-at-least-M",
        res.operator_norm >= fam.M * (1 - 1e-6),
        operator_norm=res.operator_norm,
        M=fam.M,
    )
    norms = [
        blockrep.nilpotent_resolvent(blockrep.block_generators(M), 1, 1.0).operator_norm
        for M in BLOCK_LADDER
    ]
    rec.holds("grows-with-M", all(b > a for a, b in zip(norms, norms[1:])), norms=norms)


def _nl_exp_growth(cfg, ctx, rec):
    rows = blockrep.nonextendability_evidence(sorted(set(BLOCK_LADDER) | {1}), 1.0)
    worst = max(abs(measured - closed) for _, measured, closed in rows)
    rec.check("closed-form-match", worst, 1e-9, ladder=[m for m, _, _ in rows])
    golden = 0.5 * (1.0 + sqrt(5.0))
    first = rows[0][1]
    rec.check("single-block-golden-ratio", abs(first - golden), 1e-12)
    grows = all(m2 >= m1 * 1.0 for (_, m1, _), (_, m2, _) in zip(rows, rows[1:]))
    above_M = all(measured >= M for M, measured, _ in rows)
    rec.holds("diverges-with-M", grows and above_M)
    t0 = blockrep.nonextendability_evidence((1, 10), 0.0)
    rec.check("t-zero-norm-one", max(abs(m - 1.0) for _, m, _ in t0), 1e-14)


def _nl_h1_continuity(cfg, ctx, rec):
    g = GroupElement(1.0, 1.0, 1.0)
    norms = [
        blockrep.h1_operator_norm(blockrep.block_generators(M), g) for M in BLOCK_LADDER
    ]
    variation = (max(norms) - min(norms)) / max(norms)
    rec.check(
        "ladder-variation",
        variation,
        cfg.tolerance("ladder_variation"),
        norms=norms,
        ladder=list(BLOCK_LADDER),
    )
    fam = ctx.blocks
    chain = ctx.block_chain
    bound = blockrep.h1_operator_norm(fam, g)

    def ratios():
        phi = sampling.interior_vector(rec.rng, fam.dim, fam.dim, 25)
        image = blockrep.rep_apply(g, fam, phi)
        return scale.scale_norm(chain, image, 1) / scale.scale_norm(chain, phi, 1)

    rec.worst(
        "samples-below-operator-norm",
        np.concatenate([ratios() for _ in range(8)]),
        bound * (1 + 1e-12),
        operator_norm=bound,
    )


CASES = (
    ("nl-01-block-action", ("e2.1", "e1.4b"), _nl_block_action),
    ("nl-02-product-relations", ("e2.3", "e1.4"), _nl_product_relations),
    ("nl-03-norm-collapse", ("e2.2", "e2.4", "e2.5"), _nl_norm_collapse),
    ("nl-04-rep-homomorphism", ("e2.6", "e1.1"), _nl_rep_homomorphism),
    ("nl-05-unbounded-growth", ("e2.1",), _nl_unbounded_growth),
    ("nl-06-resolvent-identity", ("e2.7",), _nl_resolvent),
    ("nl-07-resolvent-growth", ("e2.7",), _nl_resolvent_growth),
    ("nl-08-exp-growth", ("e2.6",), _nl_exp_growth),
    ("nl-09-h1-continuity", ("e2.5", "e2.6"), _nl_h1_continuity),
)
