"""The lie-core suite: the Lie algebra and the group chart.

Structure constants and brackets, the 3 x 3 matrix model, the group law,
second-kind coordinates, the automorphisms of the conjugation law and the
ad series.
"""

from __future__ import annotations

import numpy as np

from . import blockrep, liecore, sampling
from .liecore import GroupElement
from .sampling import CHART_BOX


def _lc_structure(cfg, ctx, rec):
    sc = liecore.heisenberg_constants()
    rec.check("antisymmetry", sc.antisymmetry_residual(), cfg.tolerance("algebraic"))
    rec.check("jacobi", sc.jacobi_residual(), cfg.tolerance("algebraic"))


def _lc_bracket(cfg, ctx, rec):
    sc = liecore.heisenberg_constants()
    e = np.eye(3)
    tol = cfg.tolerance("algebraic")
    rec.check("chi1-chi2", np.max(np.abs(liecore.bracket(sc, e[0], e[1]) - e[2])), tol)
    rec.check("chi1-chi3", np.max(np.abs(liecore.bracket(sc, e[0], e[2]))), tol)
    rec.check("chi2-chi3", np.max(np.abs(liecore.bracket(sc, e[1], e[2]))), tol)
    draws = rec.rng.standard_normal((100, 3))
    rec.worst("self-bracket", np.max(np.abs(liecore.bracket(sc, draws, draws)), axis=-1), tol)


def _lc_matrix_model(cfg, ctx, rec):
    tol = cfg.tolerance("algebraic")
    worst = 0.0
    for i, ci in enumerate(blockrep.CHIS):
        for j, cj in enumerate(blockrep.CHIS):
            target = blockrep.CHI3 if (i, j) == (0, 1) else np.zeros((3, 3))
            worst = max(worst, float(np.max(np.abs(ci @ cj - target))))
    rec.check("product-rule", worst, tol)
    v = np.array([2.0, 3.0, 5.0])
    chi = blockrep.chi_matrix((1.0, 1.0, 1.0))
    rec.check(
        "action-formula",
        np.max(np.abs(chi @ v - np.array([3.0 + 5.0, 5.0, 0.0]))),
        tol,
    )
    comm = blockrep.CHI1 @ blockrep.CHI2 - blockrep.CHI2 @ blockrep.CHI1
    rec.check("bracket-realized", np.max(np.abs(comm - blockrep.CHI3)), tol)


def _lc_group_basic(cfg, ctx, rec):
    tol = cfg.tolerance("algebraic")
    e1, e2 = GroupElement(1, 0, 0), GroupElement(0, 1, 0)
    for name, value, expect in (
        ("inverse-frozen", liecore.group_inverse(GroupElement(1.0, 1.0, 1.0)), (-1.0, -1.0, 0.0)),
        ("product-frozen", liecore.group_multiply(e1, e2), (1, 1, 1)),
        ("noncommutativity-frozen", liecore.group_multiply(e2, e1), (1, 1, 0)),
    ):
        rec.check(name, liecore.chart_distance(value, GroupElement(*expect)), tol)

    g = sampling.group_element(rec.rng, CHART_BOX, (200,))
    g_inv = liecore.group_inverse(g)
    residuals = [
        liecore.chart_distance(liecore.group_multiply(g, g_inv), liecore.IDENTITY),
        liecore.chart_distance(liecore.group_multiply(g_inv, g), liecore.IDENTITY),
        liecore.chart_distance(liecore.group_multiply(g, liecore.IDENTITY), g),
    ]
    rec.worst("inverse-random", np.maximum.reduce(residuals), tol)


def _lc_associativity(cfg, ctx, rec):
    triples = sampling.group_element(rec.rng, CHART_BOX, (1000, 3)).unstack()
    rec.worst("triples", liecore.associativity_residual(*triples), cfg.tolerance("algebraic"))


def _lc_second_kind(cfg, ctx, rec):
    tol = cfg.tolerance("algebraic")
    for name, g, expect in (
        ("frozen-identity", liecore.IDENTITY, (0.0, 0.0, 0.0)),
        ("frozen-111", GroupElement(1, 1, 1), (1.0, 1.0, 0.0)),
        ("frozen-230", GroupElement(2, 3, 0), (2.0, 3.0, -6.0)),
    ):
        ts = liecore.second_kind_coords(g)
        rec.check(name, liecore.chart_distance(GroupElement(*ts), GroupElement(*expect)), tol)

    # each draw is an element g and then second-kind coordinates t, from the same cube
    g, t = sampling.group_element(rec.rng, CHART_BOX, (1000, 2)).unstack()
    back = liecore.second_kind_compose(*liecore.second_kind_coords(g))
    again = liecore.second_kind_coords(liecore.second_kind_compose(t.xi1, t.xi2, t.xi3))
    gaps = liecore.chart_distance(back, g), liecore.chart_distance(GroupElement(*again), t)
    rec.worst("roundtrips", np.maximum(*gaps), tol)


def _lc_chart_exp(cfg, ctx, rec):
    # the draws interleave a normal and a uniform distribution, so they stay a loop
    draws = [(rec.rng.standard_normal(3), *rec.rng.uniform(-1.5, 1.5, 2)) for _ in range(500)]
    x, s, t = (np.array(column) for column in zip(*draws))
    lhs = liecore.group_multiply(liecore.chart_exp(x, s), liecore.chart_exp(x, t))
    law = liecore.chart_distance(lhs, liecore.chart_exp(x, s + t))
    rec.worst("one-parameter-law", law, cfg.tolerance("algebraic"))


def _lc_auto_homomorphism(cfg, ctx, rec):
    for sign in liecore.X3_SIGN_CHOICES:
        g, h = sampling.group_element(rec.rng, CHART_BOX, (1000, 2)).unstack()
        rec.worst(
            f"pairs-{sign}",
            liecore.automorphism_homomorphism_residual(g, h, sign),
            cfg.tolerance("algebraic"),
        )
    rec.check(
        "identity-element",
        np.max(np.abs(liecore.automorphism_matrix(liecore.IDENTITY) - np.eye(3))),
        cfg.tolerance("algebraic"),
    )
    g = GroupElement(0.3, -0.7, 1.1)
    f = liecore.automorphism_matrix(g, "consistent")
    finv = liecore.automorphism_matrix(liecore.group_inverse(g), "consistent")
    rec.check("inverse-pair", np.max(np.abs(f @ finv - np.eye(3))), cfg.tolerance("algebraic"))


def _lc_auto_identity(cfg, ctx, rec):
    sc = liecore.heisenberg_constants()
    tol = cfg.tolerance("algebraic")
    rec.check("identity-element", liecore.automorphism_identity_residual(sc, liecore.IDENTITY), tol)
    rec.check(
        "frozen-123",
        liecore.automorphism_identity_residual(sc, GroupElement(1, 2, 3)),
        tol,
    )
    for sign in liecore.X3_SIGN_CHOICES:
        g = sampling.group_element(rec.rng, CHART_BOX, (500,))
        rec.worst(f"random-{sign}", liecore.automorphism_identity_residual(sc, g, sign), tol)


def _lc_auto_expansion(cfg, ctx, rec):
    sc = liecore.heisenberg_constants()
    worst = 0.0
    for k in range(3):
        for t in (0.5, 0.25, 0.125):
            worst = max(worst, liecore.auto_expansion_residual(sc, k, t))
    rec.check(
        "first-order",
        worst,
        cfg.tolerance("algebraic"),
        note="residual is identically zero for this chart, trivially O(t^2)",
    )


def _lc_ad_series(cfg, ctx, rec):
    tol = cfg.tolerance("algebraic")
    series = liecore.ad_series(blockrep.CHI1, blockrep.CHI2, 0.7)
    rec.check(
        "nilpotent-two-terms",
        np.max(np.abs(series - (blockrep.CHI2 + 0.7 * blockrep.CHI3))),
        tol,
    )
    rec.check(
        "center-fixed",
        np.max(np.abs(liecore.ad_series(blockrep.CHI1, blockrep.CHI3, 1.3) - blockrep.CHI3)),
        tol,
    )


def _lc_ad_series_trivial(cfg, ctx, rec):
    tol = cfg.tolerance("algebraic")
    rng = rec.rng
    X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    Y = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rec.check("t-zero", np.max(np.abs(liecore.ad_series(X, Y, 0.0) - Y)), tol)
    rec.check(
        "commuting",
        np.max(np.abs(liecore.ad_series(X, X @ X, 0.9) - X @ X)),
        tol,
    )


CASES = (
    ("lc-01-structure-constants", ("star", "e1.3"), _lc_structure),
    ("lc-02-bracket-relations", ("e1.2", "e1.3"), _lc_bracket),
    ("lc-03-matrix-model", ("e1.3a", "e1.4", "e1.4b"), _lc_matrix_model),
    ("lc-04-group-identity-inverse", ("e1.1", "e1.2", "e1.5"), _lc_group_basic),
    ("lc-05-group-associativity", ("e1.1",), _lc_associativity),
    ("lc-06-second-kind-roundtrip", ("3.2.1", "3.2.2", "3.2.3"), _lc_second_kind),
    ("lc-07-chart-one-parameter", ("e1.5", "3.2.3"), _lc_chart_exp),
    ("lc-08-automorphism-homomorphism", ("2.15",), _lc_auto_homomorphism),
    ("lc-09-automorphism-constants-identity", ("star-star",), _lc_auto_identity),
    ("lc-10-automorphism-expansion", ("star",), _lc_auto_expansion),
    ("lc-11-ad-series-nilpotent", ("3.2.7",), _lc_ad_series),
    ("lc-12-ad-series-trivial", ("3.2.7",), _lc_ad_series_trivial),
)
