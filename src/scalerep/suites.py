"""Named verification suites producing deterministic machine-readable reports.

Each suite bundles the checks of one module; each case is keyed by a stable
identifier, draws its randomness from a counter-based stream keyed by
(seed, suite, case), and emits one record per measured quantity.  The
``anchor`` column of a record names the identities the case exercises, and
the coverage manifest guarantees every in-scope identity is exercised at
least once.

A few cases are *recorded* rather than asserted (their record carries an
infinite bound): measurements whose printed form is sampling-sensitive or
whose validity range is not pinned down.  They never gate the exit status.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from functools import cached_property, partial
from math import erfc, factorial, inf, nan, sqrt
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import blockrep, hilleyosida, integrator, liecore
from .errors import AccuracyError, ConvergenceError, SingularOperatorError, UsageError
from .heisenberg import (
    HermiteHeisenberg,
    UnitaryGroup,
    differentiability_probe,
    conjugation_residual,
    hermite_generators,
    measured_conjugation_offset,
)
from .hermite import gauss_hermite
from .liecore import GroupElement, chart_distance, group_inverse, group_multiply
from .report import CheckRecord
from .sampling import CHART_BOX, case_rng, group_element, interior_vector
from .scale import (
    GeneratorFamily,
    bound_check,
    build_scale_chain,
    monotonicity_check,
    recombined_family,
    scale_norm,
    tridiagonal_adjoint,
    tridiagonal_product,
)

DEFAULT_N = 64
DEFAULT_M = 50
TYPE_T_GRID = (1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7)
BLOCK_LADDER = (10, 50, 100)
HERMITE_LADDER = (32, 64, 128)
# Fewest modes heisenberg-hermite runs to the end at.  Below it hh-03 loses
# mass past the truncation (N <= 28) or hh-07/hh-08 draw vectors past the
# action's N/2 support limit (N = 53 dies at 37 of seeds 0-39); 54 completes
# at every seed 0-39, at --nmax 2, 3 and 4 and with --x3-sign paper.
HERMITE_SUITE_MIN_TRUNC = 54
# Fewest modes the integrator suite runs to the end at.  Below it a chart
# check raises AccuracyError: at N = 8 for all of seeds 0-39, at N = 9 for
# 36, N = 10 for 13, N = 12 for seed 33.  N = 11 and 13-16 complete at every
# seed 0-39, at --nmax 1-4 and with either --x3-sign; N = 13-16, 20, 24 and
# 32 also complete at seeds 40-199.
INTEGRATOR_MIN_TRUNC = 13
# The numerical errors that end a case in a failed row rather than the run,
# each with the attribute holding the number it carries.
NUMERICAL_ERRORS = {
    AccuracyError: "residual",
    ConvergenceError: "last_term",
    SingularOperatorError: "condition_estimate",
}

TOL_DEFAULTS = {
    "algebraic": 1e-12,
    "unitarity": 1e-8,
    "route_agreement": 1e-6,
    "growth_slack": 1e-6,
    "phase_equality": 1e-9,
    "continuity_floor": 1e-6,
    "ratio_lo": 1.7,
    "ratio_hi": 2.3,
    "resolvent_agreement": 1e-6,
    "oracle_value": 1e-4,
    "norm_oracle": 1e-9,
    "yosida_target": 1e-3,
    "equicontinuity_slack": 1e-8,
    "omega": 1e-6,
    "pairing": 1e-10,
    "homomorphism": 1e-6,
    "homomorphism_l0": 1e-7,
    "conjugation": 1e-7,
    "basis_invariance": 1e-10,
    "block_exact": 1e-12,
    "block_identity": 1e-12,
    "int_identity": 1e-6,
    "dual_generator": 1e-6,
    "ladder_variation": 1e-2,
}

SUITE_NAMES = (
    "lie-core",
    "scale-core",
    "heisenberg-hermite",
    "hille-yosida",
    "nilpotent-l2",
    "integrator",
)


@dataclass(frozen=True)
class SuiteConfig:
    """Run configuration; flags and the JSON config file share these keys."""

    suite: str = "all"
    trunc: int | None = None
    n_max: int = 3
    seed: int = 42
    x3_sign: str = "consistent"
    lambda_sequence: tuple[float, ...] = hilleyosida.DEFAULT_LAMBDAS
    tol: dict[str, float] = field(default_factory=dict)
    out: str | None = None
    fmt: str = "json"
    timings: bool = False

    def tolerance(self, key: str) -> float:
        if key not in TOL_DEFAULTS:
            raise UsageError(f"unknown tolerance key {key!r}")
        return float(self.tol.get(key, TOL_DEFAULTS[key]))

    def validate(self):
        hints = get_type_hints(SuiteConfig)
        for f in fields(self):
            value = getattr(self, f.name)
            if not _has_type(value, hints[f.name]):
                raise UsageError(f"config value {f.name}={value!r} is not of type {f.type}")
        if self.suite not in SUITE_NAMES + ("all",):
            raise UsageError(
                f"unknown suite {self.suite!r}; expected one of {SUITE_NAMES + ('all',)}"
            )
        if self.x3_sign not in liecore.X3_SIGN_CHOICES:
            raise UsageError(f"x3_sign must be one of {liecore.X3_SIGN_CHOICES}")
        if self.n_max < 1:
            raise UsageError("n_max must be >= 1")
        level2 = [s for s in ("scale-core", "hille-yosida") if self.suite in (s, "all")]
        if self.n_max < 2 and level2:
            raise UsageError(
                f"n_max must be >= 2 for {' and '.join(level2)}, which measure at level 2"
            )
        if self.fmt not in ("json", "csv"):
            raise UsageError("format must be json or csv")
        for key, value in self.tol.items():
            if key not in TOL_DEFAULTS:
                raise UsageError(
                    f"unknown tolerance key {key!r}; known: {sorted(TOL_DEFAULTS)}"
                )
            if not 0 <= value < inf:
                raise UsageError(f"tolerance {key}={value!r} must be finite and >= 0")
        floor, where = 8, ""
        for name, least in (
            ("integrator", INTEGRATOR_MIN_TRUNC),
            ("heisenberg-hermite", HERMITE_SUITE_MIN_TRUNC),
        ):
            if self.suite in (name, "all"):
                floor, where = least, f" for {name}"
        if self.trunc is not None and self.trunc < floor:
            raise UsageError(f"truncation must be at least {floor}{where}")
        if self.suite not in ("lie-core", "nilpotent-l2"):  # the others build the Hermite chain
            N = DEFAULT_N if self.trunc is None else self.trunc
            deepest = hermite_generators(N).scale_family.max_safe_depth()
            if self.n_max > deepest:
                raise UsageError(f"n_max must be at most {deepest}: deeper exhausts the guard band")
        hilleyosida.YosidaSeriesSpec(lambda_sequence=self.lambda_sequence)
        if len(self.lambda_sequence) < 2 and self.suite in ("hille-yosida", "all"):
            raise UsageError("hille-yosida compares lambda values: it needs at least two")


def _has_type(value, kind) -> bool:
    """Whether a config value has a ``SuiteConfig`` field type.

    A bool is no number, though Python counts it as an int; an int is a
    float; a tuple field takes a list, as JSON writes one.
    """
    origin, args = get_origin(kind), get_args(kind)
    if origin is UnionType:
        return any(_has_type(value, a) for a in args)
    if origin is tuple:
        return isinstance(value, (tuple, list)) and all(_has_type(v, args[0]) for v in value)
    if origin is dict:
        return isinstance(value, dict) and all(
            _has_type(k, args[0]) and _has_type(v, args[1]) for k, v in value.items()
        )
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


class SuiteContext:
    """Lazily built shared objects (families, chains) for one configuration."""

    def __init__(self, cfg: SuiteConfig):
        self.cfg = cfg

    @property
    def N(self) -> int:
        if self.cfg.trunc is not None and self.cfg.suite != "nilpotent-l2":
            return int(self.cfg.trunc)
        return DEFAULT_N

    @property
    def M(self) -> int:
        if self.cfg.trunc is not None and self.cfg.suite == "nilpotent-l2":
            return int(self.cfg.trunc)
        return DEFAULT_M

    @cached_property
    def hermite(self) -> HermiteHeisenberg:
        return hermite_generators(self.N, self.cfg.x3_sign)

    @cached_property
    def chain(self):
        return build_scale_chain(self.hermite.scale_family, self.cfg.n_max)

    @cached_property
    def blocks(self) -> blockrep.BlockGeneratorFamily:
        return blockrep.block_generators(self.M)

    @cached_property
    def block_chain(self):
        return build_scale_chain(self.blocks, 2)

    @property
    def x2_subgroup(self) -> UnitaryGroup:
        """Exactly unitary modulation subgroup t -> exp(t X2)."""
        return self.hermite.subgroups[1]

    @cached_property
    def h0(self) -> np.ndarray:
        """Coefficients of the ground state h_0 (read-only, shared by the cases)."""
        h0 = np.zeros(self.N, dtype=complex)
        h0[0] = 1.0
        h0.flags.writeable = False
        return h0

    @cached_property
    def h0_resolvents(self) -> dict:
        """lam -> (Laplace result, (lam - X2)^{-1} h0) at lam = 1, 2, 4, for hy-05 and hy-07."""
        laplace = partial(hilleyosida.resolvent_laplace, self.x2_subgroup, phi=self.h0)
        resolvents = self.hermite.x2_resolvents((1.0, 2.0, 4.0))
        return {lam: (laplace(lam), resolvents.apply(lam, self.h0)) for lam in resolvents.lams}

    @cached_property
    def x2_type_estimates(self) -> list:
        """Type of the X2 subgroup at levels 0..min(n_max, 3) on the 20
        "type-samples" vectors, for hy-01 and hy-13."""
        phis = _phis_for_type(self.cfg, self)
        levels = range(0, min(self.cfg.n_max, 3) + 1)
        apply = self.x2_subgroup.apply
        return hilleyosida.estimate_type(apply, self.chain, levels, TYPE_T_GRID, phis)

    def action_modes(self, depth: int) -> int:
        """Support budget for action-based checks at scale depth ``depth``.

        N/4 keeps the translated/modulated image inside the truncation to
        round-off at chart displacements up to the chart box, on top of
        the guard-band margin the scale depth consumes.
        """
        fam = self.chain.family
        return min(self.N // 4, fam.interior_modes(depth))


class CaseRecorder:
    """Collects records for one case and stamps ids, anchors, and timing.

    ``rng`` is the case's random stream, keyed by (seed, suite, case), so a
    case draws the same values whether it runs alone or in a full report.
    The helpers below name the recurring check shapes: the worst of K
    sampled values, a flag, and an error that must be raised.
    """

    def __init__(self, seed: int, suite: str, case_id: str, anchors: tuple):
        self.suite = suite
        self.case_id = case_id
        self.anchors = anchors
        self.rng = case_rng(seed, suite, case_id)
        self.records: list[CheckRecord] = []

    def check(self, name, measured, bound, passed=None, **inputs):
        measured = float(measured)
        bound = float(bound)
        if passed is None:
            passed = measured <= bound
        self.records.append(
            CheckRecord(
                suite=self.suite,
                case=f"{self.case_id}/{name}",
                anchors=self.anchors,
                inputs=inputs,
                measured=measured,
                bound=bound,
                passed=bool(passed),
            )
        )

    def record_only(self, name, measured, **inputs):
        """Informational measurement: recorded, never gating."""
        inputs.setdefault("recorded", "measured, not asserted")
        self.check(name, measured, inf, passed=True, **inputs)

    def worst(self, name, values, bound, **inputs):
        """Check the largest sampled value, floored at 0, against ``bound``.

        ``values`` is drained here, so a generator draws in call order;
        ``samples`` records how many values it produced.  A NaN sample
        makes the measurement NaN, so the row fails.
        """
        values = np.fromiter(values, dtype=float)
        self.check(name, np.max(values, initial=0.0), bound, samples=len(values), **inputs)

    def holds(self, name, ok, **inputs):
        """Flag check: measures 0 when ``ok`` is true and 1 otherwise, bound 0."""
        self.check(name, 0.0 if ok else 1.0, 0.0, **inputs)

    def failed_by(self, exc):
        """Failed row for a numerical error that ended the case: the number it carries."""
        number = next(attr for kind, attr in NUMERICAL_ERRORS.items() if isinstance(exc, kind))
        self.check(
            "numerical-error",
            getattr(exc, number),
            nan,
            passed=False,
            error=type(exc).__name__,
            message=str(exc),
            quantity=number,
        )

    def raises(self, name, error, call, **inputs):
        """Check that ``call()`` raises ``error``; any other exception propagates."""
        try:
            call()
            raised = False
        except error:
            raised = True
        self.holds(name, raised, **inputs)


# ---------------------------------------------------------------------------
# lie-core
# ---------------------------------------------------------------------------


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
        ("inverse-frozen", group_inverse(GroupElement(1.0, 1.0, 1.0)), (-1.0, -1.0, 0.0)),
        ("product-frozen", group_multiply(e1, e2), (1, 1, 1)),
        ("noncommutativity-frozen", group_multiply(e2, e1), (1, 1, 0)),
    ):
        rec.check(name, chart_distance(value, GroupElement(*expect)), tol)

    g = group_element(rec.rng, CHART_BOX, (200,))
    residuals = [
        chart_distance(group_multiply(g, group_inverse(g)), liecore.IDENTITY),
        chart_distance(group_multiply(group_inverse(g), g), liecore.IDENTITY),
        chart_distance(group_multiply(g, liecore.IDENTITY), g),
    ]
    rec.worst("inverse-random", np.maximum.reduce(residuals), tol)


def _lc_associativity(cfg, ctx, rec):
    triples = group_element(rec.rng, CHART_BOX, (1000, 3)).unstack()
    rec.worst("triples", liecore.associativity_residual(*triples), cfg.tolerance("algebraic"))


def _lc_second_kind(cfg, ctx, rec):
    tol = cfg.tolerance("algebraic")
    for name, g, expect in (
        ("frozen-identity", liecore.IDENTITY, (0.0, 0.0, 0.0)),
        ("frozen-111", GroupElement(1, 1, 1), (1.0, 1.0, 0.0)),
        ("frozen-230", GroupElement(2, 3, 0), (2.0, 3.0, -6.0)),
    ):
        ts = liecore.second_kind_coords(g)
        rec.check(name, chart_distance(GroupElement(*ts), GroupElement(*expect)), tol)

    # each draw is an element g and then second-kind coordinates t, from the same cube
    g, t = group_element(rec.rng, CHART_BOX, (1000, 2)).unstack()
    back = liecore.second_kind_compose(*liecore.second_kind_coords(g))
    again = liecore.second_kind_coords(liecore.second_kind_compose(t.xi1, t.xi2, t.xi3))
    gaps = chart_distance(back, g), chart_distance(GroupElement(*again), t)
    rec.worst("roundtrips", np.maximum(*gaps), tol)


def _lc_chart_exp(cfg, ctx, rec):
    # the draws interleave a normal and a uniform distribution, so they stay a loop
    draws = [(rec.rng.standard_normal(3), *rec.rng.uniform(-1.5, 1.5, 2)) for _ in range(500)]
    x, s, t = (np.array(column) for column in zip(*draws))
    lhs = group_multiply(liecore.chart_exp(x, s), liecore.chart_exp(x, t))
    law = chart_distance(lhs, liecore.chart_exp(x, s + t))
    rec.worst("one-parameter-law", law, cfg.tolerance("algebraic"))


def _lc_auto_homomorphism(cfg, ctx, rec):
    for sign in liecore.X3_SIGN_CHOICES:
        g, h = group_element(rec.rng, CHART_BOX, (1000, 2)).unstack()
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
    finv = liecore.automorphism_matrix(group_inverse(g), "consistent")
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
        g = group_element(rec.rng, CHART_BOX, (500,))
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


# ---------------------------------------------------------------------------
# scale-core
# ---------------------------------------------------------------------------


def _sc_zero_family(cfg, ctx, rec):
    N = 12
    fam = GeneratorFamily((np.zeros((3, N)), np.zeros((3, N))))
    chain = build_scale_chain(fam, 3)
    worst = max(G.identity_residual() for G in chain.grams)
    rec.check("grams-identity", worst, cfg.tolerance("algebraic"))


def _sc_h0_oracle(cfg, ctx, rec):
    # independent quadrature oracle: generator words applied to the
    # closed-form ground state (h0' = -x h0, etc.), never the Gram matrices
    xs, ws = gauss_hermite(160)
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
        rec.check(f"level{n}", abs(scale_norm(ctx.chain, ctx.h0, n) ** 2 - oracle), tol, oracle=oracle)
    rec.check("level1-value", abs(norm1_sq - 2.0), tol)
    rec.check("level2-value", abs(norm2_sq - 6.0), tol)


def _sc_monotonicity(cfg, ctx, rec):
    def excess(phi, n):
        # max(||phi||_n - ||phi||_{n+1}, ||X_i phi||_n - ||phi||_{n+1})
        res = monotonicity_check(ctx.chain, phi, n)
        return np.maximum.reduce([res.lhs - res.rhs, *(g - res.rhs for g in res.generator_lhs)])

    modes = ctx.chain.family.interior_modes
    rec.worst(
        "random-vectors",
        np.concatenate([
            excess(interior_vector(rec.rng, ctx.N, modes(n + 1), 100), n)
            for n in range(min(cfg.n_max, 3))
        ]),
        cfg.tolerance("algebraic"),
    )
    rec.check("zero-vector", excess(np.zeros(ctx.N, dtype=complex), 0), cfg.tolerance("algebraic"))
    lhs = scale_norm(ctx.chain, ctx.hermite.apply_generator((0, 1, 0), ctx.h0), 0)
    rhs = scale_norm(ctx.chain, ctx.h0, 1)
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


def _draw_samples(rng, count, box, dim, modes, elements=1, vectors=1):
    """``count`` samples, each ``elements`` group elements and then ``vectors`` interior vectors.

    Returns ``elements`` blocks of ``count`` group elements and then
    ``vectors`` (dim, count) blocks of vectors, so a case evaluates all its
    samples in one block call.
    """
    draws = [
        [group_element(rng, box) for _ in range(elements)]
        + [interior_vector(rng, dim, modes) for _ in range(vectors)]
        for _ in range(count)
    ]
    columns = list(zip(*draws))
    return (
        *map(GroupElement.stack, columns[:elements]),
        *(np.array(c).T for c in columns[elements:]),
    )


def _generic_factor(ctx, g, n):
    """(1 + sum_ij |f_ij|)^n with f the conjugation-law matrix of g: the generic
    growth factor of Prop. 2.1 (2.16), one per element of a block."""
    return (1.0 + np.sum(np.abs(ctx.hermite.automorphism(g)), axis=(-2, -1))) ** n


def _group_bound_ratios(cfg, ctx, rng, per_level):
    """Generic group-bound ratios at random (g, phi), ``per_level`` per depth."""
    for n in range(1, min(cfg.n_max, 3) + 1):
        gs, block = _draw_samples(rng, per_level, CHART_BOX, ctx.N, ctx.action_modes(n))
        act = partial(ctx.hermite.action_factored, gs)
        yield from bound_check(ctx.chain, act, block, n, _generic_factor(ctx, gs, n)).ratio


def _sc_group_bound(cfg, ctx, rec):
    slack = cfg.tolerance("growth_slack")
    rec.worst("random-pairs", _group_bound_ratios(cfg, ctx, rec.rng, 50), 1.0 + slack)
    factor = _generic_factor(ctx, liecore.IDENTITY, 2)
    res = bound_check(ctx.chain, lambda v: v, ctx.h0, 2, factor)
    rec.check("identity-element", res.ratio, 1.0 + slack)


def _sc_basis_invariance(cfg, ctx, rec):
    def entry_gap(banded, diagonal):
        # largest entry of G_alt - diag(w), relative to the Gram entry scale
        diff = banded.bands.copy()
        diff[:, banded.width] -= diagonal.weights
        return float(np.max(np.abs(diff))) / max(1.0, diagonal.max_entry())

    def gap():
        theta = rec.rng.uniform(0, 2 * np.pi)
        O = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        if rec.rng.uniform() < 0.5:
            O[1] = -O[1]   # include reflections
        alt = build_scale_chain(recombined_family(ctx.chain.family, O), cfg.n_max)
        return max(entry_gap(a, b) for a, b in zip(alt.grams, ctx.chain.grams))

    rec.worst(
        "orthogonal-recombination",
        (gap() for _ in range(5)),
        cfg.tolerance("basis_invariance"),
        note="relative to the Gram entry scale, which grows like (2N)^n",
    )


def _sc_norm_properties(cfg, ctx, rec):
    rng = rec.rng

    def defects():
        n = int(rng.integers(0, min(cfg.n_max, 3) + 1))
        phi = interior_vector(rng, ctx.N, ctx.N // 2)
        psi = interior_vector(rng, ctx.N, ctx.N // 2)
        c = complex(rng.standard_normal(), rng.standard_normal())
        norm = lambda v: scale_norm(ctx.chain, v, n)
        return abs(norm(c * phi) - abs(c) * norm(phi)), norm(phi + psi) - norm(phi) - norm(psi)

    rows = [defects() for _ in range(100)]
    bound = cfg.tolerance("algebraic") * ctx.chain.gram(min(cfg.n_max, 3)).max_entry()
    rec.worst("homogeneity", (h for h, _ in rows), bound)
    rec.worst("triangle", (t for _, t in rows), bound)


def _sc_chain_validity(cfg, ctx, rec):
    tol = cfg.tolerance("algebraic")
    rec.check("g0-identity", ctx.chain.gram(0).identity_residual(), tol)
    rec.check("hermiticity", ctx.chain.hermiticity_residual(), tol)
    rec.raises(
        "guard-band-error-fires",
        UsageError,
        lambda: build_scale_chain(ctx.chain.family, ctx.chain.family.max_safe_depth() + 1),
        note="over-deep chain request must raise a usage error",
    )


# ---------------------------------------------------------------------------
# heisenberg-hermite
# ---------------------------------------------------------------------------


def _hh_generator_entries(cfg, ctx, rec):
    fam = ctx.hermite
    tol = cfg.tolerance("algebraic")
    # quadrature oracle for <h1, x h0>
    xs, ws = gauss_hermite(96)
    h0 = np.pi ** (-0.25) * np.exp(-0.5 * xs * xs)
    h1 = sqrt(2.0) * xs * h0
    overlap = float(np.sum(ws * h1 * xs * h0))
    rec.check("x-matrix-entry", abs(overlap - 1.0 / sqrt(2.0)), cfg.tolerance("norm_oracle"))
    # the generators' (3, N) rows: X[1, 0] is x2[0, 1]; with real entries, X^* is X^T
    rec.check("x2-entry", abs(fam.x2[0, 1] - (-1j) * overlap), cfg.tolerance("norm_oracle"))
    rec.check("x1-real-antisymmetric", np.max(np.abs(fam.x1 + tridiagonal_adjoint(fam.x1))), tol)
    rec.check("x1-imag-part", np.max(np.abs(fam.x1.imag)), tol)
    sym = (1j * fam.x2)
    rec.check("x2-i-times-symmetric", np.max(np.abs(sym - tridiagonal_adjoint(sym))), tol)
    rec.check("x2-real-part", np.max(np.abs(fam.x2.real)), tol)


def _hh_commutator(cfg, ctx, rec):
    fam = ctx.hermite
    # the five diagonals of X1 X2 - X2 X1 - X3: defect[d + 2, i] is entry (i, i + d)
    defect = tridiagonal_product(fam.x1, fam.x2) - tridiagonal_product(fam.x2, fam.x1)
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
    gs, block = _draw_samples(rec.rng, 50, CHART_BOX, ctx.N, ctx.action_modes(0))
    for name, act in (
        ("analytic-route", ctx.hermite.action_analytic),
        ("factored-route", ctx.hermite.action_factored),
    ):
        rec.worst(name, np.abs(np.linalg.norm(act(gs, block), axis=0) - 1.0), tol)


def _hh_identity_phase(cfg, ctx, rec):
    tol = cfg.tolerance("algebraic")
    phi = interior_vector(rec.rng, ctx.N, ctx.N // 2)
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

    gs, block = _draw_samples(rng, 40, 1.0, ctx.N, ctx.N // 4)
    gaps = ctx.hermite.action_analytic(gs, block) - ctx.hermite.action_factored(gs, block)
    rec.worst("l2-distance", np.linalg.norm(gaps, axis=0), tol)
    rec.worst("level1-distance", scale_norm(ctx.chain, gaps, 1), tol)
    g = GroupElement(0, 0.9, 0)
    phi = interior_vector(rng, ctx.N, ctx.N // 4)
    a = ctx.hermite.action_analytic(g, phi)
    b = ctx.x2_subgroup.apply(0.9, phi)
    rec.check("pure-modulation", float(np.linalg.norm(a - b)), tol)


def _hh_action_homomorphism(cfg, ctx, rec):
    def residuals(act, box, modes, count):
        g, h, block = _draw_samples(rec.rng, count, box, ctx.N, modes, elements=2)
        return np.linalg.norm(act(g, act(h, block)) - act(group_multiply(g, h), block), axis=0)

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
    phi = interior_vector(rng, ctx.N, modes)
    rec.check(
        "identity-element",
        conjugation_residual(ctx.hermite, ctx.chain, liecore.IDENTITY, 1, phi, n),
        cfg.tolerance("algebraic"),
    )
    named = conjugation_residual(
        ctx.hermite, ctx.chain, GroupElement(0, 0.8, 0), 1, phi, n
    )
    rec.check("modulation-on-x1", named, tol, g=(0.0, 0.8, 0.0))

    gs, idx, phis = [], [], []
    for _ in range(30):
        gs.append(group_element(rng, 1.0))
        idx.append(int(rng.integers(1, 4)))
        phis.append(interior_vector(rng, ctx.N, modes))
    gs = GroupElement.stack(gs)
    residuals = conjugation_residual(ctx.hermite, ctx.chain, gs, idx, np.array(phis).T, n)
    rec.worst("random", residuals, tol, convention=cfg.x3_sign)


def _hh_conjugation_sign(cfg, ctx, rec):
    phi = interior_vector(rec.rng, ctx.N, ctx.N // 4)
    xi1 = 0.6
    offset = measured_conjugation_offset(
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
    offset1 = measured_conjugation_offset(
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
    return bound_check(ctx.chain, partial(ctx.hermite.action_analytic, g), phi, n, factor)


def _hh_growth_sharp_random(cfg, ctx, rec):
    bound = 1.0 + cfg.tolerance("growth_slack")
    for n in range(1, min(cfg.n_max, 3) + 1):
        gs, block = _draw_samples(rec.rng, 100, CHART_BOX, ctx.N, ctx.action_modes(n))
        check = _sharp_check(ctx, gs, block, n)
        rec.worst(f"level{n}", check.ratio, bound)


def _hh_growth_sharp_instances(cfg, ctx, rec):
    res = _sharp_check(ctx, GroupElement(1, 1, 0), ctx.h0, 1)
    rec.check(
        "bound-factor-sqrt3",
        abs(res.bound - sqrt(3.0) * scale_norm(ctx.chain, ctx.h0, 1)),
        cfg.tolerance("norm_oracle"),
    )
    rec.check("h0-instance", res.ratio, 1.0 + cfg.tolerance("growth_slack"))
    worst = 0.0
    for n in range(1, min(cfg.n_max, 3) + 1):
        phi = interior_vector(rec.rng, ctx.N, ctx.action_modes(n))
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
    rec.worst("random", _group_bound_ratios(cfg, ctx, rec.rng, 30), bound)


def _hh_continuity(cfg, ctx, rec):
    rng = rec.rng
    floor = cfg.tolerance("continuity_floor")
    t_values = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)
    for axis, x in (("x1", (1, 0, 0)), ("x2", (0, 1, 0)), ("x3", (0, 0, 1))):
        for n in range(0, min(cfg.n_max, 2) + 1):
            phi = interior_vector(rng, ctx.N, 8)
            steps = liecore.chart_exp(x, np.array(t_values))
            images = ctx.hermite.action_analytic(steps, np.repeat(phi[:, None], len(t_values), 1))
            values = scale_norm(ctx.chain, images - phi[:, None], n).tolist()
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
            phi = interior_vector(rng, ctx.N, min(12, ctx.action_modes(n + 1)))
            probe = differentiability_probe(ctx.hermite, ctx.chain, x, phi, n)
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
        scale_norm(
            ctx.chain,
            (ctx.hermite.action_analytic(liecore.chart_exp((1, 0, 0), t), zero) - zero) / t
            - ctx.hermite.apply_generator((1, 0, 0), zero),
            1,
        )
        for t in (1e-2, 1e-3)
    ]
    rec.check("zero-vector", max(probe_residuals), cfg.tolerance("algebraic"))


# ---------------------------------------------------------------------------
# hille-yosida
# ---------------------------------------------------------------------------


def _phis_for_type(cfg, ctx, count=20):
    rng = case_rng(cfg.seed, "hille-yosida", "type-samples")
    return interior_vector(rng, ctx.N, ctx.N // 2, count)


def _hy_type_x2(cfg, ctx, rec):
    tol = cfg.tolerance("omega")
    for est in ctx.x2_type_estimates:
        rec.check(f"level{est.n}", abs(est.omega_n), tol, sample_size=est.sample_size)


def _hy_type_trivial(cfg, ctx, rec):
    phis = _phis_for_type(cfg, ctx, count=5)
    ident = lambda t, v: v
    est = hilleyosida.estimate_type(ident, ctx.chain, 1, (1.0, 10.0), phis)
    rec.check("identity-group", abs(est.omega_n), cfg.tolerance("algebraic"))
    est = hilleyosida.estimate_type(ctx.hermite.evaluators[2], ctx.chain, 2, TYPE_T_GRID, phis)
    rec.check("phase-subgroup", abs(est.omega_n), cfg.tolerance("omega"))


def _hy_type_blocks(cfg, ctx, rec):
    omegas = []
    for M in (10, 50):
        fam = blockrep.block_generators(M)
        chain = build_scale_chain(fam, 2)
        phis = interior_vector(rec.rng, fam.dim, fam.dim, 10)
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
    h0 = ctx.h0
    tol = cfg.tolerance("resolvent_agreement")
    for lam, (result, Rm) in ctx.h0_resolvents.items():
        for n in (0, 1):
            rec.check(
                f"lam{lam:g}-level{n}",
                scale_norm(ctx.chain, result.vector - Rm, n),
                tol,
                t_max=result.t_max,
            )
    # negative real-part branch
    lam = -2.0
    result = hilleyosida.resolvent_laplace(ctx.x2_subgroup, lam, h0)
    Rm = ctx.hermite.x2_resolvents((lam,)).apply(lam, h0)
    rec.check("negative-branch", float(np.linalg.norm(result.vector - Rm)), tol)


def _hy_closed_form_value(cfg, ctx, rec):
    Rc = hilleyosida.resolvent_closed_form_x2(1.0, ctx.h0, ctx.N)
    value = float(np.vdot(Rc, Rc).real)
    oracle = float(np.sqrt(np.pi) * np.e * erfc(1.0))
    rec.check("squared-norm", abs(value - oracle), cfg.tolerance("oracle_value"), oracle=oracle)


def _hy_triple_agreement(cfg, ctx, rec):
    h0 = ctx.h0
    tol = cfg.tolerance("resolvent_agreement")
    for lam, (result, matrix) in ctx.h0_resolvents.items():
        routes = {"laplace": result.vector, "matrix": matrix}
        routes["closed"] = hilleyosida.resolvent_closed_form_x2(lam, h0, ctx.N)
        for n in (0, 1):
            for a, b in (("laplace", "matrix"), ("matrix", "closed"), ("laplace", "closed")):
                gap = scale_norm(ctx.chain, routes[a] - routes[b], n)
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
    phi = interior_vector(rec.rng, ctx.N, ctx.N // 2)
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
        phis = interior_vector(rec.rng, ctx.N, ctx.action_modes(max(n, 1)), 100)
        report = hilleyosida.equicontinuity_bound_check(apply_resolvent, ctx.chain, n, 5, lam, phis)
        rec.check(
            f"level{n}",
            np.max([r[1] for r in report.rows]),
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
    return bound_check(ctx.chain, partial(resolvents.apply, lam), phi, n, factor)


def _hy_e118(cfg, ctx, rec):
    resolvents = ctx.hermite.x2_resolvents((1.0, 2.0, 4.0, 3.0))
    for lam in (1.0, 2.0, 4.0):
        for n in (0, 1, 2):
            phi = interior_vector(rec.rng, ctx.N, ctx.action_modes(max(n, 1)))
            res = _e118_check(ctx, resolvents, lam, phi, n)
            rec.record_only(
                f"lam{lam:g}-level{n}",
                res.lhs / res.bound if res.bound > 0 else inf,
                within_bound=bool(res.lhs <= res.bound * (1.0 + 1e-6)),
            )
    res = _e118_check(ctx, resolvents, 3.0, ctx.h0, 0)
    rec.check(
        "level0-equals-inverse-lambda",
        abs(res.bound - scale_norm(ctx.chain, ctx.h0, 0) / 3.0),
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


# ---------------------------------------------------------------------------
# nilpotent-l2
# ---------------------------------------------------------------------------


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
    lo, hi = blockrep.norm_ratio_bounds()
    report = blockrep.norm_equivalence_report(
        chain, (interior_vector(rec.rng, fam.dim, fam.dim, 25) for _ in range(40))
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
    ratio = scale_norm(chain, phi, 2) / scale_norm(chain, phi, 1)
    rec.check("supremum-approach", hi - ratio, 1e-3, ratio=ratio)
    kernel = np.zeros(fam.dim, dtype=complex)
    kernel[0] = 1.0   # first slot of block 1 is annihilated by all three
    vals = [scale_norm(chain, kernel, n) for n in (0, 1, 2)]
    rec.check("kernel-vector-flat", max(vals) - min(vals), cfg.tolerance("block_exact"))


def _nl_rep_homomorphism(cfg, ctx, rec):
    fam = ctx.blocks
    tol = cfg.tolerance("block_exact")
    named = blockrep.rep_homomorphism_residual(
        fam, GroupElement(1, 0, 0), GroupElement(0, 1, 0)
    )
    rec.check("frozen-pair", named, tol)
    g, h = group_element(rec.rng, CHART_BOX, (1000, 2)).unstack()
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
        phi = interior_vector(rec.rng, fam.dim, fam.dim, 25)
        return scale_norm(chain, blockrep.rep_apply(g, fam, phi), 1) / scale_norm(chain, phi, 1)

    rec.worst(
        "samples-below-operator-norm",
        np.concatenate([ratios() for _ in range(8)]),
        bound * (1 + 1e-12),
        operator_norm=bound,
    )


# ---------------------------------------------------------------------------
# integrator
# ---------------------------------------------------------------------------


def _in_evaluator_invariants(cfg, ctx, rec):
    phis = interior_vector(rec.rng, ctx.N, ctx.N // 4, 5)
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
    phis_b = interior_vector(rec.rng, fam.dim, fam.dim, 5)
    checks_b = integrator.evaluator_invariants(fam, phis_b)
    rec.check("block-group-law", max(c.group_law_residual for c in checks_b), 1e-9)
    rec.check("block-derivative", max(c.derivative_residual for c in checks_b), 1e-5)


def _in_chart_vs_analytic(cfg, ctx, rec):
    fam = ctx.hermite
    gs, block = _draw_samples(rec.rng, 20, 1.0, ctx.N, ctx.N // 4)
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
        g = group_element(rec.rng, CHART_BOX)
        U = integrator.integrate_chart(ctx.blocks, g, eye)
        T = blockrep.rep_operator(g, ctx.blocks)
        return float(np.max(np.abs(U - T))) / max(1.0, float(np.max(np.abs(T))))

    rec.worst("exact-match", (gap() for _ in range(20)), cfg.tolerance("block_exact"))


def _in_homomorphism(cfg, ctx, rec):
    rng = rec.rng

    def residuals(fam, chain, dim, modes):
        g, h, block = _draw_samples(rng, 15, 0.9, dim, modes, elements=2)
        return integrator.homomorphism_residual(fam, g, h, block, chain, 1)

    fam = ctx.hermite
    hermite = (fam, ctx.chain, ctx.N, ctx.action_modes(2))
    tol = cfg.tolerance("homomorphism")
    rec.worst("hermite-level1", residuals(*hermite), tol)
    phi = interior_vector(rng, ctx.N, ctx.action_modes(2))
    rec.check(
        "h-identity",
        integrator.homomorphism_residual(
            fam, group_element(rng, 0.9), liecore.IDENTITY, phi, ctx.chain, 1
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
    g, h, block = _draw_samples(rec.rng, 10, 0.8, ctx.N, ctx.action_modes(2), elements=2)
    # (g, h) and (h^{-1}, g^{-1}) side by side, so one block call measures both
    joined = lambda a, b: GroupElement(*np.hstack([a.as_array().T, b.as_array().T]))
    r = integrator.homomorphism_residual(
        ctx.hermite,
        joined(g, group_inverse(h)),
        joined(h, group_inverse(g)),
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
    phi = interior_vector(rng, ctx.N, ctx.action_modes(n + 2))
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
    phi_b = interior_vector(rng, ctx.blocks.dim, ctx.blocks.dim)
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
    phi = interior_vector(rng, ctx.N, ctx.action_modes(2))
    for (i, j) in ((1, 2), (2, 1), (1, 3)):
        Ei, Ej = fam.evaluators[i - 1], fam.evaluators[j - 1]
        target = Ei(t, fam.apply_generator(np.eye(3)[i - 1] + np.eye(3)[j - 1], Ej(t, phi)))
        rows = []
        for h in (1e-2, 5e-3):
            fd = (Ei(t + h, Ej(t + h, phi)) - Ei(t - h, Ej(t - h, phi))) / (2 * h)
            rows.append(scale_norm(ctx.chain, fd - target, 1))
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
    phi = interior_vector(rng, ctx.N, ctx.action_modes(2))
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
        scale_norm(ctx.chain, X(U(phi)) - U(X(phi)), 1),
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
    phi = interior_vector(rng, ctx.N, ctx.action_modes(2))

    def residual():
        x = rng.standard_normal(3) * 0.4
        t = float(rng.uniform(0.2, 0.9))
        g = group_element(rng, 0.4)
        return integrator.interpolation_constancy_residual(ctx.hermite, x, t, g, phi, ctx.chain, 1)

    rec.worst("path-constant", (residual() for _ in range(5)), cfg.tolerance("homomorphism"))


def _in_series_vs_automorphism(cfg, ctx, rec):
    phi = interior_vector(rec.rng, ctx.N, ctx.action_modes(2))
    worst = 0.0
    for i in (1, 2, 3):
        worst = max(
            worst,
            integrator.conjugation_series_vs_automorphism(ctx.hermite, i, 0.6, phi, ctx.chain, 1),
        )
    rec.check("coefficients-match", worst, 1e-8, convention=cfg.x3_sign)


def _in_dual_pairing(cfg, ctx, rec):
    gs, phis, Fs = _draw_samples(rec.rng, 100, CHART_BOX, ctx.N, ctx.N, vectors=2)
    residuals = integrator.pairing_residual(ctx.hermite, gs, phis, Fs)
    # the pairing is the ambient inner product; level 1 names the test-side scale
    rec.worst("pairing-identity", residuals, cfg.tolerance("pairing"), pairing_level=1)


def _in_dual_generator(cfg, ctx, rec):
    worst = 0.0
    for i in (1, 2, 3):
        F = interior_vector(rec.rng, ctx.N, ctx.N // 2)
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
    families = [(N, hermite_generators(N, cfg.x3_sign)) for N in HERMITE_LADDER]
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


@dataclass(frozen=True)
class Case:
    case_id: str
    anchors: tuple
    fn: object


SUITES = {
    "lie-core": (
        Case("lc-01-structure-constants", ("star", "e1.3"), _lc_structure),
        Case("lc-02-bracket-relations", ("e1.2", "e1.3"), _lc_bracket),
        Case("lc-03-matrix-model", ("e1.3a", "e1.4", "e1.4b"), _lc_matrix_model),
        Case("lc-04-group-identity-inverse", ("e1.1", "e1.2", "e1.5"), _lc_group_basic),
        Case("lc-05-group-associativity", ("e1.1",), _lc_associativity),
        Case("lc-06-second-kind-roundtrip", ("3.2.1", "3.2.2", "3.2.3"), _lc_second_kind),
        Case("lc-07-chart-one-parameter", ("e1.5", "3.2.3"), _lc_chart_exp),
        Case("lc-08-automorphism-homomorphism", ("2.15",), _lc_auto_homomorphism),
        Case("lc-09-automorphism-constants-identity", ("star-star",), _lc_auto_identity),
        Case("lc-10-automorphism-expansion", ("star",), _lc_auto_expansion),
        Case("lc-11-ad-series-nilpotent", ("3.2.7",), _lc_ad_series),
        Case("lc-12-ad-series-trivial", ("3.2.7",), _lc_ad_series_trivial),
    ),
    "scale-core": (
        Case("sc-01-zero-family", ("2.4",), _sc_zero_family),
        Case("sc-02-h0-norm-oracle", ("2.4", "2.5", "e1.8"), _sc_h0_oracle),
        Case("sc-03-monotonicity", ("2.6",), _sc_monotonicity),
        Case("sc-04-psd-increments", ("2.7", "def-1.1"), _sc_psd_increments),
        Case("sc-05-group-bound-generic", ("2.16", "prop-2.1"), _sc_group_bound),
        Case("sc-06-basis-invariance", ("2.4",), _sc_basis_invariance),
        Case("sc-07-norm-properties", ("2.5",), _sc_norm_properties),
        Case("sc-08-chain-validity", ("2.4", "2.7", "def-1.1"), _sc_chain_validity),
    ),
    "heisenberg-hermite": (
        Case("hh-01-generator-entries", ("e1.7",), _hh_generator_entries),
        Case("hh-02-commutator-central", ("e1.3", "e1.7"), _hh_commutator),
        Case("hh-03-unitarity", ("e1.6",), _hh_unitarity),
        Case("hh-04-identity-and-phase", ("e1.6",), _hh_identity_phase),
        Case("hh-05-route-agreement", ("e1.6", "3.2.24"), _hh_route_agreement),
        Case("hh-06-action-homomorphism", ("e1.1", "e1.6"), _hh_action_homomorphism),
        Case("hh-07-conjugation-law", ("2.15",), _hh_conjugation),
        Case("hh-08-conjugation-sign-record", ("2.15",), _hh_conjugation_sign),
        Case("hh-09-growth-sharp-random", ("e1.9",), _hh_growth_sharp_random),
        Case("hh-10-growth-sharp-instances", ("e1.9",), _hh_growth_sharp_instances),
        Case("hh-11-growth-sharp-displaced-probe", ("e1.9",), _hh_growth_sharp_probe),
        Case("hh-12-growth-generic", ("2.16",), _hh_growth_generic),
        Case("hh-13-continuity", ("e1.10", "2.18", "2.19", "prop-2.1"), _hh_continuity),
        Case("hh-14-differentiability", ("e1.11", "2.20"), _hh_differentiability),
    ),
    "hille-yosida": (
        Case("hy-01-type-x2", ("2.1.6", "e1.12", "e1.13"), _hy_type_x2),
        Case("hy-02-type-trivial", ("2.1.6",), _hy_type_trivial),
        Case("hy-03-type-blocks", ("2.1.6",), _hy_type_blocks),
        Case("hy-04-resolvent-matrix", ("2.1.7",), _hy_resolvent_matrix),
        Case("hy-05-laplace-vs-matrix", ("2.1.7", "e1.14"), _hy_laplace_vs_matrix),
        Case("hy-06-closed-form-value", ("e1.16", "e1.17"), _hy_closed_form_value),
        Case("hy-07-triple-agreement", ("2.1.7", "e1.14", "e1.17"), _hy_triple_agreement),
        Case("hy-08-resolvent-identity", ("2.1.7",), _hy_resolvent_identity),
        Case("hy-09-lambda-limit", ("e1.17",), _hy_lambda_limit),
        Case("hy-10-yosida-reconstruction", ("2.1.8",), _hy_yosida),
        Case("hy-11-equicontinuity-ladder", ("2.1.9", "e1.15", "e1.19"), _hy_equicontinuity),
        Case("hy-12-e118-recursion", ("e1.18",), _hy_e118),
        Case("hy-13-global-conditions", ("2.1.10", "2.1.11"), _hy_global_conditions),
    ),
    "nilpotent-l2": (
        Case("nl-01-block-action", ("e2.1", "e1.4b"), _nl_block_action),
        Case("nl-02-product-relations", ("e2.3", "e1.4"), _nl_product_relations),
        Case("nl-03-norm-collapse", ("e2.2", "e2.4", "e2.5"), _nl_norm_collapse),
        Case("nl-04-rep-homomorphism", ("e2.6", "e1.1"), _nl_rep_homomorphism),
        Case("nl-05-unbounded-growth", ("e2.1",), _nl_unbounded_growth),
        Case("nl-06-resolvent-identity", ("e2.7",), _nl_resolvent),
        Case("nl-07-resolvent-growth", ("e2.7",), _nl_resolvent_growth),
        Case("nl-08-exp-growth", ("e2.6",), _nl_exp_growth),
        Case("nl-09-h1-continuity", ("e2.5", "e2.6"), _nl_h1_continuity),
    ),
    "integrator": (
        Case("in-01-evaluator-invariants", ("thm-3.1",), _in_evaluator_invariants),
        Case("in-02-chart-vs-analytic", ("3.2.24", "thm-3.1"), _in_chart_vs_analytic),
        Case("in-03-chart-vs-blockrep", ("3.2.24", "e2.6"), _in_chart_vs_blockrep),
        Case("in-04-homomorphism", ("3.2.30", "3.2.25"), _in_homomorphism),
        Case("in-05-inverse-consistency", ("3.2.30",), _in_inverse_consistency),
        Case(
            "in-06-int-identity",
            ("3.2.10", "3.2.14", "3.2.22", "prop-3.1", "prop-3.3"),
            _in_int_identity,
        ),
        Case("in-07-product-derivative", ("3.2.13", "prop-3.2"), _in_product_derivative),
        Case(
            "in-08-derivative-identity",
            ("3.2.27", "3.2.28", "3.2.23", "3.2.8", "3.2.8a", "3.2.9"),
            _in_derivative_identity,
        ),
        Case("in-09-interpolation-constancy", ("3.2.29", "3.2.26"), _in_interpolation),
        Case("in-10-series-vs-automorphism", ("3.2.22", "2.15"), _in_series_vs_automorphism),
        Case("in-11-dual-pairing", ("2.3.1", "dual-group"), _in_dual_pairing),
        Case("in-12-dual-generator", ("2.3.2", "2.3.3", "cor-3.1"), _in_dual_generator),
        Case("in-13-dual-involution", ("2.3.1",), _in_dual_involution),
        Case(
            "in-14-extension-hermite",
            ("3.2.31", "3.2.32", "prop-3.4"),
            _in_extension_hermite,
        ),
        Case("in-15-extension-blocks", ("prop-3.4",), _in_extension_blocks),
    ),
}

REQUIRED_ANCHORS = (
    "def-1.1",
    "prop-2.1",
    "2.4",
    "2.5",
    "2.6",
    "2.7",
    "2.15",
    "star",
    "star-star",
    "2.16",
    "2.18",
    "2.19",
    "2.20",
    "2.1.6",
    "2.1.7",
    "2.1.8",
    "2.1.9",
    "2.1.10",
    "2.1.11",
    "e1.1",
    "e1.2",
    "e1.3",
    "e1.3a",
    "e1.4",
    "e1.4b",
    "e1.5",
    "e1.6",
    "e1.7",
    "e1.8",
    "e1.9",
    "e1.10",
    "e1.11",
    "e1.12",
    "e1.13",
    "e1.14",
    "e1.15",
    "e1.16",
    "e1.17",
    "e1.18",
    "e1.19",
    "2.3.1",
    "2.3.2",
    "2.3.3",
    "dual-group",
    "e2.1",
    "e2.2",
    "e2.3",
    "e2.4",
    "e2.5",
    "e2.6",
    "e2.7",
    "3.2.1",
    "3.2.2",
    "3.2.3",
    "3.2.7",
    "3.2.8",
    "3.2.8a",
    "3.2.9",
    "3.2.10",
    "3.2.13",
    "3.2.14",
    "3.2.22",
    "3.2.23",
    "3.2.24",
    "3.2.25",
    "3.2.26",
    "3.2.27",
    "3.2.28",
    "3.2.29",
    "3.2.30",
    "3.2.31",
    "3.2.32",
    "prop-3.1",
    "prop-3.2",
    "prop-3.3",
    "prop-3.4",
    "thm-3.1",
    "cor-3.1",
)


def coverage_map() -> list:
    """(suite, case, anchors) rows in report order."""
    rows = []
    for suite in SUITE_NAMES:
        for case in SUITES[suite]:
            rows.append((suite, case.case_id, case.anchors))
    return rows


def missing_anchors() -> set:
    covered = set()
    for _, _, anchors in coverage_map():
        covered.update(anchors)
    return set(REQUIRED_ANCHORS) - covered


def run_suite(cfg: SuiteConfig):
    """Execute the configured suite(s); returns (records, exit_status)."""
    cfg.validate()
    names = SUITE_NAMES if cfg.suite == "all" else (cfg.suite,)
    records = []
    ctx = SuiteContext(cfg)
    for name in names:
        for case in SUITES[name]:
            rec = CaseRecorder(cfg.seed, name, case.case_id, case.anchors)
            started = time.perf_counter()
            try:
                case.fn(cfg, ctx, rec)
            except tuple(NUMERICAL_ERRORS) as exc:
                rec.failed_by(exc)
            elapsed = time.perf_counter() - started
            # the case's wall time goes on its first record only (the others
            # keep 0), so the column sums to the suite time
            for record in rec.records[:1]:
                record.seconds = elapsed
            records.extend(rec.records)
    from .report import sort_records

    records = sort_records(records)
    status = 0 if all(r.passed for r in records) else 1
    return records, status
