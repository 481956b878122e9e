"""Resolvents of scale generators and group reconstruction from them.

For a one-parameter group T(t) of level-n type omega_n, the resolvent of
its generator is the Laplace transform of the group (branch by the sign of
Re lambda), the group is recovered from the resolvent by the exponential
limit formula, and powers of the resolvent obey the equicontinuity bound

    ||R(lambda)^p||_n <= M_n (|lambda| - beta_n)^{-p}.

Everything here is evaluated at finite truncation: operator norms near the
band edge are contaminated by the cut, so norm estimates restrict their
input to interior modes, and the reported "beta ladder" is the measured
footprint of equicontinuity degrading along the scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.special

from .errors import AccuracyError, ConvergenceError, SingularOperatorError, UsageError
from .hermite import QuadratureSpec, evaluate_series, gauss_hermite, hermite_functions
from .scale import BoundCheck, ScaleChain, scale_norm, scale_operator_norm

RESOLVENT_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class TypeEstimate:
    """Measured growth type at one scale level."""

    n: int
    omega_n: float
    t_grid: tuple
    sample_size: int


def estimate_type(apply, chain: ScaleChain, n: int, t_grid, phis) -> TypeEstimate:
    """Grid infimum of (1/|t|) log sup ||T(t) phi||_n / ||phi||_n.

    ``apply(t, v)`` returns T(t) v; it is called once per t with the sample
    vectors stacked as the columns of one (N, k) block.  The infimum over a
    finite grid is an upper bound for the true type; a grid reaching large
    |t| is needed to resolve type zero to small tolerance.
    """
    t_grid = [float(t) for t in t_grid]
    if not t_grid or any(t == 0 for t in t_grid):
        raise UsageError("t_grid must be nonempty and exclude 0")
    phis = [np.asarray(p, dtype=complex) for p in phis]
    norms = [scale_norm(chain, p, n) for p in phis]
    if not phis or max(norms) <= 1e-30:
        raise UsageError("need at least one sample vector with nonzero norm")
    block = np.array(phis).T
    omega = np.inf
    for t in t_grid:
        # one contiguous row per image, so an apply that returns its input
        # reproduces the sample norms bit for bit (type exactly 0)
        images = np.ascontiguousarray(apply(t, block).T)
        sup = max(
            scale_norm(chain, y, n) / nn for y, nn in zip(images, norms) if nn > 0
        )
        omega = min(omega, np.log(sup) / abs(t))
    return TypeEstimate(n, float(omega), tuple(t_grid), len(phis))


def resolvent_matrix(X: np.ndarray, lam: complex) -> np.ndarray:
    """(lam I - X)^{-1} with a residual guard."""
    X = np.asarray(X, dtype=complex)
    N = X.shape[0]
    A = lam * np.eye(N) - X
    try:
        R = np.linalg.solve(A, np.eye(N, dtype=complex))
    except np.linalg.LinAlgError:
        raise SingularOperatorError(
            f"lam={lam} is numerically an eigenvalue", condition_estimate=np.inf
        )
    residual = float(np.max(np.abs(A @ R - np.eye(N))))
    if residual > RESOLVENT_RESIDUAL_TOL:
        raise SingularOperatorError(
            f"resolvent residual {residual:.2e} at lam={lam}",
            condition_estimate=float(np.linalg.cond(A)),
        )
    return R


@dataclass(frozen=True)
class LaplaceResult:
    vector: np.ndarray
    t_max: float
    panels: int
    tail_bound: float


def resolvent_laplace(
    apply,
    lam: complex,
    phi,
    *,
    tol: float = 1e-8,
    nodes_per_panel: int = 16,  # bench/layertrace.py reads it to count nodes
    t_max: float | None = None,
) -> LaplaceResult:
    """Laplace transform of the group: integral of e^{-lam t} T(t) phi.

    ``apply(t, v)`` returns T(t) v; it is called once per quadrature node,
    so the group need not be formed as a matrix.  Positive Re(lam) integrates
    over t >= 0; negative Re(lam) uses the mirrored branch over t <= 0.
    Composite Gauss-Legendre panels of width 0.5 on [0, t_max]; t_max is
    chosen so the tail bound ||phi|| * e^{-|Re lam| t_max} / |Re lam| of a
    contraction group sits below 0.1 * tol unless supplied explicitly.
    """
    phi = np.asarray(phi, dtype=complex)
    lam = complex(lam)
    a = abs(lam.real)
    if a == 0:
        raise UsageError("resolvent_laplace needs Re(lambda) != 0")
    nrm = float(np.linalg.norm(phi))
    if t_max is None:
        target = 0.1 * tol * max(nrm, 1e-300)
        t_max = float(np.log(max(nrm, 1e-300) / target) / a)
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
    total = sign * total
    tail = nrm * np.exp(-a * t_max) / a
    if tail > tol:
        raise AccuracyError(
            f"tail bound {tail:.2e} exceeds tol {tol:.2e} at t_max={t_max:g}",
            residual=tail,
        )
    return LaplaceResult(total, float(t_max), panels, float(tail))


def resolvent_closed_form_x2(lam: complex, phi, N: int) -> np.ndarray:
    """Coefficients of x -> phi(x) / (lam + i x), projected onto N modes.

    The multiplication-operator form of the resolvent of the modulation
    generator; defined off the imaginary axis, where the denominator never
    vanishes.  The projection uses the default rule for N modes.
    """
    lam = complex(lam)
    if lam.real == 0:
        raise UsageError("closed-form resolvent needs Re(lambda) != 0")
    phi = np.asarray(phi, dtype=complex)
    xs, ws = gauss_hermite(QuadratureSpec.for_dim(N).node_count)
    vals = evaluate_series(phi, xs) / (lam + 1j * xs)
    H = hermite_functions(xs, N)
    return H @ (ws * vals)


@dataclass(frozen=True)
class YosidaSeriesSpec:
    """Parameters of the exponential reconstruction limit."""

    lambda_sequence: tuple = (10.0, 20.0, 50.0, 100.0)
    j_max: int = 512
    term_tol: float = 1e-14

    def __post_init__(self):
        lams = tuple(float(v) for v in self.lambda_sequence)
        if not lams or any(b <= a for a, b in zip(lams, lams[1:])):
            raise UsageError("lambda_sequence must be strictly increasing")
        if any(v <= 0 for v in lams):
            raise UsageError("lambda_sequence must be positive")
        if self.j_max < 1 or self.term_tol <= 0:
            raise UsageError("j_max must be >= 1 and term_tol positive")
        object.__setattr__(self, "lambda_sequence", lams)


@dataclass(frozen=True)
class YosidaResult:
    vector: np.ndarray
    trace: tuple          # (lambda, distance to reference in ||.||_n)
    terms_used: tuple


def yosida_reconstruct(
    apply_resolvent,
    spec: YosidaSeriesSpec,
    t: float,
    phi,
    chain: ScaleChain,
    n: int,
    reference,
    beta: float = 0.0,
) -> YosidaResult:
    """Evaluate e^{-lam t} sum_j (lam t)^j / j! (lam R(lam))^j phi per lambda.

    For t > 0 the sequence runs to +infinity; for t < 0 the mirrored
    branch substitutes -lambda.  Series coefficients are built by the
    multiplicative recurrence (never through factorials).  The trace pairs
    each lambda with the level-n distance to ``reference`` (the directly
    computed T(t) phi); the reconstruction contract is that this distance
    shrinks along the sequence.
    """
    phi = np.asarray(phi, dtype=complex)
    reference = np.asarray(reference, dtype=complex)
    if min(spec.lambda_sequence) <= beta:
        raise UsageError(
            f"lambda sequence must exceed the active bound beta={beta:g}"
        )
    direction = 1.0 if t >= 0 else -1.0
    trace = []
    used = []
    final = phi
    for lam_mag in spec.lambda_sequence:
        lam = direction * lam_mag
        if t == 0:
            final = phi.copy()
            used.append(0)
            trace.append((lam_mag, scale_norm(chain, final - reference, n)))
            continue
        coeff = np.exp(-lam * t)
        v = phi.copy()
        total = coeff * v
        peak = abs(lam * t)
        j = 0
        for j in range(1, spec.j_max + 1):
            v = lam * apply_resolvent(lam, v)
            coeff = coeff * (lam * t) / j
            term = coeff * v
            total = total + term
            if j > peak and scale_norm(chain, term, n) < spec.term_tol * max(
                scale_norm(chain, total, n), 1e-300
            ):
                break
        else:
            raise ConvergenceError(
                f"series cap j_max={spec.j_max} hit at lambda={lam:g}",
                last_term=float(np.linalg.norm(term)),
                trace=trace,
            )
        final = total
        used.append(j)
        trace.append((lam_mag, scale_norm(chain, final - reference, n)))
    return YosidaResult(final, tuple(trace), tuple(used))


@dataclass(frozen=True)
class EquicontinuityReport:
    n: int
    lam: float
    rows: tuple           # (p, worst_ratio, bound)
    passed: bool


def equicontinuity_bound_check(
    apply_resolvent,
    chain: ScaleChain,
    n: int,
    p_max: int,
    lam: complex,
    phis,
    rel_slack: float = 1e-8,
) -> EquicontinuityReport:
    """Vector-level bound ||R^p phi||_n <= (|lam| - n)^{-p} ||phi||_n.

    Valid for |Re lambda| > n; checked for p = 1..p_max on every sample,
    reporting the worst ratio per power.
    """
    lam = complex(lam)
    if abs(lam.real) <= n:
        raise UsageError(f"bound needs |Re lambda| > n; got lam={lam}, n={n}")
    if p_max < 1:
        raise UsageError("p_max must be >= 1")
    phis = [np.asarray(p, dtype=complex) for p in phis]
    worst = np.zeros(p_max)
    for phi in phis:
        base = scale_norm(chain, phi, n)
        if base == 0:
            continue
        w = phi
        for p in range(1, p_max + 1):
            w = apply_resolvent(lam, w)
            ratio = scale_norm(chain, w, n) / (base * (abs(lam) - n) ** (-p))
            worst[p - 1] = max(worst[p - 1], ratio)
    rows = tuple(
        (p, float(worst[p - 1]), (abs(lam) - n) ** (-p)) for p in range(1, p_max + 1)
    )
    passed = bool(np.all(worst <= 1.0 + rel_slack))
    return EquicontinuityReport(n, float(abs(lam)), rows, passed)


def e118_constants(lam: complex, n: int) -> list:
    """Recursion c_0 = 1/|lam|^2, c_i = 1 + prod_{j<i} c_j up to level n."""
    cs = [1.0 / abs(lam) ** 2]
    prod = cs[0]
    for _ in range(n):
        cs.append(1.0 + prod)
        prod *= cs[-1]
    return cs


def e118_bound_check(
    apply_resolvent, lam: complex, phi, chain: ScaleChain, n: int,
    rel_slack: float = 1e-6,
):
    """Check ||R(lam) phi||_n against the printed constant recursion.

    The recursion yields bounds that are loose or tight depending on |lam|
    and no validity range is stated, so callers should treat the outcome
    as a recorded measurement rather than a hard assertion.
    """
    lam = complex(lam)
    if lam.real == 0:
        raise UsageError("bound needs Re(lambda) != 0")
    phi = np.asarray(phi, dtype=complex)
    cs = e118_constants(lam, n)
    factor = float(np.sqrt(np.prod(cs)))
    lhs = scale_norm(chain, apply_resolvent(lam, phi), n)
    bound = factor * scale_norm(chain, phi, n)
    return BoundCheck(lhs, bound, lhs <= bound * (1.0 + rel_slack))


def estimate_beta(
    resolvent_builder,
    chain: ScaleChain,
    levels: dict,
    lambdas,
    p_max: int,
) -> tuple:
    """Smallest beta_n consistent with ||R^p||_n <= (lam - beta_n)^{-p}, measured.

    ``levels`` maps each scale level n to the number of interior modes its
    operator norms range over; the result holds one beta_n per level, in
    that order.  Each measured interior operator norm nu at (lam, p) forces
    beta_n >= lam - nu^{-1/p}; the estimate is the maximum over the grid.
    Each resolvent and its powers are built once and measured at every
    level before the next lambda.
    """
    best = dict.fromkeys(levels, -np.inf)
    for lam in lambdas:
        R = resolvent_builder(float(lam))
        power = np.eye(R.shape[0], dtype=complex)
        for p in range(1, p_max + 1):
            power = power @ R
            for n, modes in levels.items():
                nu = scale_operator_norm(chain, power, n, interior_modes=modes)
                best[n] = max(best[n], float(lam) - nu ** (-1.0 / p))
    return tuple(float(b) for b in best.values())


@dataclass(frozen=True)
class GlobalConditionsVerdict:
    """Outcome of the two reconstruction conditions over the measured ladder."""

    omegas: tuple
    betas: tuple
    omega_sup: float
    bounded_type: bool         # sup_n omega_n ~ 0 within tolerance
    uniform_equicontinuity: bool   # beta ladder admits a finite sup (not increasing)
    beta_strictly_increasing: bool


def global_conditions_report(
    type_estimates,
    betas,
    omega_tol: float = 1e-6,
    beta_resolution: float = 1e-2,
) -> GlobalConditionsVerdict:
    """Combine per-level types and beta estimates into ladder verdicts.

    ``bounded_type`` reports whether every measured omega_n vanishes within
    tolerance.  ``uniform_equicontinuity`` fails when the measured minimal
    admissible bound strictly increases along the scale, which is the
    finite-truncation footprint of the reconstruction limit failing in the
    intersection topology.
    """
    if len(type_estimates) < 2 or len(betas) < 2:
        raise UsageError("need at least 2 measured scale levels")
    omegas = tuple(te.omega_n for te in type_estimates)
    betas = tuple(float(b) for b in betas)
    omega_sup = max(abs(w) for w in omegas)
    increasing = all(b - a > beta_resolution for a, b in zip(betas, betas[1:]))
    return GlobalConditionsVerdict(
        omegas=omegas,
        betas=betas,
        omega_sup=float(omega_sup),
        bounded_type=bool(omega_sup <= omega_tol),
        uniform_equicontinuity=not increasing,
        beta_strictly_increasing=increasing,
    )
