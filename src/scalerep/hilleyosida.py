"""Resolvents of scale generators and group reconstruction from them.

For a one-parameter group T(t) of level-n type omega_n, the resolvent of
its generator is the Laplace transform of the group (branch by the sign of
Re lambda), the group is recovered from the resolvent by the exponential
limit formula, and powers of the resolvent obey the equicontinuity bound

    ||R(lambda)^p||_n <= M_n (|lambda| - beta_n)^{-p}.

Everything here is evaluated at finite truncation: operator norms near the
band edge are contaminated by the cut, so norm estimates restrict their
input to interior modes, and the reported "beta ladder" is the measured
footprint of equicontinuity degrading along the scale.  The kernels
return measurements; each case row compares them with its bound.

A computation that uses matrix resolvents names its lambdas once, in
order of use, as ``ResolventStacks``: it eliminates them in bounded
stacks and holds one stack at a time, so no state outlives it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AccuracyError, ConvergenceError, SingularOperatorError, UsageError
from .hermite import golub_welsch_rule
from .scale import ScaleChain, read_only, real_product, scale_norm, scale_operator_norm

DEFAULT_LAMBDAS = (10.0, 20.0, 50.0, 100.0)
LAPLACE_TOL = 1e-8          # tail bound of the Laplace quadrature
SERIES_TERM_TOL = 1e-14     # relative size of the last reconstruction term
BETA_RESOLUTION = 1e-2      # smallest beta step that counts as an increase
STACK_ENTRIES = 2**18       # most entries of one stack of resolvents


@dataclass(frozen=True)
class TypeEstimate:
    """Measured growth type at one scale level."""

    n: int
    omega_n: float
    sample_size: int


def estimate_type(apply, chain: ScaleChain, n, t_grid, block):
    """Grid infimum of (1/|t|) log sup ||T(t) phi||_n / ||phi||_n.

    The sample vectors phi are the columns of the (N, k) ``block``;
    ``apply(t, v)`` returns T(t) v and is called once per t on the whole
    block.  ``n`` is one level or a sequence of levels, which gives one
    estimate per level from those same applications.  The infimum over a
    finite grid is an upper bound for the true type; a grid reaching large
    |t| is needed to resolve type zero to small tolerance.  A NaN ratio
    makes omega NaN.
    """
    t_grid = [float(t) for t in t_grid]
    if not t_grid or any(t == 0 for t in t_grid):
        raise UsageError("t_grid must be nonempty and exclude 0")
    block = np.asarray(block, dtype=complex)
    levels = np.atleast_1d(n).tolist()
    norms = [scale_norm(chain, block, level) for level in levels]
    if np.ndim(norms[0]) != 1 or np.max(norms[0], initial=0.0) <= 1e-30:
        raise UsageError(f"need an (N, k) block with a sample of nonzero norm, got {block.shape}")
    omega = [np.inf] * len(levels)
    for t in t_grid:
        image = apply(t, block)
        for i, (level, base) in enumerate(zip(levels, norms)):
            # block norms equal the column norms bit for bit, so an apply that
            # returns its input reproduces the sample norms (type exactly 0)
            live = base > 0
            sup = np.max(scale_norm(chain, image, level)[live] / base[live])
            omega[i] = np.minimum(omega[i], np.log(sup) / abs(t))
    out = [TypeEstimate(level, float(w), block.shape[1]) for level, w in zip(levels, omega)]
    return out if np.ndim(n) else out[0]


def resolvent_matrix(X: np.ndarray, lam) -> np.ndarray:
    """(lam I - X)^{-1} for a skew-Hermitian tridiagonal X, given as its (3, N)
    rows (``scale`` row form), by elimination without pivoting.

    The pivots are d_0 = lam - X[0, 0], d_k = lam - X[k, k] + |X[k, k-1]|^2 / d_{k-1}.
    X's diagonal is imaginary and Re(1/d) has the sign of Re d, so every
    pivot has |d_k| >= |Re lam|: off the imaginary axis the elimination
    cannot break down in exact arithmetic (nor would partial pivoting swap
    a row).  One that leaves the floating-point range, as at a subnormal
    Re lam, raises ``SingularOperatorError`` naming its lam.  It runs in
    float64 for a real X and lam (X1: X2 in its real frame) and scales rows
    by the pivot's reciprocal, as complex division does for a real pivot,
    so X2 at real lam gives ``zgesv``'s result bit for bit and X1 the same
    entries.  A 1-D ``lam`` gives the (L, N, N) stack from one elimination
    across it, each resolvent bit-identical to its own call.
    """
    X, given = np.asarray(X), np.atleast_1d(lam)
    stack = given.astype(np.result_type(X, given, float))
    for bad in given[stack.real == 0][:1]:
        raise SingularOperatorError(
            f"lam={bad} lies on the imaginary axis, where no pivot bound holds",
            condition_estimate=np.inf,
        )
    if given.ndim > 1 or np.ndim(X) != 2 or len(X) != 3:
        raise UsageError("X must be the (3, N) rows of a tridiagonal, and lam a scalar or 1-D")
    sub, sup = -X[0, 1:], -X[2, :-1]  # the off-diagonals of lam I - X
    if np.any(X[1].real) or not np.array_equal(sup, -sub.conj()):
        raise UsageError("X must be skew-Hermitian")
    diag = stack[:, None] - X[1][:, None, None]
    N, L = len(diag), len(stack)
    pivots, recips = diag.copy(), np.empty_like(diag)
    # R[k] holds row k of every resolvent: the row operations act on (L, N) slabs
    R = np.zeros((N, L, N), dtype=stack.dtype)
    R[np.arange(N), :, np.arange(N)] = 1.0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for k in range(1, N):
            recips[k - 1] = 1.0 / pivots[k - 1]
            mult = recips[k - 1] * sub[k - 1]
            pivots[k] -= mult * sup[k - 1]
            np.multiply(-mult, R[k - 1, :, :k], out=R[k, :, :k])  # 0 - mult R[k - 1]
        recips[-1] = 1.0 / pivots[-1]
        for k in range(N - 1, -1, -1):
            if k < N - 1:
                R[k] -= sup[k] * R[k + 1]
            R[k] *= recips[k]
        finite = np.isfinite(pivots * recips).all(axis=(0, 2)) & np.isfinite(R).all(axis=(0, 2))
    if not finite.all():
        raise SingularOperatorError(
            f"elimination at lam={given[np.argmin(finite)]} left the floating-point range",
            condition_estimate=np.inf,
        )
    return R[:, 0] if np.ndim(lam) == 0 else R.transpose(1, 0, 2)


class ResolventStacks:
    """The resolvents of Y = F^* X F at the lambdas one computation names, in order of use.

    ``X`` is a skew-Hermitian tridiagonal as (3, N) rows and ``frame`` the
    diagonal of the unitary F: ``matrix(lam)`` is (lam - X)^{-1}, read-only,
    and ``apply(lam, v)`` is (lam - Y)^{-1} v = F^* (lam - X)^{-1} F v for a
    vector or an (N, K) block.  Asking for a lambda outside the stack held
    frees that stack and eliminates the named lambdas from the asked one on,
    at most ``STACK_ENTRIES`` entries (2 MiB: 10 lambdas at N = 160, 64 at
    N = 64, one from N = 512).  A lambda the computation did not name is
    refused.
    """

    def __init__(self, X, lams, frame):
        self.X, self.lams, self.frame = X, tuple(lams), frame
        self._held = {}

    def matrix(self, lam) -> np.ndarray:
        if lam not in self._held:
            if lam not in self.lams:
                raise UsageError(f"lam={lam} is not among the named lambdas {self.lams}")
            self._held = {}  # freed before the next stack is built
            todo = dict.fromkeys(self.lams[self.lams.index(lam) :])
            lams = tuple(todo)[: max(1, STACK_ENTRIES // self.X.shape[1] ** 2)]
            self._held = dict(zip(lams, read_only(resolvent_matrix(self.X, lams))))
        return self._held[lam]

    def apply(self, lam, v) -> np.ndarray:
        f = self.frame.reshape((-1,) + (1,) * (np.ndim(v) - 1))
        return f.conj() * real_product(self.matrix(lam), f * v)


@lru_cache(maxsize=4)
def _gauss_legendre(n: int):
    """Nodes and weights 2 / ((1 - x^2) P_n'(x)^2) of the n-point Gauss-Legendre
    rule on [-1, 1], read-only: ten Newton steps on P_n, by its recurrence,
    from cos(pi (4k - 1) / (4n + 2)), which meet its roots to rounding."""
    x = np.cos(np.pi * (4 * np.arange(n, 0, -1) - 1) / (4 * n + 2))
    for _ in range(10):
        prev, cur = np.ones(n), x
        for k in range(2, n + 1):
            prev, cur = cur, ((2 * k - 1) * x * cur - (k - 1) * prev) / k
        slope = n * (prev - x * cur) / (1 - x * x)
        x = x - cur / slope
    return read_only(x), read_only(2 / ((1 - x * x) * slope * slope))


@dataclass(frozen=True)
class LaplaceResult:
    vector: np.ndarray
    t_max: float
    panels: int
    tail_bound: float


def resolvent_laplace(
    group,
    lam: complex,
    phi,
    *,
    nodes_per_panel: int = 16,  # bench/layertrace.py reads it to count nodes
) -> LaplaceResult:
    """Laplace transform of the group: integral of e^{-lam t} T(t) phi.

    ``group`` is a ``UnitaryGroup``; the quadrature sum over all nodes is
    one call to its ``integrate``, so phi crosses the eigenbasis once and
    the group is never formed as a matrix.  Positive Re(lam) integrates
    over t >= 0; negative Re(lam) uses the mirrored branch over t <= 0.
    Composite Gauss-Legendre panels of width 0.5 on [0, t_max], with
    e^{-|Re lam| t_max} / min(1, |Re lam|) = 0.1 * ``LAPLACE_TOL``, so the
    relative tail bound e^{-|Re lam| t_max} / |Re lam| stays below it; a
    tail bound ||phi|| * e^{-|Re lam| t_max} / |Re lam| of a contraction
    group above ``LAPLACE_TOL`` raises ``AccuracyError``.
    """
    phi = np.asarray(phi, dtype=complex)
    lam = complex(lam)
    a = abs(lam.real)
    if a == 0:
        raise UsageError("resolvent_laplace needs Re(lambda) != 0")
    nrm = float(np.linalg.norm(phi))
    target = 0.1 * LAPLACE_TOL * max(nrm, 1e-300) * min(a, 1.0)
    t_max = float(np.log(max(nrm, 1e-300) / target) / a)
    sign = 1.0 if lam.real > 0 else -1.0
    panels = max(1, int(np.ceil(t_max / 0.5)))
    xg, wg = _gauss_legendre(nodes_per_panel)
    edges = np.linspace(0.0, t_max, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    s = (mid + half * xg).ravel()
    weights = (half * wg).ravel() * np.exp(-lam * sign * s)
    total = sign * group.integrate(sign * s, weights, phi)
    tail = nrm * np.exp(-a * t_max) / a
    if tail > LAPLACE_TOL:
        raise AccuracyError(
            f"tail bound {tail:.2e} exceeds tol {LAPLACE_TOL:.2e} at t_max={t_max:g}",
            residual=tail,
        )
    return LaplaceResult(total, float(t_max), panels, float(tail))


def resolvent_closed_form_x2(lam: complex, phi, N: int) -> np.ndarray:
    """Coefficients of x -> phi(x) / (lam + i x), projected onto N modes.

    The multiplication-operator form of the resolvent of the modulation
    generator; defined off the imaginary axis, where the denominator never
    vanishes.  The projection is the 2N-node Gauss-Hermite one, at any N:
    R phi = V_N ((V_N^T phi) / (lam + i w)) on ``golub_welsch_rule(N)``.
    """
    lam = complex(lam)
    if lam.real == 0:
        raise UsageError("closed-form resolvent needs Re(lambda) != 0")
    w, V = golub_welsch_rule(N)
    return real_product(V, real_product(V.T, phi) / (lam + 1j * w))


@dataclass(frozen=True)
class YosidaSeriesSpec:
    """The lambda sequence of the exponential reconstruction limit, validated."""

    lambda_sequence: tuple = DEFAULT_LAMBDAS

    def __post_init__(self):
        lams = tuple(float(v) for v in self.lambda_sequence)
        if not all(np.isfinite(lams)):
            raise UsageError(f"lambda_sequence must be finite, got {lams}")
        if not lams or any(b <= a for a, b in zip(lams, lams[1:])):
            raise UsageError("lambda_sequence must be strictly increasing")
        if any(v <= 0 for v in lams):
            raise UsageError("lambda_sequence must be positive")
        object.__setattr__(self, "lambda_sequence", lams)


@dataclass(frozen=True)
class YosidaResult:
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
) -> YosidaResult:
    """Evaluate e^{-lam t} sum_j (lam t)^j / j! (lam R(lam))^j phi per lambda.

    For t > 0 the sequence runs to +infinity; for t < 0 the mirrored
    branch substitutes -lambda.  Series coefficients are built by the
    multiplicative recurrence (never through factorials).  The trace pairs
    each lambda with the level-n distance to ``reference`` (the directly
    computed T(t) phi); the reconstruction contract is that this distance
    shrinks along the sequence.

    The series stops past its peak j = lambda |t| once a term falls below
    ``SERIES_TERM_TOL`` of the sum, about 8-12 standard deviations
    sqrt(lambda |t|) past the peak, or at a weight of 0, before its
    resolvent is applied: at t = 0 the sum is phi, after one term.  The
    cap lambda |t| + 20 sqrt(lambda |t|) + 40 only guards against a series that never meets that rule (NaN
    terms); hitting it, or a first weight e^{-lambda |t|} below the
    smallest normal float (lambda |t| > 708), raises ``ConvergenceError``.
    """
    phi = np.asarray(phi, dtype=complex)
    reference = np.asarray(reference, dtype=complex)
    direction = 1.0 if t >= 0 else -1.0
    trace = []
    used = []
    for lam_mag in spec.lambda_sequence:
        lam = direction * lam_mag
        coeff = np.exp(-lam * t)
        peak = abs(lam * t)
        if coeff < np.finfo(float).tiny:
            raise ConvergenceError(
                f"first series weight e^-{peak:g} underflows at lambda={lam:g}",
                last_term=coeff,
            )
        j_max = int(peak + 20.0 * np.sqrt(peak)) + 40
        v = phi.copy()
        total = coeff * v
        for j in range(1, j_max + 1):
            coeff = coeff * (lam * t) / j
            if coeff == 0:  # so is every later weight: at t = 0, the first
                break
            v = lam * apply_resolvent(lam, v)
            term = coeff * v
            total = total + term
            if j > peak and scale_norm(chain, term, n) < SERIES_TERM_TOL * max(
                scale_norm(chain, total, n), 1e-300
            ):
                break
        else:
            raise ConvergenceError(
                f"series cap j_max={j_max} hit at lambda={lam:g}",
                last_term=float(np.linalg.norm(term)),
            )
        used.append(j)
        trace.append((lam_mag, scale_norm(chain, total - reference, n)))
    return YosidaResult(tuple(trace), tuple(used))


@dataclass(frozen=True)
class EquicontinuityReport:
    rows: tuple           # (p, worst_ratio, bound)


def equicontinuity_bound_check(
    apply_resolvent,
    chain: ScaleChain,
    n: int,
    p_max: int,
    lam: complex,
    block,
) -> EquicontinuityReport:
    """Vector-level bound ||R^p phi||_n <= (|lam| - n)^{-p} ||phi||_n.

    Valid for |Re lambda| > n; checked for p = 1..p_max on every sample
    phi, a column of the (N, k) ``block``, reporting the worst ratio per
    power (NaN if any ratio is NaN).
    """
    lam = complex(lam)
    if abs(lam.real) <= n:
        raise UsageError(f"bound needs |Re lambda| > n; got lam={lam}, n={n}")
    if p_max < 1:
        raise UsageError("p_max must be >= 1")
    block = np.asarray(block, dtype=complex)
    base = scale_norm(chain, block, n)
    if np.ndim(base) != 1:
        raise UsageError(f"need an (N, k) block of samples, got shape {block.shape}")
    # zero samples carry no ratio; the powers act on the rest as one block
    w, base = block[:, base > 0], base[base > 0]
    worst = np.zeros(p_max)
    for p in range(1, p_max + 1):
        w = apply_resolvent(lam, w)
        ratio = scale_norm(chain, w, n) / (base * (abs(lam) - n) ** (-p))
        worst[p - 1] = np.max(ratio, initial=0.0)
    rows = tuple(
        (p, float(worst[p - 1]), (abs(lam) - n) ** (-p)) for p in range(1, p_max + 1)
    )
    return EquicontinuityReport(rows)


def e118_constants(lam: complex, n: int) -> list:
    """Recursion c_0 = 1/|lam|^2, c_i = 1 + prod_{j<i} c_j up to level n.

    sqrt(prod_i c_i) is the printed c of ||R(lam) phi||_n <= c ||phi||_n (e1.18).
    """
    cs = [1.0 / abs(lam) ** 2]
    prod = cs[0]
    for _ in range(n):
        cs.append(1.0 + prod)
        prod *= cs[-1]
    return cs


def estimate_beta(
    apply_resolvent,
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
    The norms read only the leading k columns of R^p, k the largest mode
    count, so ``apply_resolvent(lam, B)`` carries them as one (N, k) block:
    B_1 = R I[:, :k], B_p = R B_{p-1}, measured at every level before the
    next power.  No power is formed as an N x N matrix.  I[:, :k] is real,
    so a real resolvent (X2's in its real frame) keeps every block real.
    """
    eye = np.eye(chain.family.dim, max(levels.values()))
    best = dict.fromkeys(levels, -np.inf)
    for lam in lambdas:
        block = eye
        for p in range(1, p_max + 1):
            block = apply_resolvent(float(lam), block)
            for n, modes in levels.items():
                nu = scale_operator_norm(chain, block[:, :modes], n)
                best[n] = max(best[n], float(lam) - nu ** (-1.0 / p))
    return tuple(float(b) for b in best.values())


@dataclass(frozen=True)
class GlobalConditionsVerdict:
    """Outcome of the two reconstruction conditions over the measured ladder."""

    omega_sup: float
    uniform_equicontinuity: bool   # beta ladder admits a finite sup (not increasing)


def global_conditions_report(type_estimates, betas) -> GlobalConditionsVerdict:
    """Combine per-level types and beta estimates into ladder verdicts.

    ``omega_sup`` is the largest |omega_n| (NaN if any is NaN); the caller
    compares it with its type tolerance.  ``uniform_equicontinuity`` fails
    when the measured minimal admissible bound increases by more than
    ``BETA_RESOLUTION`` at every step along the scale, which is the
    finite-truncation footprint of the reconstruction limit failing in the
    intersection topology.
    """
    if len(type_estimates) < 2 or len(betas) < 2:
        raise UsageError("need at least 2 measured scale levels")
    omegas = tuple(te.omega_n for te in type_estimates)
    betas = tuple(float(b) for b in betas)
    omega_sup = np.max(np.abs(omegas))
    increasing = all(b - a > BETA_RESOLUTION for a, b in zip(betas, betas[1:]))
    return GlobalConditionsVerdict(float(omega_sup), not increasing)
