"""Assembling a group representation from one-parameter generator groups.

Given one evaluator per basis generator (an applier (t, v) -> exp(t X) v
satisfying the one-parameter group law, with the generator as its
derivative at 0), the representation of a chart element is the ordered
product of the evaluators at the coordinates of the second kind, applied to
vectors factor by factor and never assembled (Higham, Functions of
Matrices, 2008, ch. 13).  The checks here probe everything that
construction promises: the homomorphism property on the chart, the
derivative identities on both sides, the conjugation series

    T(t, X_i) X_j T(-t, X_i) = sum_k c_k X_k,  e^{t ad x_i} x_j = sum_k c_k x_k,

with c read off the structure constants of the algebra, the dual
(contragredient) representation, and the ladder criterion for whether the
whole thing extends boundedly to the ambient space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import liecore
from .errors import UsageError
from .liecore import GroupElement, group_multiply, second_kind_coords
from .scale import ScaleChain, scale_norm, support_bound

# the chart: group elements whose coordinates all satisfy |xi_k| <= CHART_BOX
CHART_BOX = 2.0


@dataclass(frozen=True)
class IntegrableFamily:
    """Generators with their one-parameter evaluators and a chart map."""

    gens: tuple                 # d square matrices
    evaluators: tuple           # d appliers (t, v, adjoint=False) -> exp(t X_i) v, or its adjoint
    labels: tuple = ("X1", "X2", "X3")

    def __post_init__(self):
        if not (len(self.gens) == len(self.evaluators) == len(self.labels)):
            raise UsageError("gens, evaluators, and labels must pair up")
        gens = tuple(np.asarray(g, dtype=complex) for g in self.gens)
        object.__setattr__(self, "gens", gens)

    @property
    def d(self) -> int:
        return len(self.gens)

    @property
    def dim(self) -> int:
        return self.gens[0].shape[0]

    def generator(self, x_coeffs) -> np.ndarray:
        x_coeffs = np.asarray(x_coeffs, dtype=complex)
        if x_coeffs.shape != (self.d,):
            raise UsageError(f"algebra vector must have {self.d} coefficients")
        return sum(c * X for c, X in zip(x_coeffs, self.gens))

    def check_in_chart(self, g: GroupElement):
        if max(abs(g.xi1), abs(g.xi2), abs(g.xi3)) > CHART_BOX:
            raise UsageError(
                f"group element ({g.xi1:g},{g.xi2:g},{g.xi3:g}) outside the "
                f"chart box |xi| <= {CHART_BOX:g}"
            )


@dataclass(frozen=True)
class EvaluatorCheck:
    label: str
    group_law_residual: float
    derivative_residual: float


def evaluator_invariants(ifam: IntegrableFamily, phis) -> list:
    """Per generator, worst over the samples (one block): E(s)E(t) = E(s+t), dE/dt(0) = X."""
    s, t, h = 0.3, 0.45, 1e-6  # law at (s, t); central-difference step h
    block = np.array(phis, dtype=complex).T
    nrm = np.maximum(np.linalg.norm(block, axis=0), 1e-300)
    out = []
    for label, E, X in zip(ifam.labels, ifam.evaluators, ifam.gens):
        law = np.linalg.norm(E(s, E(t, block)) - E(s + t, block), axis=0) / nrm
        fd = (E(h, block) - E(-h, block)) / (2 * h)
        der = np.linalg.norm(fd - X @ block, axis=0) / nrm
        out.append(EvaluatorCheck(label, float(np.max(law)), float(np.max(der))))
    return out


def integrate_chart(ifam: IntegrableFamily, g: GroupElement, phi, adjoint: bool = False):
    """T(g) phi: the evaluators at the second-kind coordinates of g, applied right to left.

    ``phi`` is one vector or an (N, K) block; no factor is assembled.
    ``adjoint`` gives T(g)^* phi, the factors' adjoints applied left to right:
    the adjoint of the ordered product, not the chart product at g^{-1}.
    """
    ifam.check_in_chart(g)
    ts = second_kind_coords(g)
    if len(ts) != ifam.d:
        raise UsageError(
            f"chart provides {len(ts)} coordinates but the family has {ifam.d} generators"
        )
    factors = list(zip(ifam.evaluators, ts))
    out = np.asarray(phi)
    for E, t in factors if adjoint else factors[::-1]:
        out = E(t, out, adjoint=adjoint)
    return out


def homomorphism_residual(
    ifam: IntegrableFamily,
    g: GroupElement,
    h: GroupElement,
    phi,
    chain: ScaleChain,
    n: int,
) -> float:
    """Level-n norm of T(g) T(h) phi - T(gh) phi."""
    gh = group_multiply(g, h)
    for el in (g, h, gh):
        ifam.check_in_chart(el)
    lhs = integrate_chart(ifam, g, integrate_chart(ifam, h, phi))
    rhs = integrate_chart(ifam, gh, phi)
    return scale_norm(chain, lhs - rhs, n)


def conjugation_coefficients(i: int, j: int, t: float) -> np.ndarray:
    """Coefficients c with e^{t ad x_i} x_j = sum_k c[k] x_k.

    ad x_i has the entries (ad x_i)[k, j] = c[i, j, k] of
    ``liecore.heisenberg_constants``; it squares to zero, so the 3x3
    exponential stops after the linear term.
    """
    c = liecore.heisenberg_constants().c
    return np.eye(3)[j - 1] + t * c[i - 1, j - 1]


def _combine(ifam: IntegrableFamily, coeffs, phi) -> np.ndarray:
    """sum_k coeffs[k] X_k phi."""
    return sum(coeffs[k] * (ifam.gens[k] @ phi) for k in range(ifam.d))


def int_identity_residual(
    ifam: IntegrableFamily,
    i: int,
    j: int,
    t: float,
    phi,
    chain: ScaleChain,
    n: int,
) -> float:
    """Residual of the conjugation series identity applied to phi.

    Left side conjugates X_j by the i-th one-parameter group; right side
    is sum_k c_k X_k phi with c from ``conjugation_coefficients``, the
    exact algebra-level series, so no matrix series is summed.
    """
    if not (1 <= i <= ifam.d and 1 <= j <= ifam.d):
        raise UsageError(f"generator indices must lie in 1..{ifam.d}")
    phi = np.asarray(phi, dtype=complex)
    chain.family.require_interior(
        support_bound(phi), n + 2, what="conjugation series check"
    )
    E = ifam.evaluators[i - 1]
    lhs = E(t, ifam.gens[j - 1] @ E(-t, phi))
    rhs = _combine(ifam, conjugation_coefficients(i, j, t), phi)
    return scale_norm(chain, lhs - rhs, n)


@dataclass(frozen=True)
class DerivativeCheckRow:
    h: float
    residual_left: float      # against X T(e^{tx}) phi
    residual_right: float     # against T(e^{tx}) X phi


def derivative_identity_check(
    ifam: IntegrableFamily,
    x_coeffs,
    t: float,
    phi,
    chain: ScaleChain,
    n: int,
    h_grid=(1e-2, 5e-3, 2.5e-3),
) -> list:
    """Central differences of t -> T(exp(t x)) phi against both derivative forms.

    The derivative of the integrated subgroup equals the generator applied
    on either side; central differencing makes both residuals O(h^2).
    """
    phi = np.asarray(phi, dtype=complex)
    X = ifam.generator(x_coeffs)
    g = liecore.chart_exp(x_coeffs, t)
    left, right = X @ integrate_chart(ifam, g, phi), integrate_chart(ifam, g, X @ phi)
    rows = []
    for h in h_grid:
        Up = integrate_chart(ifam, liecore.chart_exp(x_coeffs, t + h), phi)
        Um = integrate_chart(ifam, liecore.chart_exp(x_coeffs, t - h), phi)
        fd = (Up - Um) / (2 * h)
        rows.append(
            DerivativeCheckRow(
                h,
                scale_norm(chain, fd - left, n),
                scale_norm(chain, fd - right, n),
            )
        )
    return rows


def translated_derivative_residual(
    ifam: IntegrableFamily,
    x_coeffs,
    t: float,
    g: GroupElement,
    phi,
    chain: ScaleChain,
    n: int,
) -> float:
    """Residual of d/dt T(exp(t x) g) phi = X T(exp(t x) g) phi."""
    h = 1e-3  # central-difference step
    X = ifam.generator(x_coeffs)
    mid = group_multiply(liecore.chart_exp(x_coeffs, t), g)
    up = group_multiply(liecore.chart_exp(x_coeffs, t + h), g)
    dn = group_multiply(liecore.chart_exp(x_coeffs, t - h), g)
    fd = (integrate_chart(ifam, up, phi) - integrate_chart(ifam, dn, phi)) / (2 * h)
    return scale_norm(chain, fd - X @ integrate_chart(ifam, mid, phi), n)


def interpolation_constancy_residual(
    ifam: IntegrableFamily,
    x_coeffs,
    t: float,
    g: GroupElement,
    phi,
    chain: ScaleChain,
    n: int,
) -> float:
    """Spread of s -> T(exp(s x)) T(exp((t-s) x) g) phi over s = 0, 1/4, ..., 1.

    Constancy of this interpolating path is what forces the chart product
    to be a homomorphism; the residual is the largest level-n distance
    from the s = 0 value.
    """
    values = []
    for s in (0.0, 0.25, 0.5, 0.75, 1.0):
        right = group_multiply(liecore.chart_exp(x_coeffs, (1 - s) * t), g)
        left = liecore.chart_exp(x_coeffs, s * t)
        values.append(integrate_chart(ifam, left, integrate_chart(ifam, right, phi)))
    return max(scale_norm(chain, v - values[0], n) for v in values[1:])


def conjugation_series_vs_automorphism(
    ifam: IntegrableFamily,
    hermite_family,
    i: int,
    t: float,
    phi,
    chain: ScaleChain,
    n: int,
) -> float:
    """Match the conjugation-series coefficients against the automorphism-matrix rows.

    For g = exp(t x_i) the coefficients of e^{t ad x_i} x_j are exactly
    row j of the conjugation-law matrix at g^{-1}; this ties the series
    identity to the induced-representation law.
    """
    phi = np.asarray(phi, dtype=complex)
    g = liecore.chart_exp(tuple(1.0 if k == i - 1 else 0.0 for k in range(3)), t)
    f = hermite_family.automorphism(liecore.group_inverse(g))
    worst = 0.0
    for j in range(1, 4):
        series = _combine(ifam, conjugation_coefficients(i, j, t), phi)
        rhs = _combine(ifam, f[j - 1], phi)
        worst = max(worst, scale_norm(chain, series - rhs, n))
    return worst


def dual_operator(A: np.ndarray) -> np.ndarray:
    """Operator on the antidual side: <A phi, F> = <phi, dual(A) F>.

    With the truncation's standard pairing this is the conjugate
    transpose; the construction is involutive on the nose.
    """
    return np.asarray(A, dtype=complex).conj().T


def pairing_residual(ifam: IntegrableFamily, g: GroupElement, phi, F) -> float:
    """|<T(g) phi, F> - <phi, V(g^-1) F>| with V(g^-1) = dual(T(g)), applied as T(g)^*."""
    lhs = complex(np.vdot(integrate_chart(ifam, g, phi), F))
    rhs = complex(np.vdot(phi, integrate_chart(ifam, g, F, adjoint=True)))
    return abs(lhs - rhs)


def dual_generator_residual(ifam: IntegrableFamily, i: int, F) -> float:
    """Finite-difference generator of t -> V(exp(t x_i)) against -dual(X_i).

    V(t) applied to a functional is dual(E(-t)), the adjoint of E at -t;
    the derivative at 0 is minus the dual of the generator.
    """
    h = 1e-4  # central-difference step
    F = np.asarray(F, dtype=complex)
    E = ifam.evaluators[i - 1]
    fd = (E(-h, F, adjoint=True) - E(h, F, adjoint=True)) / (2 * h)
    target = -dual_operator(ifam.gens[i - 1]) @ F
    return float(np.linalg.norm(fd - target)) / max(float(np.linalg.norm(F)), 1e-300)


@dataclass(frozen=True)
class ExtensionVerdict:
    label: str
    sizes: tuple
    norms: tuple
    growth_exponent: float
    verdict: str            # "extends" | "does not extend"


def extension_probe(ladder, t: float, label: str = "") -> ExtensionVerdict:
    """Classify a generator by ambient-norm growth of exp(t X) along a ladder.

    ``ladder`` is a list of (size, ambient 2-norm of exp(t X)).  A bounded
    extension leaves the ambient operator norm flat as the truncation grows;
    an unbounded one shows power-law growth.  The verdict is read off the
    log-log slope: below 0.1 extends, above 0.5 does not; anything between
    is refused as inconclusive rather than guessed.
    """
    if len(ladder) < 3:
        raise UsageError("extension probe needs at least 3 ladder points")
    sizes = tuple(int(s) for s, _ in ladder)
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise UsageError("ladder sizes must be strictly increasing")
    norms = tuple(float(v) for _, v in ladder)
    slope = float(
        np.polyfit(np.log(np.asarray(sizes, dtype=float)), np.log(np.asarray(norms)), 1)[0]
    )
    if slope < 0.1:
        verdict = "extends"
    elif slope > 0.5:
        verdict = "does not extend"
    else:
        verdict = "inconclusive"
    return ExtensionVerdict(label, sizes, norms, slope, verdict)
