"""Assembling a group representation from one-parameter generator groups.

Given one evaluator per basis generator (an applier (t, v) -> exp(t X) v
satisfying the one-parameter group law, with the generator as its
derivative at 0), the representation of a chart element is the ordered
product of the evaluators at the coordinates of the second kind, applied to
vectors factor by factor and never assembled (Higham, Functions of
Matrices, 2008, ch. 13).  The checks here probe everything that
construction promises: the homomorphism property on the chart, the
derivative identity d/dt T(exp(t x)) phi = X T(exp(t x)) phi, the
conjugation series

    T(t, X_i) X_j T(-t, X_i) = sum_k c_k X_k,  e^{t ad x_i} x_j = sum_k c_k x_k,

with c read off the structure constants of the algebra, the dual
(contragredient) representation, and the ladder criterion for whether the
whole thing extends boundedly to the ambient space.

Every kernel takes a model family itself, ``HermiteHeisenberg`` or
``BlockGeneratorFamily``, and reads its ``evaluators`` and its
``apply_generator``, each model applying its generators in its own
structure; the checks of the conjugation law also read ``automorphism``,
which only the Hermite model has.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import liecore
from .errors import UsageError
from .liecore import GroupElement, column_coords, group_multiply, second_kind_coords
from .scale import ScaleChain, scale_norm, support_bound


@dataclass(frozen=True)
class EvaluatorCheck:
    group_law_residual: float
    derivative_residual: float


def evaluator_invariants(fam, block) -> list:
    """Per generator X_i, worst over the (N, K) block's columns: E(s)E(t) = E(s+t), dE/dt(0) = X."""
    s, t, h = 0.3, 0.45, 1e-6  # law at (s, t); central-difference step h
    block = np.asarray(block, dtype=complex)
    nrm = np.maximum(np.linalg.norm(block, axis=0), 1e-300)
    out = []
    for E, x in zip(fam.evaluators, np.eye(3)):
        law = np.linalg.norm(E(s, E(t, block)) - E(s + t, block), axis=0) / nrm
        fd = (E(h, block) - E(-h, block)) / (2 * h)
        der = np.linalg.norm(fd - fam.apply_generator(x, block), axis=0) / nrm
        out.append(EvaluatorCheck(float(np.max(law)), float(np.max(der))))
    return out


def integrate_chart(fam, g: GroupElement, phi, adjoint: bool = False):
    """T(g) phi: the family's evaluators at the second-kind coordinates of g, applied right to left.

    ``phi`` is one vector or an (N, K) block, and ``g`` one element for every
    column or a block of K elements, one per column; no factor is assembled.
    The coordinates cover the whole group and each evaluator is exact at
    any time.  ``adjoint`` gives T(g)^* phi, the factors' adjoints applied
    left to right: the adjoint of the ordered product, not the chart product
    at g^{-1}.
    """
    column_coords(g, phi)  # refuses a block element that does not match the columns
    factors = list(zip(fam.evaluators, second_kind_coords(g)))
    out = np.asarray(phi)
    for E, t in factors if adjoint else factors[::-1]:
        out = E(t, out, adjoint=adjoint)
    return out


def homomorphism_residual(
    fam,
    g: GroupElement,
    h: GroupElement,
    phi,
    chain: ScaleChain,
    n: int,
) -> float | np.ndarray:
    """Level-n norm of T(g) T(h) phi - T(gh) phi: one per column of an (N, K) block."""
    lhs = integrate_chart(fam, g, integrate_chart(fam, h, phi))
    rhs = integrate_chart(fam, group_multiply(g, h), phi)
    return scale_norm(chain, lhs - rhs, n)


def conjugation_coefficients(i: int, j: int, t: float) -> np.ndarray:
    """Coefficients c with e^{t ad x_i} x_j = sum_k c[k] x_k.

    ad x_i has the entries (ad x_i)[k, j] = c[i, j, k] of
    ``liecore.heisenberg_constants``; it squares to zero, so the 3x3
    exponential stops after the linear term.
    """
    c = liecore.heisenberg_constants().c
    return np.eye(3)[j - 1] + t * c[i - 1, j - 1]


def int_identity_residual(
    fam,
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
    if not (1 <= i <= 3 and 1 <= j <= 3):
        raise UsageError("generator indices must lie in 1..3")
    phi = np.asarray(phi, dtype=complex)
    chain.family.require_interior(
        support_bound(phi), n + 2, what="conjugation series check"
    )
    E = fam.evaluators[i - 1]
    lhs = E(t, fam.apply_generator(np.eye(3)[j - 1], E(-t, phi)))
    rhs = fam.apply_generator(conjugation_coefficients(i, j, t), phi)
    return scale_norm(chain, lhs - rhs, n)


def derivative_identity_check(
    fam,
    x_coeffs,
    t: float,
    phi,
    chain: ScaleChain,
    n: int,
    h_grid=(1e-2, 5e-3, 2.5e-3),
) -> list:
    """Central differences of t -> T(exp(t x)) phi against X T(exp(t x)) phi.

    One level-n residual per step h of ``h_grid``; central differencing
    makes each O(h^2).  The derivative is also T(exp(t x)) X phi, the generator applied
    on the other side; that form agrees with this one, a separate check.
    """
    phi = np.asarray(phi, dtype=complex)
    left = fam.apply_generator(x_coeffs, integrate_chart(fam, liecore.chart_exp(x_coeffs, t), phi))
    residuals = []
    for h in h_grid:
        Up = integrate_chart(fam, liecore.chart_exp(x_coeffs, t + h), phi)
        Um = integrate_chart(fam, liecore.chart_exp(x_coeffs, t - h), phi)
        residuals.append(scale_norm(chain, (Up - Um) / (2 * h) - left, n))
    return residuals


def translated_derivative_residual(
    fam,
    x_coeffs,
    t: float,
    g: GroupElement,
    phi,
    chain: ScaleChain,
    n: int,
) -> float:
    """Residual of d/dt T(exp(t x) g) phi = X T(exp(t x) g) phi."""
    h = 1e-3  # central-difference step
    mid = group_multiply(liecore.chart_exp(x_coeffs, t), g)
    up = group_multiply(liecore.chart_exp(x_coeffs, t + h), g)
    dn = group_multiply(liecore.chart_exp(x_coeffs, t - h), g)
    fd = (integrate_chart(fam, up, phi) - integrate_chart(fam, dn, phi)) / (2 * h)
    return scale_norm(chain, fd - fam.apply_generator(x_coeffs, integrate_chart(fam, mid, phi)), n)


def interpolation_constancy_residual(
    fam,
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
        values.append(integrate_chart(fam, left, integrate_chart(fam, right, phi)))
    return max(scale_norm(chain, v - values[0], n) for v in values[1:])


def conjugation_series_vs_automorphism(
    fam,
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
    f = fam.automorphism(liecore.group_inverse(g))
    worst = 0.0
    for j in range(1, 4):
        series = fam.apply_generator(conjugation_coefficients(i, j, t), phi)
        rhs = fam.apply_generator(f[j - 1], phi)
        worst = max(worst, scale_norm(chain, series - rhs, n))
    return worst


def dual_operator(A: np.ndarray) -> np.ndarray:
    """Operator on the antidual side: <A phi, F> = <phi, dual(A) F>.

    With the truncation's standard pairing this is the conjugate
    transpose; the construction is involutive on the nose.
    """
    return np.asarray(A, dtype=complex).conj().T


def pairing_residual(fam, g: GroupElement, phi, F) -> float | np.ndarray:
    """|<T(g) phi, F> - <phi, V(g^-1) F>| with V(g^-1) = dual(T(g)), applied as T(g)^*;
    (N, K) blocks of phi and F with a block of K elements give K residuals."""
    lhs = np.sum(integrate_chart(fam, g, phi).conj() * F, axis=0)
    rhs = np.sum(np.conj(phi) * integrate_chart(fam, g, F, adjoint=True), axis=0)
    return abs(lhs - rhs)


def dual_generator_residual(fam, i: int, F) -> float:
    """Finite-difference generator of t -> V(exp(t x_i)) against -dual(X_i), applied as X_i^*.

    V(t) applied to a functional is dual(E(-t)), the adjoint of E at -t;
    the derivative at 0 is minus the dual of the generator.
    """
    h = 1e-4  # central-difference step
    F = np.asarray(F, dtype=complex)
    E = fam.evaluators[i - 1]
    fd = (E(-h, F, adjoint=True) - E(h, F, adjoint=True)) / (2 * h)
    target = -fam.apply_generator(np.eye(3)[i - 1], F, adjoint=True)
    return float(np.linalg.norm(fd - target)) / max(float(np.linalg.norm(F)), 1e-300)


@dataclass(frozen=True)
class ExtensionVerdict:
    norms: tuple
    growth_exponent: float
    verdict: str            # "extends" | "does not extend" | "inconclusive"


def extension_probe(ladder) -> ExtensionVerdict:
    """Classify a generator by ambient-norm growth of exp(t X) along a ladder.

    ``ladder`` is a list of (size, ambient 2-norm of exp(t X)).  A bounded
    extension leaves the ambient operator norm flat as the truncation grows;
    an unbounded one shows power-law growth.  The verdict is read off the
    log-log slope: below 0.1 extends, above 0.5 does not; anything between
    is classified as inconclusive rather than guessed.
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
    return ExtensionVerdict(norms, slope, verdict)
