"""The nilpotent group acting on L^2(R), truncated to a Hermite basis.

Generators are the exact tridiagonal matrices of d/dx and -ix; the central
generator is a multiple of the identity whose sign follows the package-wide
``x3_sign`` convention (see ``liecore``).  The group action is available by
two independent routes:

* ``group_action_analytic`` evaluates the phase/modulation/translation
  formula at shifted quadrature nodes and projects back onto the basis;
* ``act_factored`` applies the one-parameter subgroups in coordinates of
  the second kind, each through its cached eigenbasis (``UnitaryGroup``);
  ``action_factored`` assembles the same product as a matrix for the
  callers that need the operator itself.

Each one-parameter group t -> exp(t X_i) has one evaluator,
``evaluators[i - 1]``: the cached ``subgroups`` for X1 and X2 and the
scalar phase for X3.  ``one_parameter``, both factored routes and the
chart integrator all go through them.

Cross-validation of the two routes is one of the package's main checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import liecore
from .errors import AccuracyError, UsageError
from .hermite import (
    QuadratureSpec,
    derivative_matrix,
    evaluate_series,
    gauss_hermite,
    hermite_functions,
    position_matrix,
)
from .liecore import GroupElement, group_inverse, second_kind_coords
from .scale import (
    BoundCheck,
    DiagonalGram,
    GeneratorFamily,
    ScaleChain,
    scale_norm,
    support_bound,
)

UNITARITY_DEFECT_TOL = 1e-6
SUPPORT_RTOL = 1e-8


def effective_support(phi) -> int:
    """Highest mode carrying more than ``SUPPORT_RTOL`` of the vector's norm.

    Action outputs acquire numerically tiny tails across the whole
    truncation; those are harmless to feed back in, so preconditions on
    support use this measure rather than exact zeros.  Mass the
    precondition cannot see is bounded by SUPPORT_RTOL^2 of the squared norm,
    far below the unitarity-defect guard that runs on every action.
    """
    phi = np.asarray(phi)
    cutoff = SUPPORT_RTOL * float(np.linalg.norm(phi))
    nz = np.nonzero(np.abs(phi) > cutoff)[0]
    return int(nz[-1]) if nz.size else 0


@dataclass(frozen=True)
class SchwartzVector:
    """Coefficient vector in the Hermite basis with an explicit support bound."""

    coeffs: np.ndarray
    support_bound: int

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if coeffs.ndim != 1:
            raise UsageError("coefficients must form a 1-d vector")
        if self.support_bound >= coeffs.size:
            raise UsageError("support_bound outside the truncation")
        if np.any(np.abs(coeffs[self.support_bound + 1 :]) > 0):
            raise UsageError("coefficients beyond support_bound must be exactly zero")
        object.__setattr__(self, "coeffs", coeffs)

    @staticmethod
    def from_coeffs(coeffs) -> "SchwartzVector":
        coeffs = np.asarray(coeffs, dtype=complex)
        return SchwartzVector(coeffs, support_bound(coeffs))


def _as_coeffs(phi) -> np.ndarray:
    if isinstance(phi, SchwartzVector):
        return phi.coeffs
    return np.asarray(phi, dtype=complex)


@dataclass(frozen=True, eq=False)
class UnitaryGroup:
    """The one-parameter group t -> exp(-i t H) of a Hermitian matrix H.

    Holds one eigendecomposition H = V diag(w) V^H; both arrays are
    read-only, since every caller shares them.  ``apply`` evaluates
    exp(-i t H) v as V (e^{-i t w} * (V^H v)) in O(N^2 k) for v of shape
    (N,) or (N, k), and is exactly unitary up to rounding for any t.
    """

    w: np.ndarray
    V: np.ndarray

    @staticmethod
    def of(H) -> "UnitaryGroup":
        w, V = np.linalg.eigh(H)
        w.setflags(write=False)
        V.setflags(write=False)
        return UnitaryGroup(w, V)

    def apply(self, t: float, v) -> np.ndarray:
        """exp(-i t H) v without forming the matrix."""
        v = np.asarray(v, dtype=complex)
        phase = np.exp(-1j * t * self.w)
        coeffs = self.V.conj().T @ v
        return self.V @ (phase * coeffs if v.ndim == 1 else phase[:, None] * coeffs)

    def __call__(self, t: float) -> np.ndarray:
        """Dense matrix of exp(-i t H), for callers that need the operator."""
        return (self.V * np.exp(-1j * t * self.w)) @ self.V.conj().T


class HermiteHeisenberg:
    """Truncated generators and group action on N Hermite modes."""

    def __init__(self, N: int, x3_sign: str = "consistent"):
        if N < 4:
            raise UsageError("need at least 4 modes")
        self.N = int(N)
        self.x3_sign = x3_sign
        self.x1 = derivative_matrix(N).astype(complex)
        self.x2 = (-1j) * position_matrix(N).astype(complex)
        self.x3 = liecore.x3_sign_factor(x3_sign) * np.eye(N, dtype=complex)
        self.gens = (self.x1, self.x2, self.x3)
        self.quad = QuadratureSpec.for_dim(N)
        self._tables = {}

    @property
    def scale_family(self) -> GeneratorFamily:
        """Family entering the norm recursion: the two non-central generators.

        Its Gram forms are diagonal: with X1 = (a - a^+)/sqrt(2) and
        X2 = -i (a + a^+)/sqrt(2), X1^* D X1 + X2^* D X2 = a D a^+ + a^+ D a
        for diagonal D, the a D a and a^+ D a^+ terms cancelling exactly.
        """
        return GeneratorFamily(
            dim=self.N,
            gens=(self.x1, self.x2),
            labels=("X1", "X2"),
            interior_bound=self.N - 1,
            gram_form=DiagonalGram,
        )

    def generator(self, x_coeffs) -> np.ndarray:
        """Matrix of the algebra element with the given basis coefficients."""
        a, b, c = (complex(v) for v in x_coeffs)
        return a * self.x1 + b * self.x2 + c * self.x3

    def automorphism(self, g: GroupElement) -> np.ndarray:
        return liecore.automorphism_matrix(g, self.x3_sign)

    def _action_tables(self, node_count: int):
        # per instance, keyed by rule size, so the cache dies with the family
        tables = self._tables.get(node_count)
        if tables is None:
            xs, ws = gauss_hermite(node_count)
            H = hermite_functions(xs, self.N)
            H.setflags(write=False)
            tables = self._tables[node_count] = (xs, ws, H)
        return tables

    def action_analytic(
        self,
        g: GroupElement,
        phi,
        defect_tol: float = UNITARITY_DEFECT_TOL,
    ) -> np.ndarray:
        """Coefficients of x -> exp(-i xi3) exp(-i x xi2) phi(x + xi1).

        The represented function is evaluated at shifted quadrature nodes
        and projected back onto the first N modes.  The action is unitary,
        so any drop in the squared norm measures mass pushed past the
        truncation; a drop above ``defect_tol`` raises ``AccuracyError``.
        """
        phi = _as_coeffs(phi)
        if phi.shape != (self.N,):
            raise UsageError(f"vector must have {self.N} modes, got {phi.shape}")
        sb = effective_support(phi)
        if sb > self.N // 2:
            raise UsageError(
                f"effective support {sb} exceeds N/2 = {self.N // 2}; "
                "translation and modulation would spread past the guard band"
            )
        xs, ws, H = self._action_tables(self.quad.node_count)
        shifted = evaluate_series(phi, xs + g.xi1)
        integrand = np.exp(-1j * g.xi3) * np.exp(-1j * xs * g.xi2) * shifted
        out = H @ (ws * integrand)
        defect = float(np.vdot(phi, phi).real - np.vdot(out, out).real)
        if abs(defect) > defect_tol * max(1.0, float(np.vdot(phi, phi).real)):
            raise AccuracyError(
                f"projection lost {defect:.3e} of the squared norm for g="
                f"({g.xi1:g},{g.xi2:g},{g.xi3:g})",
                residual=defect,
            )
        return out

    @cached_property
    def subgroups(self) -> tuple:
        """exp(t X1) and exp(t X2) as groups of the Hermitian i*X1 and x.

        X1 = -i (i X1) and X2 = -i x, so exp(t X_k) = exp(-i t H_k).
        """
        h1 = 1j * self.x1
        return (
            UnitaryGroup.of(0.5 * (h1 + h1.conj().T)),
            UnitaryGroup.of(position_matrix(self.N)),
        )

    @cached_property
    def evaluators(self) -> tuple:
        """t -> exp(t X_i) for i = 1, 2, 3: the two subgroups and the central phase."""
        s, eye = liecore.x3_sign_factor(self.x3_sign), np.eye(self.N, dtype=complex)
        return (*self.subgroups, lambda t: np.exp(t * s) * eye)

    def one_parameter(self, i: int, t: float) -> np.ndarray:
        """Matrix of exp(t X_i) for a basis generator (i in 1..3)."""
        if i not in (1, 2, 3):
            raise UsageError("generator index must be 1, 2, or 3")
        return self.evaluators[i - 1](t)

    def action_factored(self, g: GroupElement) -> np.ndarray:
        """Matrix of the action as exp(t1 X1) exp(t2 X2) exp(t3 X3)."""
        t1, t2, t3 = second_kind_coords(g)
        U1, U2 = self.subgroups
        return (U1(t1) @ U2(t2)) * np.exp(t3 * liecore.x3_sign_factor(self.x3_sign))

    def act_factored(self, g: GroupElement, phi) -> np.ndarray:
        """exp(t1 X1) exp(t2 X2) exp(t3 X3) phi through the cached subgroups.

        The vector form of ``action_factored(g) @ phi``; ``phi`` may be one
        vector or an (N, k) block of them.
        """
        t1, t2, t3 = second_kind_coords(g)
        U1, U2 = self.subgroups
        out = U1.apply(t1, U2.apply(t2, _as_coeffs(phi)))
        return np.exp(t3 * liecore.x3_sign_factor(self.x3_sign)) * out


def hermite_generators(N: int, x3_sign: str = "consistent") -> HermiteHeisenberg:
    return HermiteHeisenberg(N, x3_sign)


def conjugation_residual(
    fam: HermiteHeisenberg,
    chain: ScaleChain,
    g: GroupElement,
    i: int,
    phi,
    n: int,
) -> float:
    """Level-n residual of T(g) X_i T(g^-1) phi against the conjugation law."""
    phi = _as_coeffs(phi)
    chain.family.require_interior(support_bound(phi), n + 1, what="conjugation check")
    if i not in (1, 2, 3):
        raise UsageError("generator index must be 1, 2, or 3")
    ginv = group_inverse(g)
    lhs = fam.action_analytic(g, fam.gens[i - 1] @ fam.action_analytic(ginv, phi))
    f = fam.automorphism(ginv)
    rhs = sum(f[i - 1, j] * (fam.gens[j] @ phi) for j in range(3))
    return scale_norm(chain, lhs - rhs, n)


def measured_conjugation_offset(
    fam: HermiteHeisenberg, g: GroupElement, i: int, phi
) -> complex:
    """Scalar c with T(g) X_i T(g^-1) phi ~= (X_i + c) phi, measured directly.

    Used to record the sign of the central offset rather than assert it.
    """
    phi = _as_coeffs(phi)
    ginv = group_inverse(g)
    lhs = fam.action_analytic(g, fam.gens[i - 1] @ fam.action_analytic(ginv, phi))
    diff = lhs - fam.gens[i - 1] @ phi
    denom = float(np.vdot(phi, phi).real)
    return complex(np.vdot(phi, diff) / denom)


@dataclass(frozen=True)
class ProbeResult:
    t_values: tuple
    residuals: tuple
    ratios: tuple
    converged: bool


def differentiability_probe(
    fam: HermiteHeisenberg,
    chain: ScaleChain,
    x_coeffs,
    phi,
    n: int,
    t_grid,
) -> ProbeResult:
    """Residuals of the difference quotient (T(exp(t x)) - I)/t phi -> X phi.

    The grid must be decreasing; first-order convergence means consecutive
    residuals shrink roughly like the step ratio.
    """
    phi = _as_coeffs(phi)
    t_grid = [float(t) for t in t_grid]
    if any(t <= 0 for t in t_grid) or any(
        b >= a for a, b in zip(t_grid, t_grid[1:])
    ):
        raise UsageError("t_grid must be positive and strictly decreasing")
    chain.family.require_interior(support_bound(phi), n + 1, what="differentiability probe")
    X = fam.generator(x_coeffs)
    ref = X @ phi
    residuals = []
    for t in t_grid:
        g = liecore.chart_exp(x_coeffs, t)
        diff = (fam.action_analytic(g, phi) - phi) / t - ref
        residuals.append(scale_norm(chain, diff, n))
    ratios = tuple(
        residuals[k] / residuals[k + 1] if residuals[k + 1] > 0 else np.inf
        for k in range(len(residuals) - 1)
    )
    converged = all(
        residuals[k + 1] <= residuals[k] * 1.1 for k in range(len(residuals) - 1)
    )
    return ProbeResult(tuple(t_grid), tuple(residuals), ratios, converged)


def norm_bound_sharp_check(
    fam: HermiteHeisenberg,
    chain: ScaleChain,
    g: GroupElement,
    phi,
    n: int,
    rel_slack: float = 1e-6,
) -> BoundCheck:
    """Check ||T(g) phi||_n <= (1 + xi1^2 + xi2^2)^{n/2} ||phi||_n."""
    phi = _as_coeffs(phi)
    chain.family.require_interior(support_bound(phi), n, what="sharp growth bound")
    lhs = scale_norm(chain, fam.action_analytic(g, phi), n)
    factor = (1.0 + g.xi1**2 + g.xi2**2) ** (n / 2.0)
    bound = factor * scale_norm(chain, phi, n)
    return BoundCheck(lhs, bound, lhs <= bound * (1.0 + rel_slack))
