"""The nilpotent group acting on L^2(R), truncated to a Hermite basis.

Generators d/dx, -ix and the central multiple of the identity, whose sign
follows the package-wide ``x3_sign`` convention (see ``liecore``), are the
(3, N) rows of ``scale``'s row form, applied in O(N) by ``apply_generator``.
The group action is available by two independent routes:

* ``HermiteHeisenberg.action_analytic`` applies the phase/modulation/
  translation formula as the displacement operator it equals, through
  its exact matrix elements (``hermite.displace``);
* ``action_factored`` applies the one-parameter subgroups in coordinates
  of the second kind: it is ``integrator.integrate_chart`` on this family.

Each one-parameter group has one applier, ``evaluators[i - 1]``:
(t, v) -> exp(t X_i) v for one vector or an (N, K) block (its adjoint with
``adjoint=True``), with one time or one per block column, through the
cached ``subgroups`` for X1 and X2 (``UnitaryGroup``: both hold the one
real eigenbasis of x that ``hermite``'s ladder rule builds, X1's in its
Fourier frame) and the scalar phase for X3; no group element is ever
assembled as a matrix, nor a complex copy of that basis.

Cross-validation of the two routes is one of the package's main checks.
The growth of the action along the scale is measured by ``scale.bound_check``
with the factor of the bound being tested; the conjugation law and the
difference-quotient probe on ``DIFF_T_GRID`` are measured here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from . import liecore
from .errors import AccuracyError, UsageError
from .hermite import _ladder_rule, displace, ladder_squares, position_rows
from .hilleyosida import ResolventStacks
from .integrator import integrate_chart
from .liecore import GroupElement, column_coords, group_inverse, require_column_times
from .scale import (
    GeneratorFamily,
    ScaleChain,
    read_only,
    real_product,
    scale_norm,
    support_bound,
    tridiagonal_adjoint,
    tridiagonal_apply,
)

UNITARITY_DEFECT_TOL = 1e-6
SUPPORT_RTOL = 1e-8
DIFF_T_GRID = tuple(1e-2 * 0.5**k for k in range(11))  # 1e-2 halved down to ~1e-5
PHASE_ENTRIES = 2**14  # entries of one node chunk of ``UnitaryGroup.integrate``'s phases


def effective_support(phi):
    """Highest mode carrying more than ``SUPPORT_RTOL`` of the vector's norm.

    Action outputs acquire numerically tiny tails across the whole
    truncation; those are harmless to feed back in, so preconditions on
    support use this measure rather than exact zeros.  Mass the
    precondition cannot see is bounded by SUPPORT_RTOL^2 of the squared norm,
    far below the unitarity-defect guard that runs on every action.  An
    (N, K) block gives the K column supports.
    """
    phi = np.asarray(phi)
    # column norms from the real and imaginary views: no (N, K) complex temporaries
    sq = sum(np.einsum("i...,i...->...", part, part) for part in (phi.real, phi.imag))
    return support_bound(np.abs(phi) > SUPPORT_RTOL * np.sqrt(sq))


@dataclass(frozen=True, eq=False)
class UnitaryGroup:
    """The one-parameter group t -> exp(-i t H) of H = F V diag(w) V^T F^*.

    Holds a real orthogonal eigenbasis V, its eigenvalues w and, for H in a
    unitary diagonal frame F, the diagonal ``frame`` (None for F = I), all
    read-only, since every caller shares them.  ``apply`` evaluates
    exp(-i t H) v as F V (e^{-i t w} * (V^T F^* v)) in O(N^2 k) for v of
    shape (N,) or (N, k), each product by V a ``real_product``, and is
    exactly unitary up to rounding for any t.
    """

    w: np.ndarray
    V: np.ndarray
    frame: np.ndarray = None

    def _spectral(self, v, phases) -> np.ndarray:
        """F V (phases * (V^T F^* v)), phases of shape (N,) or (N, K)."""
        v = np.asarray(v, dtype=complex)
        f = None if self.frame is None else self.frame.reshape((-1,) + (1,) * (v.ndim - 1))
        coeffs = real_product(self.V.T, v if f is None else f.conj() * v)
        out = real_product(self.V, (phases[:, None] if phases.ndim < v.ndim else phases) * coeffs)
        return out if f is None else f * out

    def apply(self, t, v, adjoint: bool = False) -> np.ndarray:
        """exp(-i t H) v without forming the matrix.

        ``v`` is one vector or an (N, K) block; a (K,) array ``t`` gives
        column k its own time t[k] through the phase matrix e^{-i w (x) t}.
        ``adjoint`` applies exp(-i t H)^* instead, with the conjugate phases.
        A time array needs a block with one column per time.
        """
        require_column_times(t, v)
        phase = np.exp(-1j * np.multiply.outer(self.w, t))
        return self._spectral(v, phase.conj() if adjoint else phase)

    def integrate(self, ts, weights, v) -> np.ndarray:
        """sum_q weights[q] exp(-i ts[q] H) v as F V ((sum_q weights[q] e^{-i ts[q] w}) * (V^T F^* v)).

        The phase sums are taken over chunks of at most ``PHASE_ENTRIES`` / N nodes.
        """
        ts, weights = np.asarray(ts), np.asarray(weights, dtype=complex)
        phases = np.zeros(len(self.w), dtype=complex)
        step = max(1, PHASE_ENTRIES // len(self.w))
        for q in range(0, len(ts), step):
            phases += np.exp(-1j * np.outer(self.w, ts[q : q + step])) @ weights[q : q + step]
        return self._spectral(v, phases)


class HermiteHeisenberg:
    """Truncated generators, the (3, N) rows ``x1``, ``x2``, ``x3``, and group action on N modes."""

    def __init__(self, N: int, x3_sign: str = "consistent"):
        if N < 4:
            raise UsageError("need at least 4 modes")
        self.N = int(N)
        self.x3_sign = x3_sign
        x, s = position_rows(self.N), liecore.x3_sign_factor(x3_sign)
        self.x1 = read_only((np.array([-1.0, 0.0, 1.0])[:, None] * x).astype(complex))  # d/dx
        self.x2 = read_only(-1j * x)
        self.x3 = read_only(s * np.outer([0, 1, 0], np.ones(self.N, dtype=complex)))

    @property
    def scale_family(self) -> GeneratorFamily:
        """Family entering the norm recursion: the two non-central generators.

        Its Gram forms are diagonal: with X1 = (a - a^+)/sqrt(2) and
        X2 = -i (a + a^+)/sqrt(2), X1^* D X1 + X2^* D X2 = a D a^+ + a^+ D a
        for diagonal D, the a D a and a^+ D a^+ terms cancelling exactly.
        Its coupling |X1|^2 + |X2|^2 is exact: the off-diagonals 2 (k/2) = k.
        """
        coupling = np.zeros((3, self.N))
        coupling[0, 1:] = coupling[2, :-1] = 2 * ladder_squares(self.N)
        return GeneratorFamily((self.x1, self.x2), read_only(coupling))

    def apply_generator(self, x_coeffs, v, adjoint: bool = False) -> np.ndarray:
        """(sum_i x_i X_i) v, or its adjoint applied to v, for a vector or an (N, K) block."""
        if np.shape(x_coeffs) != (3,):
            raise UsageError("algebra vector must have 3 coefficients")
        X = sum(complex(c) * R for c, R in zip(x_coeffs, (self.x1, self.x2, self.x3)))
        return tridiagonal_apply(tridiagonal_adjoint(X) if adjoint else X, v)

    def automorphism(self, g: GroupElement) -> np.ndarray:
        return liecore.automorphism_matrix(g, self.x3_sign)

    def action_analytic(self, g, phi) -> np.ndarray:
        """Coefficients of x -> exp(-i xi3) exp(-i x xi2) phi(x + xi1).

        By BCH this is e^{-i xi3 + i xi1 xi2 / 2} D(alpha), alpha =
        -(xi1 + i xi2)/sqrt(2), exact up to the truncation to N modes (the
        identity returns ``phi`` bit for bit).  Any drop in the squared norm
        measures mass pushed past the truncation; above
        ``UNITARITY_DEFECT_TOL`` (relative to max(1, ||phi||^2)) it
        raises ``AccuracyError``.  Block form: ``phi`` an (N, K) block and
        ``g`` a block of K elements (or one element for every column) act
        column by column in one pass, both guards per column; a vector is
        K = 1.
        """
        phi = np.asarray(phi, dtype=complex)
        if phi.shape[:1] != (self.N,) or phi.ndim > 2:
            raise UsageError(f"vector must have {self.N} modes, got {phi.shape}")
        block = phi.reshape(self.N, -1)
        xi1, xi2, xi3 = column_coords(g, phi)
        for sb in effective_support(block):
            if sb > self.N // 2:
                raise UsageError(
                    f"effective support {sb} exceeds N/2 = {self.N // 2}; "
                    "translation and modulation would spread past the guard band"
                )
        alpha = -(xi1 + 1j * xi2) / np.sqrt(2.0)
        out = displace(alpha, block) * np.exp(1j * (0.5 * xi1 * xi2 - xi3))
        before = np.einsum("ij,ij->j", block.conj(), block).real
        defects = before - np.einsum("ij,ij->j", out.conj(), out).real
        for k in np.flatnonzero(np.abs(defects) > UNITARITY_DEFECT_TOL * np.maximum(1.0, before)):
            raise AccuracyError(
                f"projection lost {defects[k]:.3e} of the squared norm for g="
                f"({xi1[k]:g},{xi2[k]:g},{xi3[k]:g})",
                residual=float(defects[k]),
            )
        return out.reshape(phi.shape)

    @cached_property
    def frame(self) -> np.ndarray:
        """Diagonal of P^* = diag(1, -i, -1, i, ...), read-only: X1 = P^* X2 P,
        so X1 is X2 in its real Fourier frame."""
        return read_only(np.array([1, -1j, -1, 1j])[np.arange(self.N) % 4])

    @cached_property
    def subgroups(self) -> tuple:
        """exp(t X1) and exp(t X2) as groups of the Hermitian i*X1 and x.

        X1 = -i (i X1) and X2 = -i x, so exp(t X_k) = exp(-i t H_k).  Both
        hold the one real eigenbasis of x, the ladder rule's, built once per N
        per process: since i X1 = P^* x P (``frame``), the group of i X1 is
        (w_x, V_x) in the frame P^*.
        """
        w, _, V = _ladder_rule(self.N, self.N)
        return UnitaryGroup(w, V, self.frame), UnitaryGroup(w, V)

    def x2_resolvents(self, lams) -> ResolventStacks:
        """(lam - X2)^{-1} at the lambdas ``lams`` names, in order of use, eliminated
        in X2's real frame: ``apply`` is X2's resolvent, and ``matrix`` the real
        P^* R P = (lam - X1)^{-1}, with the same entry moduli and level-n norms."""
        return ResolventStacks(self.x1.real, lams, self.frame)

    @cached_property
    def evaluators(self) -> tuple:
        """Appliers (t, v) -> exp(t X_i) v, i = 1, 2, 3: the two subgroups and
        the central phase, each at one time or one per column of an (N, K)
        block; ``adjoint=True`` applies exp(t X_i)^* instead."""
        s = liecore.x3_sign_factor(self.x3_sign)

        def phase(t, v, adjoint=False):
            require_column_times(t, v)
            p = np.exp(t * s)
            return (np.conj(p) if adjoint else p) * np.asarray(v)

        return (*(U.apply for U in self.subgroups), phase)

    def one_parameter(self, i: int, t, v) -> np.ndarray:
        """exp(t X_i) v for a basis generator (i in 1..3), without forming the matrix."""
        if i not in (1, 2, 3):
            raise UsageError("generator index must be 1, 2, or 3")
        return self.evaluators[i - 1](t, v)

    def action_factored(self, g: GroupElement, phi) -> np.ndarray:
        """exp(t1 X1) exp(t2 X2) exp(t3 X3) phi: the chart integrator on this family."""
        return integrate_chart(self, g, phi)


def hermite_generators(N: int, x3_sign: str = "consistent") -> HermiteHeisenberg:
    return HermiteHeisenberg(N, x3_sign)


def conjugation_residual(
    fam: HermiteHeisenberg,
    chain: ScaleChain,
    g: GroupElement,
    i,
    phi,
    n: int,
):
    """Level-n residual of T(g) X_i T(g^-1) phi against the conjugation law.

    Block form: an (N, K) block with a block of K group elements and K
    generator indices (or one of either for every column) gives the K
    column residuals.
    """
    phi = np.asarray(phi, dtype=complex)
    chain.family.require_interior(int(np.max(support_bound(phi))), n + 1, what="conjugation check")
    block = phi if phi.ndim == 2 else phi[:, None]
    K = block.shape[1]
    idx = np.broadcast_to(np.asarray(i), K)
    if not np.isin(idx, (1, 2, 3)).all():
        raise UsageError("generator index must be 1, 2, or 3")
    ginv = group_inverse(g)
    inner = fam.action_analytic(ginv, block)
    for j in (1, 2, 3):
        inner[:, idx == j] = fam.apply_generator(np.eye(3)[j - 1], inner[:, idx == j])
    lhs = fam.action_analytic(g, inner)
    f = np.broadcast_to(fam.automorphism(ginv), (K, 3, 3))[np.arange(K), idx - 1]
    rhs = sum(f[:, j] * fam.apply_generator(np.eye(3)[j], block) for j in range(3))
    residuals = scale_norm(chain, lhs - rhs, n)
    return residuals if phi.ndim == 2 else residuals[0]


def measured_conjugation_offset(
    fam: HermiteHeisenberg, g: GroupElement, i: int, phi
) -> complex:
    """Scalar c with T(g) X_i T(g^-1) phi ~= (X_i + c) phi, measured directly.

    Used to record the sign of the central offset rather than assert it.
    """
    phi = np.asarray(phi, dtype=complex)
    ginv = group_inverse(g)
    X = partial(fam.apply_generator, np.eye(3)[i - 1])
    lhs = fam.action_analytic(g, X(fam.action_analytic(ginv, phi)))
    diff = lhs - X(phi)
    denom = float(np.vdot(phi, phi).real)
    return complex(np.vdot(phi, diff) / denom)


@dataclass(frozen=True)
class ProbeResult:
    residuals: tuple
    ratios: tuple
    converged: bool


def differentiability_probe(
    fam: HermiteHeisenberg,
    chain: ScaleChain,
    x_coeffs,
    phi,
    n: int,
) -> ProbeResult:
    """Residuals of the difference quotient (T(exp(t x)) - I)/t phi -> X phi on ``DIFF_T_GRID``.

    First-order convergence means consecutive residuals shrink roughly like
    the step ratio, 2 on the halving grid.
    """
    phi = np.asarray(phi, dtype=complex)
    chain.family.require_interior(support_bound(phi), n + 1, what="differentiability probe")
    ref = fam.apply_generator(x_coeffs, phi)
    # every step acts on phi at once: one block of len(DIFF_T_GRID) columns
    t = np.array(DIFF_T_GRID)
    steps = liecore.chart_exp(x_coeffs, t)
    images = fam.action_analytic(steps, np.repeat(phi[:, None], len(t), axis=1))
    diffs = (images - phi[:, None]) / t - ref[:, None]
    residuals = scale_norm(chain, diffs, n).tolist()
    ratios = tuple(
        residuals[k] / residuals[k + 1] if residuals[k + 1] > 0 else np.inf
        for k in range(len(residuals) - 1)
    )
    converged = all(
        residuals[k + 1] <= residuals[k] * 1.1 for k in range(len(residuals) - 1)
    )
    return ProbeResult(tuple(residuals), ratios, converged)
