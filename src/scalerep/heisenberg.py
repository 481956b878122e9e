"""The nilpotent group acting on L^2(R), truncated to a Hermite basis.

Generators are the exact tridiagonal matrices of d/dx and -ix; the central
generator is a multiple of the identity whose sign follows the package-wide
``x3_sign`` convention (see ``liecore``).  The group action is available by
two independent routes:

* ``HermiteHeisenberg.action_analytic`` applies the phase/modulation/
  translation formula as the displacement operator it equals, through
  its exact matrix elements (``hermite.displace``);
* ``act_factored`` applies the one-parameter subgroups in coordinates of
  the second kind, each through its cached eigenbasis (``UnitaryGroup``).

Each one-parameter group has one applier, ``evaluators[i - 1]``:
(t, v) -> exp(t X_i) v for one vector or an (N, K) block (its adjoint with
``adjoint=True``), through the cached ``subgroups`` for X1 and X2 and the
scalar phase for X3.  The factored route and the chart integrator both go
through them; no group element is ever assembled as a matrix.

Cross-validation of the two routes is one of the package's main checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import liecore
from .errors import AccuracyError, UsageError
from .hermite import derivative_matrix, displace, position_matrix
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
    if phi.ndim == 2:
        return np.array([effective_support(col) for col in phi.T], dtype=int)
    cutoff = SUPPORT_RTOL * float(np.linalg.norm(phi))
    nz = np.nonzero(np.abs(phi) > cutoff)[0]
    return int(nz[-1]) if nz.size else 0


def _group_columns(g, phi) -> list:
    """One group element per column of ``phi``.

    A single element serves a vector or every column of a block; otherwise
    ``g`` is a sequence of one element per column of an (N, K) block, or a
    block element whose coordinates have shape (K,).
    """
    if isinstance(g, GroupElement) and np.ndim(g.xi3) == 0:
        return [g] * (np.shape(phi)[1] if np.ndim(phi) == 2 else 1)
    gs = list(g.unstack() if isinstance(g, GroupElement) else g)
    if np.ndim(phi) != 2 or len(gs) != np.shape(phi)[1]:
        raise UsageError(
            f"need one group element per block column: {len(gs)} for shape {np.shape(phi)}"
        )
    return gs


def _chart_coords(g, phi):
    """(xi1, xi2, xi3) of the element acting on each column of ``phi``.

    Three floats for a vector, three (K,) arrays for an (N, K) block.
    """
    coords = np.array([(e.xi1, e.xi2, e.xi3) for e in _group_columns(g, phi)]).T
    return coords if np.ndim(phi) == 2 else coords[:, 0]


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

    def apply(self, t, v, adjoint: bool = False) -> np.ndarray:
        """exp(-i t H) v without forming the matrix.

        ``v`` is one vector or an (N, K) block; a (K,) array ``t`` gives
        column k its own time t[k] through the phase matrix e^{-i w (x) t}.
        ``adjoint`` applies exp(-i t H)^* instead, as V (conj(e^{-i t w}) *
        (V^H v)).
        """
        v = np.asarray(v, dtype=complex)
        phase = np.exp(-1j * np.multiply.outer(self.w, t))
        phase = phase.conj() if adjoint else phase
        coeffs = self.V.conj().T @ v
        return self.V @ (phase[:, None] * coeffs if phase.ndim < v.ndim else phase * coeffs)

    def integrate(self, ts, weights, v) -> np.ndarray:
        """sum_q weights[q] exp(-i ts[q] H) v as V ((sum_q weights[q] e^{-i ts[q] w}) * (V^H v))."""
        phases = np.exp(-1j * np.outer(self.w, ts)) @ np.asarray(weights, dtype=complex)
        return self.V @ (phases * (self.V.conj().T @ np.asarray(v, dtype=complex)))


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

    def action_analytic(
        self,
        g,
        phi,
        defect_tol: float = UNITARITY_DEFECT_TOL,
    ) -> np.ndarray:
        """Coefficients of x -> exp(-i xi3) exp(-i x xi2) phi(x + xi1).

        By BCH this is e^{-i xi3 + i xi1 xi2 / 2} D(alpha), alpha =
        -(xi1 + i xi2)/sqrt(2), exact up to the truncation to N modes (the
        identity returns ``phi`` bit for bit).  Any drop in the squared norm
        measures mass pushed past the truncation; above ``defect_tol`` it
        raises ``AccuracyError``.  Block form: ``phi`` an (N, K) block and
        ``g`` K group elements (or one for every column) act column by
        column in one pass, both guards per column; a vector is K = 1.
        """
        phi = np.asarray(phi, dtype=complex)
        if phi.shape[:1] != (self.N,) or phi.ndim > 2:
            raise UsageError(f"vector must have {self.N} modes, got {phi.shape}")
        block = phi.reshape(self.N, -1)
        xi1, xi2, xi3 = _chart_coords(g, block)
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
        for k in np.flatnonzero(np.abs(defects) > defect_tol * np.maximum(1.0, before)):
            raise AccuracyError(
                f"projection lost {defects[k]:.3e} of the squared norm for g="
                f"({xi1[k]:g},{xi2[k]:g},{xi3[k]:g})",
                residual=float(defects[k]),
            )
        return out.reshape(phi.shape)

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
        """Appliers (t, v) -> exp(t X_i) v, i = 1, 2, 3: the two subgroups and
        the central phase; ``adjoint=True`` applies exp(t X_i)^* instead."""
        s = liecore.x3_sign_factor(self.x3_sign)

        def phase(t, v, adjoint=False):
            p = np.exp(t * s)
            return (np.conj(p) if adjoint else p) * np.asarray(v)

        return (*(U.apply for U in self.subgroups), phase)

    def one_parameter(self, i: int, t, v) -> np.ndarray:
        """exp(t X_i) v for a basis generator (i in 1..3), without forming the matrix."""
        if i not in (1, 2, 3):
            raise UsageError("generator index must be 1, 2, or 3")
        return self.evaluators[i - 1](t, v)

    def act_factored(self, g, phi) -> np.ndarray:
        """exp(t1 X1) exp(t2 X2) exp(t3 X3) phi through the cached subgroups.

        ``phi`` may be one vector or an (N, K) block of them.  For a block,
        ``g`` may also be a sequence of K group elements, giving each column
        its own (t1, t2, t3).
        """
        if isinstance(g, GroupElement):
            t1, t2, t3 = second_kind_coords(g)
        else:
            t1, t2, t3 = np.array([second_kind_coords(e) for e in _group_columns(g, phi)]).T
        U1, U2 = self.subgroups
        out = U1.apply(t1, U2.apply(t2, phi))
        return np.exp(t3 * liecore.x3_sign_factor(self.x3_sign)) * out

    # the former name of this route, under which bench/layertrace.py reports it
    action_factored = act_factored


def hermite_generators(N: int, x3_sign: str = "consistent") -> HermiteHeisenberg:
    return HermiteHeisenberg(N, x3_sign)


def conjugation_residual(
    fam: HermiteHeisenberg,
    chain: ScaleChain,
    g,
    i,
    phi,
    n: int,
):
    """Level-n residual of T(g) X_i T(g^-1) phi against the conjugation law.

    Block form: an (N, K) block with a sequence of K group elements and K
    generator indices (or one of either for every column) gives the K
    column residuals.
    """
    phi = np.asarray(phi, dtype=complex)
    chain.family.require_interior(int(np.max(support_bound(phi))), n + 1, what="conjugation check")
    block = phi if phi.ndim == 2 else phi[:, None]
    gs = _group_columns(g, block)
    idx = np.broadcast_to(np.asarray(i), len(gs))
    if not np.isin(idx, (1, 2, 3)).all():
        raise UsageError("generator index must be 1, 2, or 3")
    ginv = [group_inverse(e) for e in gs]
    inner = fam.action_analytic(ginv, block)
    for j in (1, 2, 3):
        inner[:, idx == j] = fam.gens[j - 1] @ inner[:, idx == j]
    lhs = fam.action_analytic(gs, inner)
    f = np.array([fam.automorphism(e)[k - 1] for e, k in zip(ginv, idx)])
    rhs = sum(f[:, j] * (fam.gens[j] @ block) for j in range(3))
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
    phi = np.asarray(phi, dtype=complex)
    t_grid = [float(t) for t in t_grid]
    if any(t <= 0 for t in t_grid) or any(
        b >= a for a, b in zip(t_grid, t_grid[1:])
    ):
        raise UsageError("t_grid must be positive and strictly decreasing")
    chain.family.require_interior(support_bound(phi), n + 1, what="differentiability probe")
    X = fam.generator(x_coeffs)
    ref = X @ phi
    # every step acts on phi at once: one block of len(t_grid) columns
    gs = [liecore.chart_exp(x_coeffs, t) for t in t_grid]
    images = fam.action_analytic(gs, np.repeat(phi[:, None], len(gs), axis=1))
    diffs = (images - phi[:, None]) / np.array(t_grid) - ref[:, None]
    residuals = scale_norm(chain, diffs, n).tolist()
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
    g,
    phi,
    n: int,
    rel_slack: float = 1e-6,
) -> BoundCheck:
    """Check ||T(g) phi||_n <= (1 + xi1^2 + xi2^2)^{n/2} ||phi||_n.

    Block form: an (N, K) block with a sequence of K group elements gives
    K-long ``lhs``, ``bound`` and ``passed``.
    """
    phi = np.asarray(phi, dtype=complex)
    chain.family.require_interior(int(np.max(support_bound(phi))), n, what="sharp growth bound")
    lhs = scale_norm(chain, fam.action_analytic(g, phi), n)
    xi1, xi2, _ = _chart_coords(g, phi)
    factor = (1.0 + xi1**2 + xi2**2) ** (n / 2.0)
    bound = factor * scale_norm(chain, phi, n)
    return BoundCheck(lhs, bound, lhs <= bound * (1.0 + rel_slack))
