"""Finite-dimensional Lie algebra and group-chart machinery.

Everything here is exact polynomial arithmetic on small arrays: structure
constants and brackets, the nilpotent group law on R^3, coordinates of the
second kind, the conjugation (automorphism) matrices, and the ad-series for
inner automorphisms of operator families.

Blocks of group elements
------------------------
A ``GroupElement`` whose three coordinates are arrays of one shape is a
block of that many elements.  The group law, the second-kind maps, the
conjugation matrices and the residuals below act on it element by element
in one pass: a residual returns one value per element (a float for a
single element), ``automorphism_matrix`` a (..., 3, 3) stack.  Every value
is bit for bit the one the single-element call gives.

Sign conventions
----------------
Two conventions for the central generator are supported throughout the
package and are selected by the string flag ``x3_sign``:

``"consistent"``
    The central generator acts as ``-i I``, the sign obtained by
    differentiating the defining group action.  Under this choice the
    conjugation matrices below are exactly the adjoint representation of
    the group, and the first-order expansion in ``auto_expansion_residual``
    holds.

``"paper"``
    The alternate published sign ``+i I``.  The conjugation matrices are
    still a matrix representation of the group and still satisfy the
    structure-constant compatibility identity, but they are no longer the
    adjoint representation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, UsageError

X3_SIGN_CHOICES = ("consistent", "paper")
AD_SERIES_TOL = 1e-14       # max-entry size of the first term ad_series drops
AD_SERIES_MAX_TERMS = 64    # terms ad_series sums before it raises


def _check_x3_sign(x3_sign: str) -> str:
    if x3_sign not in X3_SIGN_CHOICES:
        raise UsageError(f"x3_sign must be one of {X3_SIGN_CHOICES}, got {x3_sign!r}")
    return x3_sign


def x3_sign_factor(x3_sign: str) -> complex:
    """Scalar by which the central generator multiplies the identity."""
    _check_x3_sign(x3_sign)
    return -1j if x3_sign == "consistent" else 1j


@dataclass(frozen=True)
class StructureConstants:
    """Structure tensor c[i, j, k] meaning [x_i, x_j] = sum_k c[i, j, k] x_k."""

    c: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if c.ndim != 3 or len(set(c.shape)) != 1:
            raise UsageError(f"structure tensor must be d x d x d, got shape {c.shape}")
        object.__setattr__(self, "c", c)

    @property
    def dim(self) -> int:
        return self.c.shape[0]

    def antisymmetry_residual(self) -> float:
        return float(np.max(np.abs(self.c + np.swapaxes(self.c, 0, 1))))

    def jacobi_residual(self) -> float:
        c = self.c
        # sum_m c[i,j,m] c[m,k,l] + cyclic in (i,j,k)
        t = np.einsum("ijm,mkl->ijkl", c, c)
        total = t + np.einsum("ijkl->jkil", t) + np.einsum("ijkl->kijl", t)
        return float(np.max(np.abs(total)))


def heisenberg_constants() -> StructureConstants:
    """The three-dimensional algebra with [x1, x2] = x3 and x3 central."""
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0
    c[1, 0, 2] = -1.0
    return StructureConstants(c)


def bracket(sc: StructureConstants, a, b) -> np.ndarray:
    """Bracket of two algebra vectors in the basis the constants refer to.

    Blocks of vectors along the leading axes give one bracket per pair.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[-1:] != (sc.dim,) or b.shape[-1:] != (sc.dim,):
        raise UsageError(
            f"algebra vectors must have dimension {sc.dim}, got {a.shape} and {b.shape}"
        )
    return np.einsum("...i,...j,ijk->...k", a, b, sc.c)


def _max_abs(values, axes) -> float | np.ndarray:
    """Largest |entry| over ``axes``: a float, or one per element of a block."""
    worst = np.max(np.abs(values), axis=axes)
    return float(worst) if np.ndim(worst) == 0 else worst


@dataclass(frozen=True)
class GroupElement:
    """Chart coordinates of the nilpotent group on R^3.

    Coordinates that are arrays of one shape make a block of elements.
    """

    xi1: float = 0.0
    xi2: float = 0.0
    xi3: float = 0.0

    def as_array(self) -> np.ndarray:
        """The coordinates along the last axis: (3,), or (..., 3) for a block."""
        return np.stack([self.xi1, self.xi2, self.xi3], axis=-1)

    def unstack(self) -> tuple:
        """The blocks along the last axis of a block, e.g. g, h, k of a (K, 3) block of triples."""
        coords = (np.moveaxis(np.asarray(x), -1, 0) for x in (self.xi1, self.xi2, self.xi3))
        return tuple(GroupElement(*c) for c in zip(*coords))

    @staticmethod
    def stack(elements) -> "GroupElement":
        """The block of ``elements`` along a new last axis, which ``unstack`` splits again."""
        return GroupElement(*np.moveaxis(np.stack([e.as_array() for e in elements], -2), -1, 0))


IDENTITY = GroupElement(0.0, 0.0, 0.0)


def column_coords(g: GroupElement, phi) -> np.ndarray:
    """(3, K) chart coordinates of the elements acting on the K columns of ``phi``.

    One element acts on a vector (K = 1) or on every column of an (N, K)
    block; a block element of K elements gives each column its own.
    """
    phi = np.asarray(phi)
    K = phi.shape[1] if phi.ndim == 2 else 1
    coords = g.as_array()
    if coords.ndim > 1 and (phi.ndim != 2 or coords.shape != (K, 3)):
        raise UsageError(
            f"need one group element per block column: {coords.shape[:-1]} for shape {phi.shape}"
        )
    return np.broadcast_to(coords, (K, 3)).T


def require_column_times(t, v) -> None:
    """Refuse a time array unless ``v`` is an (N, K) block with one column per time."""
    if np.ndim(t) and (np.ndim(v) != 2 or np.shape(t) != np.shape(v)[1:]):
        raise UsageError(f"times of shape {np.shape(t)} need an (N, K) block, got {np.shape(v)}")


def group_multiply(g: GroupElement, h: GroupElement) -> GroupElement:
    return GroupElement(
        g.xi1 + h.xi1,
        g.xi2 + h.xi2,
        g.xi3 + h.xi3 + g.xi1 * h.xi2,
    )


def group_inverse(g: GroupElement) -> GroupElement:
    return GroupElement(-g.xi1, -g.xi2, -g.xi3 + g.xi1 * g.xi2)


def chart_distance(g: GroupElement, h: GroupElement) -> float | np.ndarray:
    """Largest coordinate gap between g and h in the chart."""
    return _max_abs(g.as_array() - h.as_array(), -1)


def associativity_residual(
    g: GroupElement, h: GroupElement, k: GroupElement
) -> float | np.ndarray:
    lhs = group_multiply(group_multiply(g, h), k)
    rhs = group_multiply(g, group_multiply(h, k))
    return chart_distance(lhs, rhs)


def chart_exp(x, t: float = 1.0) -> GroupElement:
    """Exponential of the algebra vector ``x = (a, b, c)`` into the chart.

    The associative square of (a, b, c) is (0, 0, ab), so the series stops
    after the quadratic term: exp(t x) = (ta, tb, tc + t^2 ab / 2).  A
    (..., 3) block of vectors, with ``t`` one value or one per vector,
    gives a block of elements.
    """
    if np.shape(x)[-1:] != (3,):
        raise UsageError("algebra vector must have 3 coefficients")
    a, b, c = np.moveaxis(np.asarray(x, dtype=float), -1, 0)
    return GroupElement(t * a, t * b, t * c + 0.5 * t * t * a * b)


def second_kind_coords(g: GroupElement) -> tuple[float, float, float]:
    """Coordinates (t1, t2, t3) with g = exp(t1 x1) exp(t2 x2) exp(t3 x3)."""
    return (g.xi1, g.xi2, g.xi3 - g.xi1 * g.xi2)


def second_kind_compose(t1: float, t2: float, t3: float) -> GroupElement:
    """Multiply the three one-parameter factors back together in the chart."""
    g = group_multiply(chart_exp((1, 0, 0), t1), chart_exp((0, 1, 0), t2))
    return group_multiply(g, chart_exp((0, 0, 1), t3))


def automorphism_matrix(g: GroupElement, x3_sign: str = "consistent") -> np.ndarray:
    """Conjugation-law matrix f with T(g) X_i T(g)^-1 = sum_j f_ij(g^-1) X_j.

    Identity off the third column; f[0, 2] and f[1, 2] are populated from
    the chart coordinates.  Under ``"consistent"`` this is the adjoint
    representation of the group; under ``"paper"`` the (1, 2) entry flips
    sign.  Both choices are matrix representations of the group.
    """
    _check_x3_sign(x3_sign)
    f = np.tile(np.eye(3), (*np.broadcast_shapes(np.shape(g.xi1), np.shape(g.xi2)), 1, 1))
    f[..., 0, 2] = g.xi2
    f[..., 1, 2] = -g.xi1 if x3_sign == "consistent" else g.xi1
    return f


def automorphism_homomorphism_residual(
    g: GroupElement, h: GroupElement, x3_sign: str = "consistent"
) -> float | np.ndarray:
    fg = automorphism_matrix(g, x3_sign)
    fh = automorphism_matrix(h, x3_sign)
    fgh = automorphism_matrix(group_multiply(g, h), x3_sign)
    return _max_abs(fg @ fh - fgh, (-2, -1))


def automorphism_identity_residual(
    sc: StructureConstants, g: GroupElement, x3_sign: str = "consistent"
) -> float | np.ndarray:
    """Residual of the compatibility identity between f and the constants.

    max over (i, j, l) of
    | sum_k c[i,j,k] f[k,l](g^-1) - sum_{m,n} c[m,n,l] f[i,m](g^-1) f[j,n](g^-1) |
    """
    if sc.dim != 3:
        raise UsageError("the chart automorphism is defined for the 3-dimensional algebra")
    f = automorphism_matrix(group_inverse(g), x3_sign)
    lhs = np.einsum("ijk,...kl->...ijl", sc.c, f)
    rhs = np.einsum("mnl,...im,...jn->...ijl", sc.c, f, f)
    return _max_abs(lhs - rhs, (-3, -2, -1))


def auto_expansion_residual(sc: StructureConstants, k: int, t: float) -> float:
    """Residual of f(exp(-t x_k)) - (I + t C_k) with (C_k)_ij = c[k, i, j].

    First-order expansion of the adjoint representation along the k-th
    one-parameter subgroup; the residual is O(t^2) (identically zero for
    this nilpotent chart) under the consistent convention.
    """
    basis = np.zeros(3)
    basis[k] = 1.0
    f = automorphism_matrix(chart_exp(basis, -t))
    ck = sc.c[k]
    return float(np.max(np.abs(f - (np.eye(3) + t * ck))))


def ad_series(X: np.ndarray, Y: np.ndarray, t: float) -> np.ndarray:
    """Partial sum of sum_n (t^n / n!) ad(X)^n Y, with a dual stopping rule.

    Stops when the next term's max-entry magnitude drops below
    ``AD_SERIES_TOL``; raises ``ConvergenceError`` if ``AD_SERIES_MAX_TERMS``
    is reached first.  All in-scope instances are nilpotent or rapidly
    convergent, so the cap converts silent divergence into a reported failure.
    """
    X = np.asarray(X, dtype=complex)
    Y = np.asarray(Y, dtype=complex)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise UsageError(f"X must be square, got shape {X.shape}")
    if Y.shape != X.shape:
        raise UsageError(f"X and Y shapes differ: {X.shape} vs {Y.shape}")

    total = Y.copy()
    term = Y
    for n in range(1, AD_SERIES_MAX_TERMS + 1):
        term = (t / n) * (X @ term - term @ X)
        size = float(np.max(np.abs(term))) if term.size else 0.0
        if size < AD_SERIES_TOL:
            return total
        total = total + term
    raise ConvergenceError(
        f"ad series did not meet tol={AD_SERIES_TOL} within {AD_SERIES_MAX_TERMS} terms",
        last_term=size,
    )
