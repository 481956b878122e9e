"""Nested Hilbert-space scale built from a generator family.

The Gram form of level n+1 is produced from level n by

    G_{n+1} = sum_i X_i^* G_n X_i + G_n,        G_0 = I,

so ``phi^* G_n phi`` is the squared level-n norm.  Increments are positive
semidefinite by construction, which makes the norm chain monotone without
any analysis.  Gram forms are materialized densely: at desk-scale
truncations (a few hundred modes) this keeps every check exact linear
algebra.

Guard bands
-----------
A truncated generator is faithful to its untruncated counterpart only on
the leading ``interior_bound`` basis modes, and every application can
populate one extra mode band.  A check at scale depth n therefore demands
its test vector be supported in the first ``interior_bound - d * n`` modes
(d = number of generators).  Building a chain to depth ``n_max`` requires
at least one usable interior mode at that depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import UsageError

HERMITICITY_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-12
MONOTONE_SLACK = 1e-12


def support_bound(phi) -> int:
    """Index of the highest nonzero coefficient (0 for the zero vector)."""
    phi = np.asarray(phi)
    nz = np.nonzero(np.abs(phi) > 0)[0]
    return int(nz[-1]) if nz.size else 0


@dataclass(frozen=True)
class GeneratorFamily:
    """Ordered truncated generators acting on a common N-dimensional space.

    ``band_growth`` is the number of extra basis modes one generator
    application can populate: 1 for the tridiagonal Hermite matrices,
    0 for block-diagonal operators that are exact at every truncation.
    """

    dim: int
    gens: tuple
    labels: tuple
    interior_bound: int
    band_growth: int = 1

    def __post_init__(self):
        gens = tuple(np.asarray(g, dtype=complex) for g in self.gens)
        for lab, g in zip(self.labels, gens):
            if g.shape != (self.dim, self.dim):
                raise UsageError(
                    f"generator {lab} has shape {g.shape}, expected ({self.dim}, {self.dim})"
                )
        if len(gens) != len(self.labels):
            raise UsageError("labels and generators must pair up")
        if not (0 < self.interior_bound <= self.dim):
            raise UsageError(
                f"interior_bound must lie in 1..{self.dim}, got {self.interior_bound}"
            )
        if self.band_growth < 0:
            raise UsageError("band_growth must be >= 0")
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def d(self) -> int:
        return len(self.gens)

    def max_safe_depth(self) -> int:
        """Largest scale depth that leaves at least one interior mode."""
        if self.band_growth == 0:
            return 2**30
        return (self.interior_bound - 1) // (self.d * self.band_growth)

    def interior_modes(self, depth: int) -> int:
        """Number of leading modes a depth-n check may use."""
        return self.interior_bound - self.d * self.band_growth * depth

    def require_interior(self, support_bound: int, depth: int, what: str = "check"):
        """Usage error unless modes 0..support_bound survive ``depth`` applications."""
        modes = self.interior_modes(depth)
        if support_bound + 1 > modes:
            raise UsageError(
                f"{what} at depth {depth} needs support in the first {modes} modes "
                f"(support_bound {support_bound} uses {support_bound + 1})"
            )


def recombined_family(family: GeneratorFamily, O: np.ndarray) -> GeneratorFamily:
    """Family with generators replaced by the recombination sum_j O[i, j] X_j."""
    O = np.asarray(O, dtype=float)
    d = family.d
    if O.shape != (d, d):
        raise UsageError(f"recombination matrix must be {d} x {d}, got {O.shape}")
    gens = tuple(
        sum(O[i, j] * family.gens[j] for j in range(d)) for i in range(d)
    )
    labels = tuple(f"mix{i}" for i in range(d))
    return GeneratorFamily(
        family.dim, gens, labels, family.interior_bound, family.band_growth
    )


@dataclass(frozen=True)
class ScaleChain:
    """Gram forms G_0 .. G_nmax of the nested scale, plus their family."""

    grams: tuple
    family: GeneratorFamily

    @property
    def n_max(self) -> int:
        return len(self.grams) - 1

    def gram(self, n: int) -> np.ndarray:
        if not (0 <= n <= self.n_max):
            raise UsageError(f"scale level {n} outside 0..{self.n_max}")
        return self.grams[n]

    def hermiticity_residual(self) -> float:
        return max(
            float(np.max(np.abs(G - G.conj().T))) for G in self.grams
        )

    def increment_eigenvalue_floor(self) -> float:
        """Smallest eigenvalue over all increments G_{n+1} - G_n."""
        floors = []
        for n in range(self.n_max):
            diff = self.grams[n + 1] - self.grams[n]
            floors.append(float(np.min(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T)))))
        return min(floors) if floors else 0.0


def build_scale_chain(family: GeneratorFamily, n_max: int) -> ScaleChain:
    """Run the Gram recursion up to level ``n_max``."""
    if n_max < 0:
        raise UsageError("n_max must be >= 0")
    if n_max > family.max_safe_depth():
        raise UsageError(
            f"depth {n_max} exhausts the guard band; "
            f"maximal safe n_max for this family is {family.max_safe_depth()}"
        )
    N = family.dim
    grams = [np.eye(N, dtype=complex)]
    for _ in range(n_max):
        G = grams[-1]
        nxt = G.copy()
        for X in family.gens:
            nxt = nxt + X.conj().T @ G @ X
        nxt = 0.5 * (nxt + nxt.conj().T)
        grams.append(nxt)
    return ScaleChain(tuple(grams), family)


def scale_norm(chain: ScaleChain, phi, n: int) -> float:
    """Level-n norm sqrt(phi^* G_n phi); level 0 is the Euclidean norm."""
    phi = np.asarray(phi, dtype=complex)
    G = chain.gram(n)
    if phi.shape != (chain.family.dim,):
        raise UsageError(
            f"vector has shape {phi.shape}, expected ({chain.family.dim},)"
        )
    val = float(np.real(np.vdot(phi, G @ phi)))
    return np.sqrt(max(val, 0.0))


@dataclass(frozen=True)
class MonotonicityResult:
    lhs: float          # ||phi||_n
    rhs: float          # ||phi||_{n+1}
    generator_lhs: tuple  # ||X_i phi||_n per generator
    passed: bool


def monotonicity_check(chain: ScaleChain, phi, n: int) -> MonotonicityResult:
    """Verify ||phi||_n <= ||phi||_{n+1} and ||X_i phi||_n <= ||phi||_{n+1}."""
    if n + 1 > chain.n_max:
        raise UsageError(f"monotonicity at level {n} needs the chain built to {n + 1}")
    phi = np.asarray(phi, dtype=complex)
    lo = scale_norm(chain, phi, n)
    hi = scale_norm(chain, phi, n + 1)
    slack = MONOTONE_SLACK * max(1.0, hi)
    gen_norms = tuple(scale_norm(chain, X @ phi, n) for X in chain.family.gens)
    ok = lo <= hi + slack and all(gn <= hi + slack for gn in gen_norms)
    return MonotonicityResult(lo, hi, gen_norms, ok)


@dataclass(frozen=True)
class BoundCheck:
    lhs: float
    bound: float
    passed: bool

    @property
    def ratio(self) -> float:
        return self.lhs / self.bound if self.bound > 0 else np.inf


def group_bound_check(
    chain: ScaleChain,
    Tg: np.ndarray,
    omega: float,
    f_matrix: np.ndarray,
    n: int,
    phi,
    rel_slack: float = 1e-6,
) -> BoundCheck:
    """Check ||Tg phi||_n <= omega (1 + sum |f_ij|)^n ||phi||_n.

    ``omega`` is the caller's ambient-space continuity constant (1 for
    unitary actions); ``f_matrix`` is the conjugation-law matrix of the
    group element being tested.
    """
    phi = np.asarray(phi, dtype=complex)
    chain.family.require_interior(support_bound(phi), n, what="group bound")
    lhs = scale_norm(chain, np.asarray(Tg, dtype=complex) @ phi, n)
    factor = (1.0 + float(np.sum(np.abs(f_matrix)))) ** n
    bound = float(omega) * factor * scale_norm(chain, phi, n)
    return BoundCheck(lhs, bound, lhs <= bound * (1.0 + rel_slack))


def scale_operator_norm(
    chain: ScaleChain,
    A: np.ndarray,
    n: int,
    interior_modes: int | None = None,
) -> float:
    """Operator norm of A with respect to the level-n norm.

    With ``interior_modes`` set, the supremum runs over inputs supported in
    that many leading modes (the output is still measured in full), which
    keeps the estimate honest where truncation contaminates the band edge.
    """
    G = chain.gram(n)
    A = np.asarray(A, dtype=complex)
    L = scipy.linalg.cholesky(G + 0.0j, lower=True)
    if interior_modes is None:
        # sigma_max of L^H A L^{-H}
        M = L.conj().T @ A @ np.linalg.inv(L.conj().T)
        return float(np.linalg.norm(M, 2))
    k = int(interior_modes)
    if not (0 < k <= chain.family.dim):
        raise UsageError(f"interior_modes must lie in 1..{chain.family.dim}")
    Gk = G[:k, :k]
    Lk = scipy.linalg.cholesky(Gk + 0.0j, lower=True)
    # sup over phi in the leading-k subspace of ||A phi||_n / ||phi||_n
    M = L.conj().T @ A[:, :k] @ np.linalg.inv(Lk.conj().T)
    return float(np.linalg.norm(M, 2))
