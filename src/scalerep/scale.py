"""Nested Hilbert-space scale built from a generator family.

The Gram form of level n+1 is produced from level n by

    G_{n+1} = sum_i X_i^* G_n X_i + G_n,        G_0 = I,

so ``phi^* G_n phi`` is the squared level-n norm.  Increments are positive
semidefinite by construction, which makes the norm chain monotone without
any analysis.

Gram forms
----------
A family declares the structure its Gram forms keep, and the chain stores
every level in that structure alone:

* ``DiagonalGram`` holds the weights w of G = diag(w), for families whose
  recursion maps diagonal forms to diagonal forms (the Hermite pair, whose
  off-diagonal terms cancel exactly, and the block model, each of whose
  generators has one nonzero entry per block):
  w_{n+1}(k) = w_n(k) + sum_i sum_j |X_i[j, k]|^2 w_n(j),
  with the coupling sum_i |X_i|^2 taken from the family in its own
  structure (tridiagonal rows, or a stack of diagonal blocks);
* ``BandedGram`` holds the 4n + 1 diagonals of G_n, whose bandwidth is 2n
  as every generator is tridiagonal, for families that declare no more
  (orthogonal recombinations, test families): a step costs O(N n).

A scale norm then costs O(N n) at most, and the norms of a block are one
stacked product over its rows.

Row form
--------
A tridiagonal X is held as the read-only (3, N) rows X[i, i-1], X[i, i],
X[i, i+1], zero past the edges (Golub & Van Loan, 4th ed., 1.2).

Guard bands
-----------
A truncated generator on N modes is tridiagonal: it is faithful to its
untruncated counterpart only on the leading ``interior_bound = N - 1``
basis modes, and every application can populate one extra mode band.  A
check at scale depth n therefore demands its test vector be supported in
the first ``interior_bound - d * n`` modes (d = number of generators).
Building a chain to depth ``n_max`` requires at least one usable interior
mode at that depth.  A block family is exact at every truncation
(``band_growth = 0``) and has no guard band.

Continuity estimates
--------------------
Every continuity estimate on the scale is one inequality, ||A phi||_n <=
c ||phi||_n, measured by ``bound_check`` with the caller's A and stated c.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError


def read_only(a: np.ndarray) -> np.ndarray:
    """``a``, marked read-only: an array its callers share."""
    a.setflags(write=False)
    return a


def tridiagonal_apply(X, v) -> np.ndarray:
    """X v for the (3, N) rows of a tridiagonal X, on a vector or an (N, K) block."""
    X = X.reshape(X.shape + (1,) * (np.ndim(v) - 1))
    out = X[1] * v
    out[1:] += X[0, 1:] * v[:-1]
    out[:-1] += X[2, :-1] * v[1:]
    return out


def real_product(A, v) -> np.ndarray:
    """A v for a real A and a complex vector or (N, K) block: one real product
    on the interleaved (N, 2K) float view of v, never a complex copy of A."""
    v = np.ascontiguousarray(v, dtype=complex)
    out = A @ v.view(float).reshape(len(v), -1)
    return out.view(complex).reshape((len(A),) + v.shape[1:])


def tridiagonal_adjoint(X) -> np.ndarray:
    """Rows of X^*: X^*[i, i - 1] = conj(X[i - 1, i]) and X^*[i, i + 1] = conj(X[i + 1, i])."""
    return np.stack([np.pad(X[2, :-1], (1, 0)), X[1], np.pad(X[0, 1:], (0, 1))]).conj()


def tridiagonal_product(A, B) -> np.ndarray:
    """Five diagonals of A B: out[d + 2, i] = sum_{a + b = d} A[i, i + a] B[i + a, i + d]."""
    N, B = A.shape[1], np.pad(B, ((0, 0), (1, 1)))  # B[:, k] is now B[:, k + 1]
    out = np.zeros((5, N), dtype=np.result_type(A, B))
    for a in (-1, 0, 1):
        for b in (-1, 0, 1):
            out[a + b + 2] += A[a + 1] * B[b + 1, 1 + a : N + 1 + a]
    return out


def support_bound(phi):
    """Index of the highest nonzero coefficient (0 for the zero vector).

    An (N, K) block gives the K column bounds.
    """
    live = np.abs(np.asarray(phi)) > 0
    bound = np.where(live.any(axis=0), len(live) - 1 - np.argmax(live[::-1], axis=0), 0)
    return bound if live.ndim == 2 else int(bound)


@dataclass(frozen=True)
class BandedGram:
    """A Gram form held as ``bands[i, b + d]`` = G[i, i + d], |d| <= b = 2n, zero past the edges."""

    bands: np.ndarray

    @staticmethod
    def identity(family) -> "BandedGram":
        return BandedGram(np.ones((family.dim, 1), dtype=complex))

    @property
    def width(self) -> int:
        return self.bands.shape[1] // 2

    def step(self, family) -> "BandedGram":
        # X^* G X as H = G X, then X^* H, for every generator at once, with
        # col[u, j] = X[j + u - 1, j]: H[i, i + e] = sum_u G[i, i + e + u - 1]
        # col[u, i + e], X^* H[i, i + d] = sum_u conj(col[u, i]) H[i + u - 1, i + d]
        N, W = self.bands.shape
        b = W // 2 + 2  # the new half-bandwidth
        G = np.zeros((N, W + 6), dtype=complex)
        G[:, 3:-3] = self.bands
        col = np.zeros((family.d, 3, N + 2 * b), dtype=complex)
        for u in range(3):  # col[u, j] = X[j + u - 1, j]: row 2 - u shifted, zero past the edges
            col[:, u, b + 1 - u : b + N + 1 - u] = np.array(family.gens)[:, 2 - u]
        tricks = np.lib.stride_tricks
        H = np.zeros((family.d, N + 2, W + 6), dtype=complex)
        terms = tricks.sliding_window_view(G, W + 4, 1).swapaxes(0, 1)
        np.sum(terms * tricks.sliding_window_view(col, W + 4, 2), 1, out=H[:, 1:-1, 1:-1])
        s0, s1, s2 = H.strides  # shifted[g, u, i, k] = H[g, u + i, 2 - u + k]
        shifted = tricks.as_strided(H[:, 0, 2:], (family.d, 3, N, W + 4), (s0, s1 - s2, s1, s2))
        return BandedGram(G[:, 1:-1] + (col[:, :, b : b + N, None].conj() * shifted).sum((0, 1)))

    def quadratic(self, rows) -> np.ndarray:
        """phi^* G phi for each of the (K, N) rows, as ``DiagonalGram.quadratic`` with G phi."""
        padded = np.pad(rows, ((0, 0), (self.width, self.width)))  # [k, i + b + d] = phi_k[i + d]
        image = self.bands * np.lib.stride_tricks.sliding_window_view(padded, len(self.bands.T), 1)
        return (rows.conj()[:, None, :] @ image.sum(-1)[:, :, None]).real[:, 0, 0]

    def dense(self) -> np.ndarray:
        rows, offsets = np.nonzero(self.bands)
        G = np.zeros((len(self.bands),) * 2, dtype=complex)
        G[rows, rows + offsets - self.width] = self.bands[rows, offsets]
        return G

    def increment_floor(self, prev: "BandedGram") -> float:
        return float(np.min(np.linalg.eigvalsh(self.dense() - prev.dense())))

    def hermiticity_residual(self) -> float:
        G = self.dense()
        return float(np.max(np.abs(G - G.conj().T)))

    def identity_residual(self) -> float:
        return float(np.max(np.abs(self.bands - (np.arange(self.bands.shape[1]) == self.width))))


@dataclass(frozen=True)
class DiagonalGram:
    """A diagonal Gram form held as its (N,) weights."""

    weights: np.ndarray

    @staticmethod
    def identity(family) -> "DiagonalGram":
        return DiagonalGram(np.ones(family.dim))

    def step(self, family) -> "DiagonalGram":
        # diag(X^* diag(w) X)[k] = sum_j |X[j, k]|^2 w(j); the family
        # declares that the off-diagonal terms cancel over its generators.
        # Its coupling is the (3, N) rows of a tridiagonal or an (M, b, b)
        # stack of diagonal blocks, each block acting on its own b weights.
        C = family.coupling
        if C.ndim == 2:
            return DiagonalGram(self.weights + tridiagonal_apply(tridiagonal_adjoint(C), self.weights))
        w = self.weights.reshape(C.shape[:-1])[..., None]
        return DiagonalGram(self.weights + (np.swapaxes(C, -1, -2) @ w).reshape(-1))

    def quadratic(self, rows) -> np.ndarray:
        """phi^* diag(w) phi for each of the (K, N) rows, in one stacked product.

        Each row is a ``zdotu`` of conj(phi) and w * phi, the operands
        ``np.vdot(phi, w * phi)`` hands to ``zdotc``: the same sums bit for bit.
        """
        return (rows.conj()[:, None, :] @ (self.weights * rows)[:, :, None]).real[:, 0, 0]

    def increment_floor(self, prev: "DiagonalGram") -> float:
        return float(np.min(self.weights - prev.weights))

    def hermiticity_residual(self) -> float:
        return 0.0  # real weights: Hermitian by construction

    def identity_residual(self) -> float:
        return float(np.max(np.abs(self.weights - 1.0)))

    def max_entry(self) -> float:
        return float(np.max(np.abs(self.weights)))


class _GuardBand:
    """Guard-band bookkeeping of a family with ``d`` generators,
    ``interior_bound`` and ``band_growth``; the base of every family a scale
    chain is built on."""

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


@dataclass(frozen=True)
class GeneratorFamily(_GuardBand):
    """Ordered truncated tridiagonal generators, as (3, N) rows of one size N.

    Everything else is read from them: ``dim`` N, ``d`` generators, the
    ``interior_bound`` N - 1 and ``band_growth`` 1 of a tridiagonal
    truncation.  ``gram_form`` is the structure the family's Gram forms
    keep: ``BandedGram``, or ``DiagonalGram`` for a family that declares the
    (3, N) rows of its ``coupling`` sum_i |X_i|^2, entrywise, which
    ``DiagonalGram.step`` reads.  Rows of another shape or past an edge are
    refused; read-only copies kept.
    """

    gens: tuple
    coupling: np.ndarray = None
    band_growth = 1

    def __post_init__(self):
        gens = tuple(read_only(np.array(g, dtype=complex)) for g in self.gens)
        N = gens[0].shape[-1] if gens else 0
        if not N or any(g.shape != (3, N) for g in gens):
            shapes = [g.shape for g in gens]
            raise UsageError(f"generators must be (3, N) rows of one size N, got {shapes}")
        if any(g[0, 0] or g[2, -1] for g in gens):
            raise UsageError("generator rows must be zero past the edges")
        if self.coupling is not None and np.shape(self.coupling) != (3, N):
            raise UsageError("a diagonal family declares its coupling as (3, N) rows")
        object.__setattr__(self, "gens", gens)

    @property
    def gram_form(self) -> type:
        return BandedGram if self.coupling is None else DiagonalGram

    @property
    def dim(self) -> int:
        return self.gens[0].shape[1]

    @property
    def d(self) -> int:
        return len(self.gens)

    @property
    def interior_bound(self) -> int:
        return self.dim - 1


def recombined_family(family: GeneratorFamily, O: np.ndarray) -> GeneratorFamily:
    """Family with generators replaced by the recombination sum_j O[i, j] X_j.

    The result declares no Gram structure, so its chain is banded: an
    independent route to the same forms for orthogonal O.
    """
    O = np.asarray(O, dtype=float)
    d = family.d
    if O.shape != (d, d):
        raise UsageError(f"recombination matrix must be {d} x {d}, got {O.shape}")
    gens = tuple(
        sum(O[i, j] * family.gens[j] for j in range(d)) for i in range(d)
    )
    return GeneratorFamily(gens)


@dataclass(frozen=True)
class ScaleChain:
    """Gram forms G_0 .. G_nmax of the nested scale, plus their family."""

    grams: tuple
    family: _GuardBand

    @property
    def n_max(self) -> int:
        return len(self.grams) - 1

    def gram(self, n: int):
        if not (0 <= n <= self.n_max):
            raise UsageError(f"scale level {n} outside 0..{self.n_max}")
        return self.grams[n]

    def hermiticity_residual(self) -> float:
        return max(G.hermiticity_residual() for G in self.grams)

    def increment_eigenvalue_floor(self) -> float:
        """Smallest eigenvalue over all increments G_{n+1} - G_n."""
        floors = [
            self.grams[n + 1].increment_floor(self.grams[n]) for n in range(self.n_max)
        ]
        return min(floors) if floors else 0.0


def build_scale_chain(family: _GuardBand, n_max: int) -> ScaleChain:
    """Run the Gram recursion up to level ``n_max`` in the family's Gram form."""
    if n_max < 0:
        raise UsageError("n_max must be >= 0")
    if n_max > family.max_safe_depth():
        raise UsageError(
            f"depth {n_max} exhausts the guard band; "
            f"maximal safe n_max for this family is {family.max_safe_depth()}"
        )
    grams = [family.gram_form.identity(family)]
    for _ in range(n_max):
        grams.append(grams[-1].step(family))
    return ScaleChain(tuple(grams), family)


def scale_norm(chain: ScaleChain, phi, n: int):
    """Level-n norm sqrt(phi^* G_n phi); level 0 is the Euclidean norm.

    An (N, K) block gives the K column norms.  Every vector is read as one
    contiguous row, so its form sums in the same order whatever the memory
    layout it came in: a column's norm in a block is bit-identical to the
    norm of that column alone.
    """
    phi = np.asarray(phi, dtype=complex)
    G = chain.gram(n)
    if phi.shape[:1] != (chain.family.dim,) or phi.ndim > 2:
        raise UsageError(
            f"vector has shape {phi.shape}, expected ({chain.family.dim},) "
            f"or ({chain.family.dim}, K)"
        )
    rows = np.ascontiguousarray(phi.T).reshape(-1, chain.family.dim)
    norms = np.sqrt(np.maximum(G.quadratic(rows), 0.0))
    return norms if phi.ndim == 2 else norms[0]


@dataclass(frozen=True)
class MonotonicityResult:
    lhs: float          # ||phi||_n
    rhs: float          # ||phi||_{n+1}
    generator_lhs: tuple  # ||X_i phi||_n per generator


def monotonicity_check(chain: ScaleChain, phi, n: int) -> MonotonicityResult:
    """Measure ||phi||_n, ||phi||_{n+1} and ||X_i phi||_n, the two sides of
    ||phi||_n <= ||phi||_{n+1} and ||X_i phi||_n <= ||phi||_{n+1}.

    An (N, K) block gives K column values in every field.
    """
    if n + 1 > chain.n_max:
        raise UsageError(f"monotonicity at level {n} needs the chain built to {n + 1}")
    phi = np.asarray(phi, dtype=complex)
    lo = scale_norm(chain, phi, n)
    hi = scale_norm(chain, phi, n + 1)
    gen_norms = tuple(scale_norm(chain, tridiagonal_apply(X, phi), n) for X in chain.family.gens)
    return MonotonicityResult(lo, hi, gen_norms)


@dataclass(frozen=True)
class BoundCheck:
    lhs: float
    bound: float

    @property
    def ratio(self):
        """lhs / bound, infinite where the bound is not positive; per column for a block."""
        bound = np.asarray(self.bound)
        ratio = np.where(bound > 0, self.lhs / np.where(bound > 0, bound, 1.0), np.inf)
        return float(ratio) if ratio.ndim == 0 else ratio


def bound_check(chain: ScaleChain, apply, phi, n: int, factor) -> BoundCheck:
    """Measure ||A phi||_n against c ||phi||_n, the continuity estimate of A on the scale.

    ``apply(phi)`` returns A phi and ``factor`` is the constant c the paper
    states for A.  The guard band is checked first: phi must be supported
    where n applications of the generators stay faithful.  Block form: an
    (N, K) block, an ``apply`` acting on it column by column and one factor
    or K of them give K-long ``lhs`` and ``bound``.
    """
    phi = np.asarray(phi, dtype=complex)
    chain.family.require_interior(int(np.max(support_bound(phi))), n, what="bound check")
    lhs = scale_norm(chain, apply(phi), n)
    return BoundCheck(lhs, factor * scale_norm(chain, phi, n))


def scale_operator_norm(chain: ScaleChain, A: np.ndarray, n: int) -> float:
    """Operator norm of A with respect to the level-n norm of a diagonal chain.

    With G_n = diag(w), this is the spectral norm of
    W = diag(w)^{1/2} A diag(w[:k])^{-1/2}, taken as the square root of the
    largest eigenvalue of the k x k Gram matrix W^* W.  ``A`` is an N x N
    operator or only its leading (N, k) columns, 0 < k <= N: the supremum
    then runs over inputs supported in those k modes (the output is still
    measured in full), which keeps the estimate honest where truncation
    contaminates the band edge.  A real A is measured in real arithmetic.
    """
    G = chain.gram(n)
    if not isinstance(G, DiagonalGram):
        raise UsageError("scale_operator_norm needs a chain of diagonal Gram forms")
    A = np.asarray(A)
    N = chain.family.dim
    if A.ndim != 2 or A.shape[0] != N or not 0 < A.shape[1] <= N:
        raise UsageError(f"operator has shape {A.shape}, expected (N, k) with N = {N}, 0 < k <= N")
    root = np.sqrt(G.weights)
    W = root[:, None] * A / root[None, : A.shape[1]]
    return float(np.sqrt(max(np.linalg.eigvalsh(W.conj().T @ W)[-1], 0.0)))
