"""Block generators on truncated l2 and their polynomial group representation.

Block n (1-based) of the three generators carries the 3x3 elementary
operators scaled by n, n, and n^2 respectively:

    chi1 (x, y, z) = (y, 0, 0)
    chi2 (x, y, z) = (0, z, 0)
    chi3 (x, y, z) = (z, 0, 0)

The n^2 weight on the third generator is what makes the product relation
X_i X_j = delta_{1i} delta_{2j} X_3 hold blockwise exactly (n * n = n^2),
so every exponential is affine, the representation

    T(xi) = I + xi1 X1 + xi2 X2 + xi3 X3

is an exact homomorphism, and the norm chain collapses to two inequivalent
norms.  At truncation M the operators have norm exactly M, which is the
measurable footprint of their unboundedness.

Every quantity checked here is therefore a per-block 3x3 computation: the
model is stored as (M, 3, 3) stacks of diagonal blocks, and the kernels
are batched over the stack, so they cost O(M) rather than dense 3M x 3M
products.  Dense matrices are assembled only where a caller needs one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import UsageError
from .liecore import GroupElement, group_multiply
from .scale import DiagonalGram, ScaleChain, _GuardBand, build_scale_chain, scale_norm

CHI1 = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
CHI2 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
CHI3 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
CHIS = (CHI1, CHI2, CHI3)
CHI_SLOTS = ((0, 1), (1, 2), (0, 2))  # the one nonzero entry of each CHI
EYE3 = np.eye(3)


def chi_matrix(coeffs) -> np.ndarray:
    """3x3 matrix of the algebra element (alpha, beta, gamma): v -> (alpha y + gamma z, beta z, 0)."""
    a, b, c = (float(v) for v in coeffs)
    return a * CHI1 + b * CHI2 + c * CHI3


def _assemble(stack: np.ndarray) -> np.ndarray:
    """Block-diagonal 3M x 3M matrix whose diagonal blocks are the (M, 3, 3) stack."""
    M = stack.shape[0]
    out = np.zeros((M, 3, M, 3), dtype=stack.dtype)
    n = np.arange(M)
    out[n, :, n, :] = stack
    return out.reshape(3 * M, 3 * M)


def _operator_norm(stack: np.ndarray) -> float:
    """2-norm of the block-diagonal operator: the largest blockwise 2-norm."""
    return float(np.max(np.linalg.norm(stack, 2, axis=(1, 2))))


@dataclass(frozen=True)
class BlockGeneratorFamily(_GuardBand):
    """The three 3M x 3M block-diagonal generators at block count M.

    The model is stored as ``stacks``: for each generator the (M, 3, 3)
    stack of its diagonal blocks w_i(n) CHI_i, with weights (n, n, n^2).
    The dense matrices ``x1``, ``x2``, ``x3`` are assembled from them on
    first use and cached; only the integrator and test oracles need them.

    As a scale family it is exact at every truncation: applications spread
    no support and consume no guard band.  Its Gram forms are diagonal,
    since each generator has one nonzero entry per block, and the chain
    takes its coupling from the stacks, so the dense matrices stay
    unassembled.
    """

    M: int
    labels = ("X1", "X2", "X3")
    band_growth = 0
    gram_form = DiagonalGram

    @property
    def dim(self) -> int:
        return 3 * self.M

    interior_bound = dim

    @cached_property
    def stacks(self) -> tuple:
        n = np.arange(1, self.M + 1, dtype=float)
        return tuple(w[:, None, None] * chi for w, chi in zip((n, n, n * n), CHIS))

    @property
    def coupling(self) -> np.ndarray:
        """sum_i |X_i|^2, entrywise, as the (M, 3, 3) stack of its diagonal blocks."""
        return sum(S * S for S in self.stacks)

    @cached_property
    def x1(self) -> np.ndarray:
        return _assemble(self.stacks[0])

    @cached_property
    def x2(self) -> np.ndarray:
        return _assemble(self.stacks[1])

    @cached_property
    def x3(self) -> np.ndarray:
        return _assemble(self.stacks[2])

    @property
    def gens(self) -> tuple:
        return (self.x1, self.x2, self.x3)

    def rep_stack(self, g: GroupElement, n=slice(None)) -> np.ndarray:
        """Diagonal blocks of T(g) = I + xi1 X1 + xi2 X2 + xi3 X3.

        The (M, 3, 3) stack, or the 3 x 3 block at index ``n`` alone; a
        block of elements puts its shape in front.  Each block is the
        identity with xi_i w_i(n) in the one nonzero slot of CHI_i.
        """
        stack = np.empty(np.broadcast(g.xi1, g.xi2, g.xi3).shape + self.stacks[0][n].shape)
        stack[...] = EYE3
        for xi, S, (i, j) in zip((g.xi1, g.xi2, g.xi3), self.stacks, CHI_SLOTS):
            stack[..., i, j] = np.multiply.outer(xi, S[n][..., i, j])
        return stack

    def pair_residual(self, i: int, j: int) -> float:
        """Max-entry residual of X_i X_j - delta_{1i} delta_{2j} X_3 (1-based)."""
        target = self.stacks[2] if (i, j) == (1, 2) else 0.0
        return float(np.max(np.abs(self.stacks[i - 1] @ self.stacks[j - 1] - target)))

    def product_relation_residual(self) -> float:
        """Worst ``pair_residual`` over all nine ordered pairs."""
        return max(self.pair_residual(i, j) for i in (1, 2, 3) for j in (1, 2, 3))


def block_generators(M: int) -> BlockGeneratorFamily:
    if M < 1:
        raise UsageError("block count M must be >= 1")
    fam = BlockGeneratorFamily(M)
    residual = fam.product_relation_residual()
    if residual != 0.0:
        raise AssertionError(f"block weights broke the product relation: {residual}")
    return fam


def rep_operator(g: GroupElement, fam: BlockGeneratorFamily) -> np.ndarray:
    """Affine representation I + xi1 X1 + xi2 X2 + xi3 X3, as a dense matrix."""
    return _assemble(fam.rep_stack(g))


def rep_apply(g: GroupElement, fam: BlockGeneratorFamily, phi) -> np.ndarray:
    """T(g) phi, block by block, without building T(g).

    A (3M, K) block gives the K columns T(g) phi_k, each one computed by the
    same 3 x 3 matrix-vector products as that column alone, so bit for bit
    equal to it (3 x K matrix products would round differently).
    """
    phi = np.asarray(phi)
    cols = phi.T.reshape(-1, fam.M, 3, 1)
    out = (fam.rep_stack(g) @ cols).reshape(len(cols), fam.dim).T
    return out if phi.ndim == 2 else out[:, 0]


def rep_homomorphism_residual(
    fam: BlockGeneratorFamily, g: GroupElement, h: GroupElement
) -> float | np.ndarray:
    """Relative max-entry residual of T(g) T(h) - T(gh).

    Zero in exact arithmetic; measured relative to the entry scale of
    T(gh), whose entries grow like M^2, so float rounding does not
    masquerade as an algebra failure.  Off the diagonal blocks both sides
    vanish, so the residual is a max over the blocks, taken one diagonal
    block at a time: a block of K pairs gives K residuals and holds only
    (K, 3, 3) stacks.
    """
    gh = group_multiply(g, h)
    gap = scale = 0.0  # entrywise running maxima of |lhs - rhs| and |rhs|
    for n in range(fam.M) if np.ndim(gh.xi3) else [slice(None)]:
        rhs = fam.rep_stack(gh, n)
        lhs = fam.rep_stack(g, n) @ fam.rep_stack(h, n)
        gap = np.maximum(gap, np.abs(lhs - rhs))
        scale = np.maximum(scale, np.abs(rhs))
    per_pair = tuple(range(np.ndim(gh.xi3), gap.ndim))
    residual = np.max(gap, axis=per_pair) / np.maximum(1.0, np.max(scale, axis=per_pair))
    return float(residual) if np.ndim(residual) == 0 else residual


def two_norm_chain(fam: BlockGeneratorFamily, n_max: int = 2) -> ScaleChain:
    """Norm chain of the block family (collapses beyond level 1), as diagonal weights."""
    return build_scale_chain(fam, n_max)


def collapse_identity_residual(fam: BlockGeneratorFamily, chain: ScaleChain) -> float:
    """Residual of G_2 = I + 2 sum_i X_i^T X_i + X_3^T X_3.

    Expanding the recursion with the product relation shows the level-2
    Gram form is this fixed polynomial in the generators; all higher
    levels follow the same collapse.  Both sides vanish off the diagonal
    blocks, so the residual is a max over the block stacks, the chain's
    diagonal weights against the whole expected blocks.
    """
    if chain.n_max < 2:
        raise UsageError("need the chain built to level 2")
    xtx = [S.transpose(0, 2, 1) @ S for S in fam.stacks]
    expected = EYE3 + 2.0 * sum(xtx) + xtx[2]
    weights = chain.gram(2).weights.reshape(fam.M, 3, 1)
    return float(np.max(np.abs(expected - weights * EYE3)))


def norm_ratio_bounds() -> tuple:
    """Admissible range of ||phi||_2 / ||phi||_1 after the collapse."""
    return (1.0, np.sqrt(3.0))


@dataclass(frozen=True)
class NormEquivalenceReport:
    """Observed ||.||_2 / ||.||_1 ratio range against the collapse window."""

    ratio_min: float
    ratio_max: float
    sample_count: int
    within_bounds: bool


def norm_equivalence_report(
    chain: ScaleChain, phis, slack: float = 1e-12
) -> NormEquivalenceReport:
    """Measure the two-norm equivalence window on sample vectors.

    Each item of ``phis`` is a vector or a (3M, K) block of K vectors;
    zero vectors are skipped and not counted.
    """
    lo_b, hi_b = norm_ratio_bounds()
    lo, hi = np.inf, 0.0
    count = 0
    for phi in phis:
        denom = np.atleast_1d(scale_norm(chain, phi, 1))
        live = denom != 0
        if not live.any():
            continue
        ratios = np.atleast_1d(scale_norm(chain, phi, 2))[live] / denom[live]
        lo, hi = min(lo, np.min(ratios)), max(hi, np.max(ratios))
        count += int(np.count_nonzero(live))
    if count == 0:
        raise UsageError("need at least one nonzero sample vector")
    ok = lo >= lo_b - slack and hi <= hi_b + slack
    return NormEquivalenceReport(float(lo), float(hi), count, bool(ok))


def unboundedness_growth(fam_sizes) -> list:
    """Largest singular value of X_1 per truncation size; equals M exactly."""
    return [(int(M), _operator_norm(block_generators(int(M)).stacks[0])) for M in fam_sizes]


@dataclass(frozen=True)
class NilpotentResolvent:
    stack: np.ndarray           # (M, 3, 3) diagonal blocks of the resolvent
    identity_residual: float    # worst over both factor orders
    operator_norm: float

    @cached_property
    def matrix(self) -> np.ndarray:
        return _assemble(self.stack)


def nilpotent_resolvent(
    fam: BlockGeneratorFamily, i: int, lam: complex
) -> NilpotentResolvent:
    """Resolvent candidate (lam I + X_i) / lam^2 forced by nilpotency.

    The factorization (lam - X_i)(lam + X_i) = lam^2 I pins the resolvent
    to this unbounded candidate for every nonzero lam; its operator norm
    grows like M / |lam|^2, the truncation-level footprint of an empty
    resolvent set.  lam = 0 is refused: the range of X_i is not dense.
    """
    lam = complex(lam)
    if lam == 0:
        raise UsageError("lam = 0 is excluded: the generator range is not dense")
    if i not in (1, 2, 3):
        raise UsageError("generator index must be 1, 2, or 3")
    X = fam.stacks[i - 1]
    R = (lam * EYE3 + X) / lam**2
    A = lam * EYE3 - X
    residual = max(
        float(np.max(np.abs(A @ R - EYE3))),
        float(np.max(np.abs(R @ A - EYE3))),
    )
    return NilpotentResolvent(R, residual, _operator_norm(R))


def _exp_stack(fam: BlockGeneratorFamily, i: int, t: float) -> np.ndarray:
    if i not in (1, 2, 3):
        raise UsageError("generator index must be 1, 2, or 3")
    return EYE3 + t * fam.stacks[i - 1]


def exp_apply(fam: BlockGeneratorFamily, i: int, t: float, v, adjoint: bool = False):
    """exp(t X_i) v = (I + t X_i) v, exact by nilpotency of order two.

    One stacked product of the (M, 3, 3) blocks on ``v``, a vector or a
    (3M, K) block; ``adjoint`` applies exp(t X_i)^*, the transposed blocks.
    """
    stack, v = _exp_stack(fam, i, t), np.asarray(v)
    out = (stack.transpose(0, 2, 1) if adjoint else stack) @ v.reshape(fam.M, 3, -1)
    return out.reshape(v.shape)


def exp_operator_norm(fam: BlockGeneratorFamily, i: int, t: float) -> float:
    """2-norm of exp(t X_i), the largest 2-norm of its diagonal blocks."""
    return _operator_norm(_exp_stack(fam, i, t))


def exp_norm_closed_form(M: int, t: float) -> float:
    """Largest singular value of I + t X_1: (|t| M + sqrt(t^2 M^2 + 4)) / 2."""
    tm = abs(t) * M
    return 0.5 * (tm + np.sqrt(tm * tm + 4.0))


def nonextendability_evidence(fam_sizes, t: float) -> list:
    """Rows (M, measured ||exp(t X_1)||, closed form); diverges with M."""
    rows = []
    for M in fam_sizes:
        measured = exp_operator_norm(block_generators(int(M)), 1, t)
        rows.append((int(M), measured, exp_norm_closed_form(int(M), t)))
    return rows


def h1_operator_norm(fam: BlockGeneratorFamily, g: GroupElement) -> float:
    """Exact level-1 operator norm of T(g), computed blockwise.

    On block n the level-1 Gram form is diag(1, 1 + n^2, 1 + n^2 + n^4)
    and T(g) is the unit upper-triangular 3x3 with entries (xi1 n,
    xi2 n, xi3 n^2), so the norm is a max over M tiny similarity
    transforms.  Its limit as n grows is finite, which is the measured
    form of continuity surviving every truncation size.
    """
    n = np.arange(1, fam.M + 1, dtype=float)
    n2 = n * n
    root = np.sqrt(np.stack([np.ones_like(n), 1.0 + n2, 1.0 + n2 + n2 * n2], axis=1))
    return _operator_norm(root[:, :, None] * fam.rep_stack(g) / root[:, None, :])
