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

Every quantity checked here is a per-block 3x3 computation (the
homomorphism residual one per slot): the model is stored as (M, 3, 3)
stacks of diagonal blocks, the kernels are batched over them and cost O(M),
not dense 3M x 3M products.  The one dense matrix left is ``rep_operator``'s
T(g), for the check that compares whole operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .errors import UsageError
from .liecore import GroupElement, group_multiply, require_column_times
from .scale import DiagonalGram, ScaleChain, _GuardBand, read_only, scale_norm

CHI1 = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
CHI2 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
CHI3 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
CHIS = (CHI1, CHI2, CHI3)
CHI_SLOTS = ((0, 1), (1, 2), (0, 2))  # the one nonzero entry of each CHI
EYE3 = np.eye(3)
_CHUNK_ENTRIES = 4096  # pairs x blocks per homomorphism-residual step (one pair if M is larger)


def chi_matrix(coeffs) -> np.ndarray:
    """3x3 matrix of the algebra element (alpha, beta, gamma): v -> (alpha y + gamma z, beta z, 0)."""
    a, b, c = (float(v) for v in coeffs)
    return a * CHI1 + b * CHI2 + c * CHI3


def _operator_norm(stack: np.ndarray) -> float:
    """2-norm of the block-diagonal operator: the largest blockwise 2-norm."""
    return float(np.max(np.linalg.norm(stack, 2, axis=(1, 2))))


@dataclass(frozen=True)
class BlockGeneratorFamily(_GuardBand):
    """The three 3M x 3M block-diagonal generators at block count M.

    The model is stored as ``stacks``: for each generator the read-only
    (M, 3, 3) stack of its diagonal blocks w_i(n) CHI_i, with weights
    (n, n, n^2), and nothing else.  ``apply_generator`` applies an algebra element and
    the one-parameter groups are ``evaluators``, both blockwise.

    As a scale family it is exact at every truncation: applications spread
    no support and consume no guard band.  Its Gram forms are diagonal,
    since each generator has one nonzero entry per block, and the chain
    takes its coupling from the stacks.
    """

    M: int
    d = 3
    band_growth = 0
    gram_form = DiagonalGram

    @property
    def dim(self) -> int:
        return 3 * self.M

    interior_bound = dim

    @cached_property
    def stacks(self) -> tuple:
        n = np.arange(1, self.M + 1, dtype=float)
        return tuple(read_only(w[:, None, None] * chi) for w, chi in zip((n, n, n * n), CHIS))

    @property
    def coupling(self) -> np.ndarray:
        """sum_i |X_i|^2, entrywise, as the (M, 3, 3) stack of its diagonal blocks."""
        return sum(S * S for S in self.stacks)

    def apply_generator(self, x_coeffs, v, adjoint: bool = False) -> np.ndarray:
        """(sum_i x_i X_i) v, or its adjoint, for a vector or (3M, K) block: one stacked product."""
        if np.shape(x_coeffs) != (3,):
            raise UsageError("algebra vector must have 3 coefficients")
        stack = sum(c * S for c, S in zip(x_coeffs, self.stacks))
        stack = np.swapaxes(stack, -1, -2).conj() if adjoint else stack
        return np.reshape(stack @ np.reshape(v, (self.M, 3, -1)), np.shape(v))

    @cached_property
    def evaluators(self) -> tuple:
        """Appliers (t, v, adjoint=False) -> exp(t X_i) v, i = 1, 2, 3: ``exp_apply``."""
        return tuple(partial(exp_apply, self, i) for i in (1, 2, 3))

    def rep_stack(self, g: GroupElement) -> np.ndarray:
        """Diagonal blocks of T(g) = I + xi1 X1 + xi2 X2 + xi3 X3.

        The (M, 3, 3) stack; a block of elements puts its shape in front.
        Block n is the identity with xi_i w_i(n) in the one nonzero slot of
        CHI_i.
        """
        stack = np.empty(np.broadcast(g.xi1, g.xi2, g.xi3).shape + self.stacks[0].shape)
        stack[...] = EYE3
        for xi, S, (i, j) in zip((g.xi1, g.xi2, g.xi3), self.stacks, CHI_SLOTS):
            stack[..., i, j] = np.multiply.outer(xi, S[..., i, j])
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
    return BlockGeneratorFamily(M)


def rep_operator(g: GroupElement, fam: BlockGeneratorFamily) -> np.ndarray:
    """Affine representation I + xi1 X1 + xi2 X2 + xi3 X3, as a dense 3M x 3M matrix."""
    stack, n = fam.rep_stack(g), np.arange(fam.M)
    out = np.zeros((fam.M, 3, fam.M, 3), dtype=stack.dtype)
    out[n, :, n, :] = stack
    return out.reshape(fam.dim, fam.dim)


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
    masquerade as an algebra failure.  Block n of T(e) is I plus
    (a_e, b_e, c_e) = xi_i(e) w_i(n) in CHI_SLOTS, w_i read from the stacks,
    so T(g) T(h) differs from T(gh) only there: it holds a_g + a_h, b_g + b_h
    and [1, a_g, c_g] . [c_h, b_h, 1], a stacked 1 x 3 by 3 x 1 product that
    rounds as the 3 x 3 block product does.  K pairs give K residuals.
    """
    gh = group_multiply(g, h)
    shape = np.shape(gh.xi3)
    w = [S[:, i, j] for S, (i, j) in zip(fam.stacks, CHI_SLOTS)]
    xi = [np.broadcast_to(e.as_array(), shape + (3,)).reshape(-1, 3, 1) for e in (g, h, gh)]
    # T(gh)'s largest entry is 1 or a |xi_i(gh)| max|w_i|, since rounding is monotone
    scale = np.maximum(1.0, np.max(abs(xi[2][..., 0]) * [np.max(abs(v)) for v in w], axis=1))
    residual, step = np.empty(len(scale)), max(1, _CHUNK_ENTRIES // fam.M)
    for s in (slice(k, k + step) for k in range(0, len(scale), step)):
        ag, bg, cg, ah, bh, ch, agh, bgh, cgh = (x[s, i] * w[i] for x in xi for i in range(3))
        one = np.ones_like(ag)
        row, col = np.stack([one, ag, cg], -1), np.stack([ch, bh, one], -1)
        c = (row[..., None, :] @ col[..., None])[..., 0, 0]
        gap = np.maximum.reduce([abs(ag + ah - agh), abs(bg + bh - bgh), abs(c - cgh)])
        residual[s] = np.max(gap, axis=1) / scale[s]
    return float(residual[0]) if shape == () else residual.reshape(shape)


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
    """Observed ||.||_2 / ||.||_1 ratio range over the sample vectors."""

    ratio_min: float
    ratio_max: float
    sample_count: int


def norm_equivalence_report(chain: ScaleChain, phis) -> NormEquivalenceReport:
    """Measure the two-norm equivalence window on sample vectors.

    Each item of ``phis`` is a (3M, K) block of K vectors; zero columns are
    skipped and not counted.
    """
    lo, hi = np.inf, 0.0
    count = 0
    for phi in phis:
        if np.ndim(phi) != 2:
            raise UsageError(f"samples come as (3M, K) blocks, got shape {np.shape(phi)}")
        denom = scale_norm(chain, phi, 1)
        live = denom != 0
        if not live.any():
            continue
        ratios = scale_norm(chain, phi, 2)[live] / denom[live]
        lo, hi = min(lo, np.min(ratios)), max(hi, np.max(ratios))
        count += int(np.count_nonzero(live))
    if count == 0:
        raise UsageError("need at least one nonzero sample vector")
    return NormEquivalenceReport(float(lo), float(hi), count)


def unboundedness_growth(fam_sizes) -> list:
    """Largest singular value of X_1 per truncation size; equals M exactly."""
    return [(int(M), _operator_norm(block_generators(int(M)).stacks[0])) for M in fam_sizes]


@dataclass(frozen=True)
class NilpotentResolvent:
    stack: np.ndarray           # (M, 3, 3) diagonal blocks of the resolvent
    identity_residual: float    # worst over both factor orders

    @cached_property
    def operator_norm(self) -> float:
        return _operator_norm(self.stack)


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
    return NilpotentResolvent(R, residual)


def _exp_stack(fam: BlockGeneratorFamily, i: int, t) -> np.ndarray:
    if i not in (1, 2, 3):
        raise UsageError("generator index must be 1, 2, or 3")
    return EYE3 + np.multiply.outer(t, fam.stacks[i - 1])


def exp_apply(fam: BlockGeneratorFamily, i: int, t, v, adjoint: bool = False):
    """exp(t X_i) v = (I + t X_i) v, exact by nilpotency of order two.

    One stacked product of the (M, 3, 3) blocks on ``v``, a vector or a
    (3M, K) block; ``adjoint`` applies exp(t X_i)^*, the transposed blocks.
    A (K,) array ``t`` gives column k its own time t[k]: a (K, M, 3, 3)
    stack, multiplied 3 x 1 per column of the block.
    """
    stack, v = _exp_stack(fam, i, t), np.asarray(v)
    require_column_times(t, v)
    stack = np.swapaxes(stack, -1, -2) if adjoint else stack
    if np.ndim(t):
        return (stack @ v.T.reshape(-1, fam.M, 3, 1)).reshape(v.shape[::-1]).T
    return (stack @ v.reshape(fam.M, 3, -1)).reshape(v.shape)


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
