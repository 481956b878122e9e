"""Hermite-function basis utilities: evaluation, quadrature, displacement.

The basis is the L^2-orthonormal Hermite functions h_k (eigenfunctions of
x^2 - d^2/dx^2), tied together by the ladder x h_k = l_k h_{k-1} +
l_{k+1} h_{k+1}, l_k = sqrt(k/2), whose squares k/2 (``ladder_squares``)
are exact.  Every pointwise value walks that ladder from h_0 =
pi^{-1/4} exp(-x^2/2) (``_walk``), keeping a power-of-two exponent per
point, so no order or node overflows.  ``_ladder_rule`` builds from it the
one real eigenbasis of x, cached: the zeros of h_n, their Christoffel
weights and the normalised eigenvectors, read by the Gauss-Hermite oracle
rule, the closed-form resolvent (``golub_welsch_rule``) and the groups of
X1 and X2.  The group action (``displace``) uses no pointwise values.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, UsageError
from .scale import read_only

MAX_NODES = 320  # the oracles' largest rule
NODE_STEP_TOL = 1e-7  # Halley's steps shrink cubically: after one this small a node is exact
NODE_ITERATIONS = 8


@lru_cache(maxsize=8)
def gauss_hermite(node_count: int):
    """Nodes and plain-dx weights: integral f(x) dx ~= sum w_q f(x_q).

    The weights are the ladder rule's Christoffel weights 1 / sum_k h_k(x_q)^2,
    so the integrand is the bare function (it must decay like a Gaussian for
    the rule to make sense).  The cached arrays are read-only.
    """
    if node_count > MAX_NODES:
        raise UsageError(f"node_count {node_count} exceeds {MAX_NODES}")
    return _ladder_rule(node_count, node_count)[:2]


def hermite_functions(xs, n_modes: int) -> np.ndarray:
    """Matrix H[k, q] = h_k(xs[q]) for k < n_modes, walked up the ladder from h_0."""
    xs = np.asarray(xs, dtype=float)
    if n_modes < 1:
        raise UsageError("n_modes must be >= 1")
    H = np.empty((n_modes, xs.size))
    _walk(xs, np.sqrt(np.arange(n_modes + 1) / 2), np.full(xs.size, n_modes - 1), _ground(xs), H)
    return H


def _displacement_rows(a, n_rows: int, n_cols: int):
    """Rows n < n_rows of F[n, d] = sqrt(n!/(n+d)!) a^d e^{-x/2} L_n^{(d)}(x), x = a^2.

    Row n is an (n_cols - n, K) array over d, one column per entry of ``a``,
    overwritten by the next row.  The Laguerre degree recurrence runs in
    difference form: U_0 = F_0, U_{n+1} = C U_n - x/(n+1) F_n and
    F_{n+1} = R (F_n + U_{n+1}).  Unlike the three-term form, whose double
    root at x = 0 loses 3e-13 by n = 256 at small a, it stays within 6e-16.
    """
    x, d, n = a * a, np.arange(n_cols), np.arange(n_rows)[:, None]
    C = np.where(n > 0, np.sqrt(n * (n + d)) / (n + 1), d)
    R, X = np.sqrt((n + 1) / (n + 1 + d)), x / (n + 1)
    # F[0, d] = e^{-x/2} a^d / sqrt(d!) as a running product
    row = np.cumprod(np.vstack([np.exp(-0.5 * x), a / np.sqrt(d[1:, None])]), axis=0)
    up, term = row.copy(), np.empty_like(row)
    for i in range(n_rows):
        yield row
        row, up, term = row[:-1], up[:-1], term[:-1]
        up *= C[i, : len(row), None]
        up -= np.multiply(row, X[i], out=term)
        row += up
        row *= R[i, : len(row), None]


def displace(alpha, phi) -> np.ndarray:
    """D(alpha) phi on the first N modes, column by column of an (N, K) block.

    With alpha = a e^{i theta}, <m|D|n> is e^{i theta (m-n)} F[n, m-n] for m >= n
    and (-e^{-i theta})^{n-m} F[m, n-m] for m < n: D phi = e^{i theta m} (M psi),
    psi_n = e^{-i theta n} phi_n, M real, its rows streamed to the last live mode.
    """
    N, K = phi.shape
    a = np.abs(alpha)
    theta = np.where(a > 0, np.angle(alpha), 0.0)
    k = 1 + np.max(np.flatnonzero(phi.any(axis=1)), initial=-1)  # live modes
    modes = np.arange(N)
    psi = phi[:k] * np.exp(-1j * np.multiply.outer(modes[:k], theta))
    sign = 1 - 2 * (modes[:k] & 1)[:, None, None]
    parts = np.stack([psi.real, psi.imag], axis=1)  # (k, 2, K)
    alt, upper = parts * sign, np.empty_like(parts)
    y, term = np.zeros((2, N, K)), np.empty((2, N, K))
    for n, row in enumerate(_displacement_rows(a, k, N)):
        # below the diagonal: y[n + d] += F[n, d] psi_n
        y[:, n:] += np.multiply(row, parts[n, :, None], out=term[:, n:])
        # above it: (-1)^n sum_{d >= 1} F[n, d] (-1)^{n+d} psi_{n + d}, summed
        # in order of d, so a column gets the same bits whatever the block's k
        np.sum(row[1 : k - n, None] * alt[n + 1 :], axis=0, out=upper[n])
    y[:, :k] += (upper * sign).transpose(1, 0, 2)
    return (y[0] + 1j * y[1]) * np.exp(1j * np.multiply.outer(modes, theta))


def golub_welsch_rule(N: int):
    """Nodes w and first N rows V_N of the eigenvectors of x on 2N modes.

    Row k of V is h_k at the 2N Gauss-Hermite nodes w times the root weights
    (Golub & Welsch 1969): V_N diag(f(w)) V_N^T is the 2N-node quadrature of
    <h_m, f h_n>, m, n < N.  The arrays are the cached rule's, read-only.
    """
    if N < 1:
        raise UsageError("need at least one mode")
    w, _, V = _ladder_rule(2 * N, N)
    return w, V


def _ground(x):
    """y with 2^y = h_0(x) = pi^(-1/4) e^(-x^2/2)."""
    return -(x * x / 2 + np.log(np.pi) / 4) / np.log(2)


def _walk(x, lad, stop, y, V, base=0, sign=1):
    """Walk h_{k+1} = (x h_k - lad[k] h_{k-1}) / lad[k + 1] from h_{-1} = 0, h_0 = 2^y
    at each point x_j up to h_{stop_j}, ``stop`` ascending, writing h_k(x_j)
    to V[base + sign k, j] where that row exists.

    Returns h_{stop - 1}, h_stop and sum_{k <= stop} h_k^2.  Each h is held
    as m 2^e, m renormalised every 16 steps, so leading values may underflow.
    """
    lo = np.searchsorted(stop, np.arange(stop[-1] + 2))  # columns lo[k]: have stop_j >= k
    e = np.floor(y).astype(int)
    prev, cur, sq = np.zeros_like(x), np.exp2(y - e), np.zeros_like(x)
    for k in range(stop[-1] + 1):
        s = slice(lo[k], None)
        val = np.ldexp(cur[s], e[s])
        sq[s] += val * val
        if 0 <= base + sign * k < len(V):
            V[base + sign * k, s] = val
        s = slice(lo[k + 1], None)
        prev[s], cur[s] = cur[s], (x[s] * cur[s] - lad[k] * prev[s]) / lad[k + 1]
        if k % 16 == 15:
            f = np.frexp(np.maximum(np.abs(cur[s]), np.abs(prev[s])))[1]
            prev[s], cur[s], e[s] = np.ldexp(prev[s], -f), np.ldexp(cur[s], -f), e[s] + f
    return np.ldexp(prev, e), np.ldexp(cur, e), sq


@lru_cache(maxsize=8)
def _ladder_rule(n: int, rows: int):
    """Zeros x of h_n (ascending), their Christoffel weights 1 / sum_k h_k(x)^2
    and the first ``rows`` rows of the eigenvectors (h_k(x_j))_k of x on n
    modes, normalised, signed by h_0 > 0; read-only.

    The nodes, the mirror pairs +-x of the nonnegative ones, start from the
    WKB guess sqrt(2n+1) cos(t/2), t - sin t = (4k - 1) pi / (2n + 1), and
    take Halley steps on h_n (Newton's, with the second derivative from
    Hermite's equation) until every step is below ``NODE_STEP_TOL``, or
    raise ``ConvergenceError`` after ``NODE_ITERATIONS``.  Column j walks up
    from h_0 and down from h_n = 0, h_{n-1} = 1, each way stable, to its
    turning point m_j = (x_j^2 - 1) / 2, near its largest entry, where the
    two are joined: the upward walk alone leaves its residual in the last
    row, above eps N at n = 1024.
    """
    half = (n + 1) // 2
    c = (4 * np.arange(half, 0, -1) - 1) * np.pi / (2 * n + 1)
    t = np.minimum(c + 1, np.pi)  # t - sin t is convex: Newton from the right is monotone
    for _ in range(12):
        t -= (t - np.sin(t) - c) / (1 - np.cos(t))
    x = np.sqrt(2 * n + 1) * np.cos(t / 2) * (np.arange(half) >= n % 2)  # 0 is a zero for odd n
    lad, none = np.sqrt(np.arange(n + 2) / 2), np.empty((0, half))
    for _ in range(NODE_ITERATIONS):
        prev, cur, _ = _walk(x, lad, np.full(half, n), _ground(x), none)
        u = cur / (2 * lad[n] * prev)  # p_n / p_n' for the polynomial p_n = h_n e^{x^2/2}
        step = u / (1 - x * u + n * u * u)  # p_n'' = 2 x p_n' - 2 n p_n
        x -= step
        if np.max(np.abs(step)) <= NODE_STEP_TOL:
            break
    else:
        worst = float(np.max(np.abs(step)))
        raise ConvergenceError(f"{n}-node Hermite rule: Halley step {worst:.1e}", worst)
    m = np.clip((x * x - 1) // 2, 0, n - 1).astype(int)
    full = np.zeros((rows, n))
    V = full[:, n - half :]  # the columns of the nonnegative nodes
    _, peak, sq = _walk(x, lad, m, _ground(x), V)
    # down in reversed columns, so that stop ascends; it overwrites h_m with q_m
    _, q, tail = _walk(x[::-1], lad[n::-1], n - 1 - m[::-1], 0 * x, V[:, ::-1], n - 1, -1)
    join = peak / q[::-1]
    weights = 1 / (sq - peak * peak + join * join * tail[::-1])
    for k, j in enumerate(np.searchsorted(m, np.arange(rows), "right")):
        V[k, :j] *= join[:j]
    V *= np.sqrt(weights)
    full[:, : n // 2] = V[:, n % 2 :][:, ::-1]  # h_k(-x) = (-1)^k h_k(x)
    full[1::2, : n // 2] *= -1
    x, weights = (np.concatenate([sign * a[n % 2 :][::-1], a]) for sign, a in ((-1, x), (1, weights)))
    return read_only(x), read_only(weights), read_only(full)


def ladder_squares(N: int) -> np.ndarray:
    """|<h_{k-1}, x h_k>|^2 = k/2 for k = 1 .. N - 1, exact in binary."""
    return np.arange(1, N) / 2


def position_rows(N: int) -> np.ndarray:
    """(3, N) rows of x in the h_k basis: x h_k = sqrt(k/2) h_{k-1} + sqrt((k+1)/2) h_{k+1}."""
    off = np.sqrt(ladder_squares(N))
    rows = np.zeros((3, N))
    rows[0, 1:], rows[2, :-1] = off, off
    return read_only(rows)
