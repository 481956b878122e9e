"""Counter-based random sampling keyed by (seed, suite, case).

Every random draw in the verification suites comes from a Philox stream
whose 128-bit key is derived from the run seed and the case identity, so
cases are reproducible in isolation, independent of execution order, and
safe to run concurrently without shared generator state.

Each sampler also draws a block of samples in one call, from the same
stream bit for bit as that many successive single draws, so a case can
evaluate its samples as one block.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import UsageError
from .liecore import GroupElement

# the suites' sampling cube |xi_k| <= CHART_BOX for random group elements
CHART_BOX = 2.0


def case_rng(seed: int, suite: str, case: str) -> np.random.Generator:
    digest = hashlib.sha256(f"{int(seed)}|{suite}|{case}".encode()).digest()
    key = int.from_bytes(digest[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))


def interior_vector(
    rng: np.random.Generator, dim: int, modes: int, count: int | None = None
) -> np.ndarray:
    """Normalized complex Gaussian coefficients on the leading ``modes`` modes.

    ``count`` draws the (dim, count) block of ``count`` such vectors: one
    (count, 2, modes) normal draw of real and imaginary parts, each vector
    normalized by its norm.  The norms are one stacked product over the
    strided real and imaginary views, the ``ddot`` calls ``np.linalg.norm``
    makes on each vector, so every vector is its single draw bit for bit.
    """
    if not (1 <= modes <= dim):
        raise UsageError(f"modes must lie in 1..{dim}, got {modes}")
    parts = rng.standard_normal((1 if count is None else count, 2, modes))
    phis = np.zeros((len(parts), dim), dtype=complex)
    re, im = phis.real, phis.imag
    re[:, :modes], im[:, :modes] = parts[:, 0], parts[:, 1]
    nrm = np.sqrt(re[:, None] @ re[:, :, None] + im[:, None] @ im[:, :, None])[:, 0]
    if not nrm.all():
        zero = nrm[:, 0] == 0
        phis[zero, 0], nrm[zero] = 1.0, 1.0
    phis /= nrm
    return phis[0] if count is None else phis.T


def group_element(rng: np.random.Generator, box: float, shape: tuple = ()) -> GroupElement:
    """Uniform chart coordinates in the cube |xi_k| <= box.

    A nonempty ``shape`` draws a block of elements with coordinates of that
    shape, e.g. (K, 3) for K triples (see ``GroupElement.unstack``).
    """
    v = rng.uniform(-box, box, size=(*shape, 3))
    if not shape:
        return GroupElement(float(v[0]), float(v[1]), float(v[2]))
    return GroupElement(v[..., 0], v[..., 1], v[..., 2])


def draw_samples(rng, count, box, dim, modes, elements=1, vectors=1):
    """``count`` samples, each ``elements`` group elements and then ``vectors`` interior vectors.

    The one interleaved sampler: each sample is that many single draws in
    that order, so these streams cannot be drawn as blocks.  Returns
    ``elements`` blocks of ``count`` group elements and then ``vectors``
    (dim, count) blocks of vectors, so a case evaluates all its samples in
    one block call.
    """
    draws = [
        [group_element(rng, box) for _ in range(elements)]
        + [interior_vector(rng, dim, modes) for _ in range(vectors)]
        for _ in range(count)
    ]
    columns = list(zip(*draws))
    return (
        *map(GroupElement.stack, columns[:elements]),
        *(np.array(c).T for c in columns[elements:]),
    )
