import numpy as np
import pytest

from scalerep.blockrep import block_generators
from scalerep.heisenberg import hermite_generators
from scalerep.scale import build_scale_chain

N = 64
M = 50


@pytest.fixture(scope="session")
def fam():
    return hermite_generators(N)


@pytest.fixture(scope="session")
def chain(fam):
    return build_scale_chain(fam.scale_family, 3)


@pytest.fixture(scope="session")
def blocks():
    return block_generators(M)


@pytest.fixture(scope="session")
def block_chain(blocks):
    return build_scale_chain(blocks, 2)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def h0(n=N):
    v = np.zeros(n, dtype=complex)
    v[0] = 1.0
    return v


def dense(X):
    """The dense matrix of a generator held in its own structure: the N x N
    matrix of the (2b + 1, N) diagonals of a band, X[b + d, i] = entry (i, i + d),
    or the block-diagonal 3M x 3M matrix of an (M, 3, 3) stack.  Every dense
    oracle of the tests reads its generators here."""
    X = np.asarray(X)
    if X.ndim == 3:
        M, n = len(X), np.arange(len(X))
        out = np.zeros((M, 3, M, 3), dtype=X.dtype)
        out[n, :, n, :] = X
        return out.reshape(3 * M, 3 * M)
    b, N = len(X) // 2, X.shape[1]
    diagonals = range(max(-b, 1 - N), min(b, N - 1) + 1)  # a band may be wider than N
    return sum(np.diag(X[b + d, max(0, -d) : N - max(0, d)], d) for d in diagonals)


def dense_gens(fam):
    """The dense generators of either model, or of a scale family, through ``dense``."""
    if hasattr(fam, "stacks"):
        return tuple(dense(S) for S in fam.stacks)
    return tuple(dense(X) for X in getattr(fam, "gens", None) or (fam.x1, fam.x2, fam.x3))


def dense_chain(gens, n_max):
    """The dense Gram recursion the structured forms replace (the oracle)."""
    G = np.eye(gens[0].shape[0], dtype=complex)
    grams = [G]
    for _ in range(n_max):
        nxt = G.copy()
        for X in gens:
            nxt = nxt + X.conj().T @ G @ X
        G = 0.5 * (nxt + nxt.conj().T)
        grams.append(G)
    return grams
