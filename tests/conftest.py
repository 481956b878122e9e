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
