import numpy as np
import pytest

from scalerep.errors import UsageError
from scalerep.liecore import GroupElement
from scalerep.sampling import case_rng, group_element, interior_vector


def streams(seed):
    return case_rng(seed, "sampling", "blocks"), case_rng(seed, "sampling", "blocks")


@pytest.mark.parametrize("seed", (0, 7, 42))
@pytest.mark.parametrize("shape", ((1,), (5,), (200,), (7, 2), (4, 3)))
def test_block_of_elements_is_the_successive_single_draws(seed, shape):
    single, block = streams(seed)
    expected = np.array([group_element(single, 1.7).as_array() for _ in range(np.prod(shape))])
    drawn = group_element(block, 1.7, shape)
    assert np.shape(drawn.xi1) == shape
    assert np.array_equal(drawn.as_array().reshape(-1, 3), expected)
    # the streams stay in step after the block
    assert np.array_equal(single.uniform(size=4), block.uniform(size=4))


def test_single_element_keeps_python_floats():
    g = group_element(case_rng(1, "sampling", "floats"), 2.0)
    assert all(type(x) is float for x in (g.xi1, g.xi2, g.xi3))


def test_unstack_splits_a_block_of_tuples_in_draw_order():
    single, block = streams(3)
    triples = [[group_element(single, 2.0) for _ in range(3)] for _ in range(6)]
    g, h, k = group_element(block, 2.0, (6, 3)).unstack()
    for j, column in enumerate((g, h, k)):
        assert np.array_equal(column.as_array(), [t[j].as_array() for t in triples])
    first, *_ = GroupElement(np.arange(4.0), np.ones(4), np.zeros(4)).unstack()
    assert (first.xi1, first.xi2, first.xi3) == (0.0, 1.0, 0.0)


@pytest.mark.parametrize("seed", (0, 7, 42))
@pytest.mark.parametrize("shape", ((1,), (5,), (200,), (7, 2), (4, 3)))
def test_stack_undoes_unstack_bit_for_bit(seed, shape):
    drawn = group_element(case_rng(seed, "sampling", "stack"), 1.7, shape)
    again = GroupElement.stack(drawn.unstack())
    for a, b in zip((again.xi1, again.xi2, again.xi3), (drawn.xi1, drawn.xi2, drawn.xi3)):
        assert a.shape == b.shape and np.array_equal(a, b)


def test_stack_of_successive_single_draws_is_the_block_draw():
    single, block = streams(11)
    gs = [group_element(single, 2.0) for _ in range(9)]
    stacked = GroupElement.stack(gs)
    assert np.shape(stacked.xi3) == (9,)
    assert np.array_equal(stacked.as_array(), group_element(block, 2.0, (9,)).as_array())
    for back, g in zip(stacked.unstack(), gs, strict=True):
        assert back.as_array().tolist() == g.as_array().tolist()


@pytest.mark.parametrize("seed", (0, 7, 42))
@pytest.mark.parametrize(
    "dim, modes, count", ((64, 64, 1), (64, 16, 9), (64, 57, 100), (150, 150, 30))
)
def test_block_of_vectors_is_the_successive_single_draws(seed, dim, modes, count):
    single, block = streams(seed)
    expected = np.array([interior_vector(single, dim, modes) for _ in range(count)]).T
    drawn = interior_vector(block, dim, modes, count)
    assert drawn.shape == (dim, count)
    assert np.array_equal(drawn, expected)
    assert np.array_equal(single.uniform(size=4), block.uniform(size=4))


def test_interior_vector_is_unit_and_supported_on_its_modes():
    phis = interior_vector(case_rng(5, "sampling", "unit"), 32, 10, 12)
    assert np.allclose(np.linalg.norm(phis, axis=0), 1.0, rtol=0, atol=1e-15)
    assert not np.any(phis[10:])
    with pytest.raises(UsageError):
        interior_vector(case_rng(5, "sampling", "unit"), 32, 33, 2)


def normalized_one_by_one(parts, dim):
    """The (dim, K) block normalized by one np.linalg.norm call per vector (the oracle)."""
    modes = parts.shape[-1]
    out = []
    for re, im in parts:
        phi = np.zeros(dim, dtype=complex)
        phi[:modes] = re + 1j * im
        nrm = np.linalg.norm(phi)
        if nrm == 0:
            phi[0], nrm = 1.0, 1.0
        out.append(phi / nrm)
    return np.array(out).T


@pytest.mark.parametrize("dim", (13, 64, 160, 450, 1024))
@pytest.mark.parametrize("count", (1, 25, 100))
def test_stacked_norms_are_the_per_vector_norm_calls(dim, count):
    for modes in (dim, (dim + 1) // 2):
        drawn, oracle = streams(dim + count)
        expected = normalized_one_by_one(oracle.standard_normal((count, 2, modes)), dim)
        assert np.array_equal(interior_vector(drawn, dim, modes, count), expected)


class StubNormals:
    """Hands out fixed normal draws, so a draw of all zeros can be forced."""

    def __init__(self, parts):
        self.parts = parts

    def standard_normal(self, shape):
        assert shape == self.parts.shape
        return self.parts


def test_an_all_zero_draw_becomes_the_first_basis_vector():
    parts = np.random.default_rng(3).standard_normal((4, 2, 6))
    parts[[1, 3]] = 0.0
    drawn = interior_vector(StubNormals(parts), 9, 6, 4)
    assert np.array_equal(drawn, normalized_one_by_one(parts, 9))
    assert np.array_equal(drawn[:, 1], np.eye(9)[0]) and np.array_equal(drawn[:, 3], np.eye(9)[0])
    single = interior_vector(StubNormals(np.zeros((1, 2, 6))), 9, 6)
    assert np.array_equal(single, np.eye(9)[0])
