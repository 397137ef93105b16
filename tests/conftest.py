"""Shared fixtures: tiny named graphs, a weighted-graph strategy and exact
determinantal-law oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import strategies as st

from graphdpp import Graph


def assert_same_edges(a, b):
    """The two graphs hold the same canonical edge arrays."""
    assert a.n == b.n
    for x, y in zip(a.edges(), b.edges()):
        np.testing.assert_array_equal(x, y)


@st.composite
def edge_lists(draw):
    """Graphs with isolated nodes, several components and weighted edges,
    as (n, [(i, j, w)]) with i < j."""
    n = draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)) if pairs else []
    weights = draw(st.lists(st.floats(1e-3, 1e3), min_size=len(chosen), max_size=len(chosen)))
    return n, [(i, j, w) for (i, j), w in zip(chosen, weights)]


@pytest.fixture
def k2():
    return Graph(2, [(0, 1, 1.0)])


@pytest.fixture
def p3():
    return Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])


@pytest.fixture
def triangle():
    return Graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])


@pytest.fixture
def two_k2():
    return Graph(4, [(0, 1, 1.0), (2, 3, 1.0)])


@pytest.fixture
def edgeless5():
    return Graph(5, [])


def dpp_exact_law(kernel_matrix):
    """Exact subset law of a determinantal process, straight from the
    inclusion probabilities: P(A = S) obtained by Moebius inversion of
    P(T subset of A) = det(K_T) over all supersets T of S.

    Independent of any sampling code; practical up to ~10 items.
    """
    k = np.asarray(kernel_matrix, dtype=float)
    n = k.shape[0]
    law = {}
    for s in range(1 << n):
        s_idx = [i for i in range(n) if s >> i & 1]
        rest = [i for i in range(n) if not s >> i & 1]
        total = 0.0
        for extra in range(1 << len(rest)):
            t_idx = s_idx + [rest[i] for i in range(len(rest)) if extra >> i & 1]
            sign = -1.0 if bin(extra).count("1") % 2 else 1.0
            sub = k[np.ix_(t_idx, t_idx)]
            det = np.linalg.det(sub) if t_idx else 1.0
            total += sign * det
        law[frozenset(s_idx)] = total
    return law


def empirical_tv(samples, law):
    """Total-variation distance between an empirical subset distribution
    (list of index iterables) and an exact law (frozenset -> probability)."""
    counts = {}
    for s in samples:
        key = frozenset(int(i) for i in s)
        counts[key] = counts.get(key, 0) + 1
    total = len(samples)
    keys = set(counts) | set(law)
    return 0.5 * sum(abs(counts.get(k, 0) / total - law.get(k, 0.0)) for k in keys)


def exhaustive_best_volume(u_k):
    """Largest determinant of the restriction Gram over all size-k node sets."""
    n, k = u_k.shape
    best = 0.0
    for nodes in itertools.combinations(range(n), k):
        sub = u_k[list(nodes), :]
        best = max(best, abs(np.linalg.det(sub.T @ sub)))
    return best
