"""Undirected weighted graphs, stochastic block model generation, Laplacians."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import InvalidParams


class Graph:
    """Immutable undirected weighted graph without self-loops.

    Edges are stored once with i < j and strictly positive weight. Node
    indices run over [0, n). An optional per-node community label array is
    carried along for generated benchmark graphs.
    """

    def __init__(self, n, edges, communities=None):
        edges = np.asarray(edges, dtype=float)
        if edges.size == 0:
            edges = edges.reshape(0, 3)
        if edges.ndim != 2 or edges.shape[1] != 3:
            raise InvalidParams("edges must be an (m, 3) array of (i, j, w)")
        if np.any(edges[:, :2] != np.floor(edges[:, :2])):
            raise InvalidParams("edge endpoints must be integers")
        i = edges[:, 0].astype(np.int64)
        j = edges[:, 1].astype(np.int64)
        w = edges[:, 2].copy()
        self._init_from_arrays(int(n), i, j, w, communities)

    @classmethod
    def from_arrays(cls, n, edge_i, edge_j, edge_w, communities=None):
        """Build a graph from parallel index/weight arrays (no tuple overhead)."""
        g = cls.__new__(cls)
        g._init_from_arrays(
            int(n),
            np.asarray(edge_i, dtype=np.int64).copy(),
            np.asarray(edge_j, dtype=np.int64).copy(),
            np.asarray(edge_w, dtype=float).copy(),
            communities,
        )
        return g

    def _init_from_arrays(self, n, i, j, w, communities):
        if n < 1:
            raise InvalidParams("graph needs at least one node")
        swap = i > j
        i[swap], j[swap] = j[swap], i[swap]
        if np.any(i == j):
            raise InvalidParams("self-loops are not allowed")
        if np.any((i < 0) | (j >= n)):
            raise InvalidParams("edge endpoint outside [0, n)")
        if np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise InvalidParams("edge weights must be strictly positive and finite")
        keys = i * n + j
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        if np.any(keys[1:] == keys[:-1]):
            raise InvalidParams("duplicate edges")
        self.n = n
        self.edge_i = i[order]
        self.edge_j = j[order]
        self.edge_w = w[order]
        if communities is not None:
            communities = np.asarray(communities, dtype=np.int64)
            if communities.shape != (n,):
                raise InvalidParams("communities must have one label per node")
        self.communities = communities
        self._adj = None

    @property
    def num_edges(self):
        return len(self.edge_w)

    def adjacency(self) -> sp.csr_matrix:
        """Symmetric sparse adjacency matrix (cached)."""
        if self._adj is None:
            rows = np.concatenate([self.edge_i, self.edge_j])
            cols = np.concatenate([self.edge_j, self.edge_i])
            data = np.concatenate([self.edge_w, self.edge_w])
            self._adj = sp.csr_matrix((data, (rows, cols)), shape=(self.n, self.n))
        return self._adj

    def degrees(self) -> np.ndarray:
        """Weighted degree of every node."""
        return np.asarray(self.adjacency().sum(axis=1)).ravel()

    def has_unit_weights(self) -> bool:
        return bool(np.all(self.edge_w == 1.0))


class LaplacianView:
    """Combinatorial Laplacian of a graph, applied as an operator.

    Never materializes the dense matrix unless asked; `apply` works on
    vectors and on (n, m) column batches alike. Derived quantities that
    several stages share (L^r, eigh, lambda_max) are `cached` per view.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self.degree_vector = graph.degrees()
        self._cache = {}

    @property
    def n(self):
        return self.graph.n

    def apply(self, x: np.ndarray) -> np.ndarray:
        w = self.graph.adjacency()
        if x.ndim == 1:
            return self.degree_vector * x - w @ x
        return self.degree_vector[:, None] * x - w @ x

    def dense(self) -> np.ndarray:
        out = -self.graph.adjacency().toarray()
        np.fill_diagonal(out, self.degree_vector)
        return out

    def cached(self, key, compute):
        """compute() once per key; arrays in the result are made read-only."""
        if key not in self._cache:
            value = compute()
            for part in value if isinstance(value, tuple) else (value,):
                if isinstance(part, np.ndarray):
                    part.flags.writeable = False
            self._cache[key] = value
        return self._cache[key]

    def dense_power(self, r: int) -> np.ndarray:
        """Dense L^r (cached per power, read-only; desk scale only)."""
        return self.cached(("power", r), lambda: np.linalg.matrix_power(self.dense(), r))

    def eigh(self):
        """Dense eigh of L, eigenvalues ascending (cached, read-only; desk scale only)."""
        return self.cached("eigh", lambda: tuple(np.linalg.eigh(self.dense())))


def laplacian(g: Graph) -> LaplacianView:
    """Combinatorial Laplacian (degree matrix minus adjacency) of g."""
    return LaplacianView(g)


def component_labels(g: Graph) -> np.ndarray:
    """Component label of every node: the smallest node index in its component.

    Min-label hooking with pointer jumping (Shiloach-Vishkin) over the
    edge arrays: each round hooks every root to the smallest root across
    its edges, then flattens the trees, until nothing moves. Kept in numpy
    because importing scipy.sparse.csgraph also loads scipy.sparse.linalg,
    which costs the process about 11 MB and 0.2 s of import time.
    """
    u = np.concatenate([g.edge_i, g.edge_j])
    v = np.concatenate([g.edge_j, g.edge_i])
    parent = np.arange(g.n)
    while True:
        hooked = parent.copy()
        np.minimum.at(hooked, parent[u], parent[v])
        jumped = hooked[hooked]
        while not np.array_equal(jumped, hooked):
            hooked, jumped = jumped, jumped[jumped]
        if np.array_equal(hooked, parent):
            return parent
        parent = hooked


@dataclass(frozen=True)
class SbmParams:
    """Planted-partition model with equal-size communities.

    The model is parameterized by the target average degree c and the
    ratio eps of the inter- to intra-community connection probabilities,
    from which the probability pair is solved.
    """

    n: int
    k_comm: int
    c: float
    eps: float

    def __post_init__(self):
        if self.n < 1 or self.k_comm < 1:
            raise InvalidParams("n and k_comm must be positive")
        if self.n % self.k_comm != 0:
            raise InvalidParams("n must be divisible by k_comm")
        if not 0.0 <= self.eps <= 1.0:
            raise InvalidParams("eps must lie in [0, 1]")
        if not 0.0 < self.c < self.n:
            raise InvalidParams("average degree c must lie in (0, n)")
        q1, q2 = self.probabilities()
        if q1 > 1.0 or q2 > 1.0:
            raise InvalidParams(f"derived intra-community probability {q1:.4g} exceeds 1")

    @property
    def community_size(self) -> int:
        return self.n // self.k_comm

    def probabilities(self):
        """Intra/inter connection probabilities matching the target degree."""
        s = self.community_size
        denom = (s - 1) + self.eps * (self.n - s)
        if denom <= 0:
            raise InvalidParams("degenerate block sizes: no pair can realize the target degree")
        q1 = self.c / denom
        return q1, self.eps * q1


def critical_epsilon(c: float, k_comm: int) -> float:
    """Probability ratio above which planted communities become undetectable."""
    if c <= 1:
        raise InvalidParams("average degree must exceed 1")
    if k_comm < 1:
        raise InvalidParams("k_comm must be at least 1")
    root = np.sqrt(c)
    return (c - root) / (c + root * (k_comm - 1))


def _bernoulli_pair_indices(p: float, num_pairs: int, rng) -> np.ndarray:
    """Indices of successes among num_pairs independent Bernoulli(p) trials.

    Geometric gap skipping: expected cost is O(successes), never O(num_pairs).
    """
    if p <= 0.0 or num_pairs == 0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(num_pairs, dtype=np.int64)
    chunks = []
    pos = -1
    while True:
        expect = (num_pairs - pos) * p
        batch = max(256, int(expect * 1.2))
        # below p ~ 1e-18 numpy returns int64-max gaps, whose sum wraps negative
        gaps = np.minimum(rng.geometric(p, size=batch), num_pairs + 1)
        idx = pos + np.cumsum(gaps)
        if idx[-1] >= num_pairs:
            chunks.append(idx[idx < num_pairs])
            break
        chunks.append(idx)
        pos = int(idx[-1])
    return np.concatenate(chunks)


def _decode_triangular(t: np.ndarray, s: int):
    """Map linear indices over the strictly-upper-triangular pairs of an
    s x s block back to (row, col) with row < col."""
    tf = t.astype(np.float64)
    i = np.floor((2 * s - 1 - np.sqrt((2 * s - 1.0) ** 2 - 8.0 * tf)) / 2.0).astype(np.int64)
    i = np.clip(i, 0, s - 2)
    # float sqrt can land one row off near block boundaries
    for _ in range(2):
        start = i * (2 * s - i - 1) // 2
        i = np.where(start > t, i - 1, i)
        nxt = (i + 1) * (2 * s - i - 2) // 2
        i = np.where(t >= nxt, i + 1, i)
    start = i * (2 * s - i - 1) // 2
    j = t - start + i + 1
    return i, j


def sbm_generate(params: SbmParams, seed=None) -> Graph:
    """Draw one stochastic-block-model realisation.

    Unit edge weights; contiguous community blocks of size n/k_comm, with
    labels recorded on the returned graph. Each intra-community pair is
    connected independently with the intra probability, every other pair
    with the inter probability.
    """
    rng = np.random.default_rng(seed)
    q1, q2 = params.probabilities()
    s = params.community_size
    k = params.k_comm
    rows, cols = [], []
    for a in range(k):
        off_a = a * s
        t = _bernoulli_pair_indices(q1, s * (s - 1) // 2, rng)
        if len(t):
            i, j = _decode_triangular(t, s)
            rows.append(off_a + i)
            cols.append(off_a + j)
        for b in range(a + 1, k):
            off_b = b * s
            t = _bernoulli_pair_indices(q2, s * s, rng)
            if len(t):
                rows.append(off_a + t // s)
                cols.append(off_b + t % s)
    if rows:
        edge_i = np.concatenate(rows)
        edge_j = np.concatenate(cols)
    else:
        edge_i = np.empty(0, dtype=np.int64)
        edge_j = np.empty(0, dtype=np.int64)
    labels = np.repeat(np.arange(k, dtype=np.int64), s)
    return Graph.from_arrays(params.n, edge_i, edge_j, np.ones(len(edge_i)), communities=labels)
