"""Undirected weighted graphs, stochastic block model generation, Laplacians."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import InvalidParams, OutOfRange


def index_array(values, what: str, n=None) -> np.ndarray:
    """values as int64 (integer input is not copied); floats must be finite whole
    numbers, other dtypes fail, booleans too: a mask is no list of indices. With n,
    the size of what they index, each must lie in [0, n)."""
    v = np.asarray(values)
    kind = v.dtype.kind
    if kind not in "iuf" or kind == "f" and not np.all(np.isfinite(v) & (v == np.floor(v))):
        raise InvalidParams(f"{what} must be integers")
    v = v.astype(np.int64, copy=False)
    if n is not None and ((v < 0) | (v >= n)).any():
        raise OutOfRange(f"{what} must lie in [0, {n})")
    return v


def count(value, what: str, minimum: int = 1) -> int:
    """value as an int of at least `minimum`, through index_array: a
    fractional, NaN, non-numeric or non-scalar count, or one below the
    minimum, raises InvalidParams."""
    v = index_array(value, what)
    if v.ndim:
        raise InvalidParams(f"{what} must be a single integer")
    if v < minimum:
        raise InvalidParams(f"{what} must be at least {minimum}")
    return int(v)


def bandlimit(k, n: int) -> int:
    """k, a number of lowest graph frequencies, as an int: a fractional,
    non-numeric or non-scalar k raises InvalidParams, as a count does, and
    a whole k outside [1, n] OutOfRange."""
    v = index_array(k, "k")
    if v.ndim:
        raise InvalidParams("k must be a single integer")
    if not 1 <= v <= n:
        raise OutOfRange(f"k must lie in [1, {n}], got {k}")
    return int(v)


class Graph:
    """Immutable undirected weighted graph without self-loops.

    Its one stored form is the symmetric CSR adjacency, built at
    construction; edge weights are strictly positive and node indices run
    over [0, n). An optional per-node community label array is carried
    along for generated benchmark graphs.
    """

    def __init__(self, n, edges, communities=None):
        edges = np.asarray(edges, dtype=float)
        if edges.size == 0:
            edges = edges.reshape(0, 3)
        if edges.ndim != 2 or edges.shape[1] != 3:
            raise InvalidParams("edges must be an (m, 3) array of (i, j, w)")
        self._init_from_arrays(n, edges[:, 0], edges[:, 1], edges[:, 2], communities)

    @classmethod
    def from_arrays(cls, n, edge_i, edge_j, edge_w, communities=None):
        """Build a graph from parallel index/weight arrays (no tuple overhead)."""
        g = cls.__new__(cls)
        g._init_from_arrays(n, edge_i, edge_j, edge_w, communities)
        return g

    def _init_from_arrays(self, n, i, j, w, communities):
        n = count(n, "node count")
        i, j = index_array(i, "edge endpoints", n), index_array(j, "edge endpoints", n)
        w = np.asarray(w, dtype=float)
        if i.ndim != 1 or not i.shape == j.shape == w.shape:
            raise InvalidParams("edge arrays must be one-dimensional and of equal length")
        if np.any(i == j):
            raise InvalidParams("self-loops are not allowed")
        if np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise InvalidParams("edge weights must be strictly positive and finite")
        half = sp.csr_matrix((w, (i, j)), shape=(n, n))
        # scipy sums a repeated pair, in either orientation, into one entry
        self._adj = half + half.T
        if self._adj.nnz != 2 * len(w):
            raise InvalidParams("duplicate edges")
        self.n = n
        if communities is not None:
            communities = index_array(communities, "community labels")
            if communities.shape != (n,):
                raise InvalidParams("communities must have one label per node")
        self.communities = communities
        self._unit_weights = bool(np.all(w == 1.0))
        self._degrees = None
        self._running_sums = None

    @property
    def num_edges(self):
        return self._adj.nnz // 2

    def adjacency(self) -> sp.csr_matrix:
        """Symmetric sparse adjacency matrix."""
        return self._adj

    def edges(self):
        """Edge arrays (i, j, w) with i < j in (i, j) order; int64 endpoints."""
        rows = np.repeat(np.arange(self.n), np.diff(self._adj.indptr))
        upper = rows < self._adj.indices
        return rows[upper], self._adj.indices[upper].astype(np.int64), self._adj.data[upper]

    def degrees(self) -> np.ndarray:
        """Weighted degree of every node (cached, read-only); InvalidParams if one overflows."""
        if self._degrees is None:
            with np.errstate(over="ignore"):
                degrees = np.asarray(self._adj.sum(axis=1)).ravel()
            if not np.isfinite(degrees).all():
                raise InvalidParams("weighted degrees must be finite")
            degrees.flags.writeable = False
            self._degrees = degrees
        return self._degrees

    def running_sums(self) -> np.ndarray:
        """Running weight sums of every adjacency row (cached, read-only), added
        left to right as a per-row np.cumsum does: pass k adds entry k - 1 into
        entry k of the rows longer than k."""
        if self._running_sums is None:
            cum = self._adj.data.copy()
            pos, end = self._adj.indptr[:-1] + 1, self._adj.indptr[1:]
            while True:
                keep = pos < end
                pos, end = pos[keep], end[keep]
                if not len(pos):
                    break
                cum[pos] += cum[pos - 1]
                pos += 1
            cum.flags.writeable = False
            self._running_sums = cum
        return self._running_sums

    def has_unit_weights(self) -> bool:
        return self._unit_weights

    def disjoint_copies(self, copies: int) -> Graph:
        """The disjoint union of `copies` copies of this graph, copy c on
        nodes [c n, (c + 1) n). Its CSR adjacency is this one's tiled, each
        copy's column indices shifted by c n, so rows keep their entry order
        and no edge list is rebuilt or validated again; the degrees,
        community labels and unit-weight flag are tiled too."""
        copies = count(copies, "copies")
        adj, n = self._adj, self.n
        # int32 where it fits: scipy scans and copies int64 indices down to it,
        # 0.66 against 0.10 ms for 50 copies of an n = 100 SBM (2-core Xeon)
        fits = copies * max(n, adj.nnz) <= np.iinfo(np.int32).max
        offsets = np.arange(copies, dtype=np.int32 if fits else np.int64)[:, None]
        indices = (adj.indices + offsets * n).ravel()
        indptr = np.append((adj.indptr[:-1] + offsets * adj.nnz).ravel(), copies * adj.nnz)
        union = Graph.__new__(Graph)
        union.n = copies * n
        union._adj = sp.csr_matrix(
            (np.tile(adj.data, copies), indices, indptr), shape=(union.n, union.n)
        )
        union.communities = None if self.communities is None else np.tile(self.communities, copies)
        union._unit_weights = self._unit_weights
        union._degrees = np.tile(self.degrees(), copies)
        union._degrees.flags.writeable = False
        union._running_sums = None
        return union


class LaplacianView:
    """Combinatorial Laplacian of a graph, applied as an operator.

    `L = D - W` is built once as a CSR matrix, so `apply` is one sparse
    product for vectors and (n, m) column batches alike. The dense matrix
    is made only when asked for, from the negated adjacency rather than
    the CSR matrix: its off-diagonal zeros are then -0.0, and LAPACK's
    `eigh` picks eigenvector signs by that sign, so the recorded outputs
    downstream of the eigenvectors depend on it. The modules that derive
    quantities from L keep them in the view's `cached` store, one per key.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self.degree_vector = graph.degrees()
        self.matrix = (sp.diags(self.degree_vector) - graph.adjacency()).tocsr()
        self._cache = {}

    @property
    def n(self):
        return self.graph.n

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x

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

    def scaled(self, factor: float) -> LaplacianView:
        """factor * L in single precision, for products that need no more."""
        return _ScaledLaplacianView(self, factor)


class _ScaledLaplacianView(LaplacianView):
    """factor * L as float32 values on the CSR index arrays of lap.matrix,
    which it shares. Its cache starts empty and nothing else keeps it, so
    a view made per use is freed with it."""

    def __init__(self, lap: LaplacianView, factor: float):
        self.graph, self._cache = lap.graph, {}
        self.degree_vector = (lap.degree_vector * factor).astype(np.float32)
        m = lap.matrix
        data = (m.data * factor).astype(np.float32)
        # subnormal entries make the products several times slower
        data[np.abs(data) < np.finfo(np.float32).tiny] = 0.0
        self.matrix = sp.csr_matrix((data, m.indices, m.indptr), shape=m.shape)

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()


def laplacian(g: Graph) -> LaplacianView:
    """Combinatorial Laplacian (degree matrix minus adjacency) of g."""
    return LaplacianView(g)


def component_labels(g: Graph) -> np.ndarray:
    """Component label of every node: the smallest node index in its component.

    Min-label hooking with pointer jumping (Shiloach-Vishkin) over the
    CSR entries: each round hooks every root to the smallest root across
    its edges, then flattens the trees, until nothing moves. Kept in numpy
    because importing scipy.sparse.csgraph also loads scipy.sparse.linalg,
    which costs the process about 11 MB and 0.2 s of import time.
    """
    adj = g.adjacency()
    u, v = np.repeat(np.arange(g.n), np.diff(adj.indptr)), adj.indices
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
        # frozen: the whole-number counts are stored as ints through object.__setattr__
        object.__setattr__(self, "n", count(self.n, "n"))
        object.__setattr__(self, "k_comm", count(self.k_comm, "k_comm"))
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
    s x s block back to (row, col) with row < col, by binary search over
    the exact integer row starts i (2s - i - 1) / 2."""
    rows = np.arange(s - 1)
    starts = rows * (2 * s - rows - 1) // 2
    i = np.searchsorted(starts, t, side="right") - 1
    return i, t - starts[i] + i + 1


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
