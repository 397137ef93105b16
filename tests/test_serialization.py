"""File format round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdpp import Graph, SamplingSet, SbmParams, sbm_generate
from graphdpp.errors import InvalidParams, ParseError
from graphdpp.experiments import ResultRow, emit_csv, parse_result_csv
from graphdpp.serialization import (
    load_graph,
    load_probabilities,
    load_sampling,
    load_signal,
    read_csv,
    save_graph,
    save_probabilities,
    save_sampling,
    save_signal,
    write_csv,
)

from conftest import assert_same_edges


class TestGraphRoundTrip:
    def test_weighted_graph_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        edges = [
            (i, j, float(rng.uniform(0.1, 3.0)))
            for i in range(12)
            for j in range(i + 1, 12)
            if rng.random() < 0.4
        ]
        g = Graph(12, edges)
        path = tmp_path / "g.mtx"
        save_graph(g, path)
        assert_same_edges(load_graph(path), g)

    def test_labels_sidecar(self, tmp_path):
        g = sbm_generate(SbmParams(n=20, k_comm=2, c=4.0, eps=0.3), 1)
        save_graph(g, tmp_path / "g.mtx", labels_path=tmp_path / "labels.csv")
        back = load_graph(tmp_path / "g.mtx", labels_path=tmp_path / "labels.csv")
        np.testing.assert_array_equal(back.communities, g.communities)

    def test_isolated_nodes_preserved(self, tmp_path):
        g = Graph(5, [(0, 1, 1.0)])
        save_graph(g, tmp_path / "g.mtx")
        assert load_graph(tmp_path / "g.mtx").n == 5


class TestSignalRoundTrip:
    def test_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(40) * np.exp(rng.uniform(-9, 9, size=40))
        save_signal(x, tmp_path / "x.csv")
        back = load_signal(tmp_path / "x.csv")
        np.testing.assert_array_equal(back, x)

    def test_header_enforced(self, tmp_path):
        (tmp_path / "bad.csv").write_text("wrong\n1.0\n")
        with pytest.raises(ParseError):
            load_signal(tmp_path / "bad.csv")


class TestSamplingRoundTrip:
    def test_with_weights(self, tmp_path):
        s = SamplingSet(
            nodes=np.array([4, 4, 9]), weights=np.array([0.25, 0.25, 1.5]), method="iid"
        )
        save_sampling(s, tmp_path / "s.csv")
        back = load_sampling(tmp_path / "s.csv")
        np.testing.assert_array_equal(back.nodes, s.nodes)
        np.testing.assert_array_equal(back.weights, s.weights)

    def test_without_weights(self, tmp_path):
        s = SamplingSet(nodes=np.array([1, 2]), weights=None, method="wilson")
        save_sampling(s, tmp_path / "s.csv")
        assert load_sampling(tmp_path / "s.csv").weights is None

    def test_empty_weighted_set_is_unweighted(self, tmp_path):
        s = SamplingSet(nodes=np.array([], dtype=np.int64), weights=np.array([]), method="iid")
        assert s.weights is None
        save_sampling(s, tmp_path / "s.csv")
        back = load_sampling(tmp_path / "s.csv")
        assert len(back) == 0 and back.weights is None

    def test_mixed_weights_rejected(self, tmp_path):
        (tmp_path / "s.csv").write_text("node,weight\n1,0.5\n2,\n")
        with pytest.raises(ParseError):
            load_sampling(tmp_path / "s.csv")


class TestWriteCsv:
    @pytest.mark.parametrize("text", ["a\rb", "\r", "end\r"])
    def test_lone_carriage_return_refused_before_opening(self, tmp_path, text):
        path = tmp_path / "t.csv"
        with pytest.raises(InvalidParams, match="carriage return"):
            write_csv(path, ["a", "s", "b"], [(1.0, text, 2)])
        assert not path.exists()

    @pytest.mark.parametrize("text", ["a\r\nb", "a\rb\nc", "a\nb"])
    def test_carriage_return_with_line_feed_round_trips(self, tmp_path, text):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "s", "b"], [(1.0, text, 2)])
        assert read_csv(path, ["a", "s", "b"], [float, str, int]) == [[1.0], [text], [2]]


class TestProbabilitiesRoundTrip:
    def test_bit_exact(self, tmp_path):
        v = np.random.default_rng(3).random(25)
        save_probabilities(v, tmp_path / "pi.csv")
        np.testing.assert_array_equal(load_probabilities(tmp_path / "pi.csv"), v)


class TestMalformedInput:
    @pytest.fixture
    def graph_path(self, tmp_path):
        path = tmp_path / "g.mtx"
        save_graph(Graph(3, [(0, 1, 1.0), (1, 2, 2.0)]), path)
        return path

    @pytest.mark.parametrize(
        "rows",
        [
            "0,1\n1,0\n-1,1\n",  # would wrap around to the last node
            "0,1\n1,0\n3,1\n",  # past the last node
            "0,1\n1,0\n1,1\n",  # node 1 twice, node 2 never
            "0,1\n2,1\n",  # node 1 missing
            "0,1\n1.7,0\n2,1\n",  # would truncate to node 1
        ],
        ids=["negative", "past-end", "duplicate", "missing", "fractional"],
    )
    def test_node_column_lists_each_node_once(self, tmp_path, graph_path, rows):
        (tmp_path / "labels.csv").write_text("node,community\n" + rows)
        with pytest.raises(ParseError):
            load_graph(graph_path, labels_path=tmp_path / "labels.csv")
        (tmp_path / "pi.csv").write_text("node,value\n" + rows)
        with pytest.raises(ParseError):
            load_probabilities(tmp_path / "pi.csv")

    def test_bad_field_names_its_line(self, tmp_path):
        (tmp_path / "x.csv").write_text("value\n1.5\n\nabc\n")
        with pytest.raises(ParseError, match=r"x\.csv:4:"):
            load_signal(tmp_path / "x.csv")

    @pytest.mark.parametrize(
        "entries",
        [
            "3 3 2\n2 1 1.0\n3 2 2.0\n",  # lower triangle only
            "3 3 4\n1 2 1.0\n2 1 1.0\n2 3 2.0\n3 2 5.0\n",  # asymmetric weights
            "3 3 3\n1 2 1.0\n2 1 1.0\n3 3 1.0\n",  # a self-loop on the diagonal
        ],
        ids=["lower-only", "asymmetric", "diagonal"],
    )
    def test_general_matrix_must_be_symmetric_and_hollow(self, tmp_path, entries):
        path = tmp_path / "g.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n" + entries)
        with pytest.raises(ParseError):
            load_graph(path)

    def test_general_symmetric_matrix_loads(self, tmp_path, graph_path):
        path = tmp_path / "general.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "3 3 4\n1 2 1.0\n2 1 1.0\n2 3 2.0\n3 2 2.0\n"
        )
        assert_same_edges(load_graph(path), load_graph(graph_path))


# Every finite double, and the ones most likely to lose bits in text:
# signed zero, subnormals and magnitudes near the exponent limits.
finite_floats = st.one_of(
    st.sampled_from([-0.0, 5e-324, -2.5e-310, 1e300, -1e300, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
positive_floats = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)


@st.composite
def labelled_graphs(draw):
    """Graphs with isolated nodes and several components, and edge
    weights anywhere from subnormal to the largest double."""
    n = draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=n)) if pairs else []
    weights = draw(st.lists(positive_floats, min_size=len(chosen), max_size=len(chosen)))
    labels = draw(st.lists(st.integers(-(2**62), 2**62), min_size=n, max_size=n))
    return Graph(n, [(i, j, w) for (i, j), w in zip(chosen, weights)], communities=labels)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=150, deadline=None)
@given(g=labelled_graphs())
def test_graph_round_trip_is_bit_exact(tmp_path_factory, g):
    d = tmp_path_factory.mktemp("graph")
    save_graph(g, d / "g.mtx", labels_path=d / "labels.csv")
    back = load_graph(d / "g.mtx", labels_path=d / "labels.csv")
    assert back.n == g.n
    for name in ("edge_i", "edge_j", "edge_w", "communities"):
        assert same_bits(getattr(back, name), getattr(g, name))


@settings(max_examples=150, deadline=None)
@given(x=st.lists(finite_floats, max_size=30))
def test_signal_round_trip_is_bit_exact(tmp_path_factory, x):
    path = tmp_path_factory.mktemp("signal") / "x.csv"
    save_signal(np.array(x, dtype=float), path)
    assert same_bits(load_signal(path), np.array(x, dtype=float))


@settings(max_examples=150, deadline=None)
@given(
    nodes=st.lists(st.integers(0, 8), max_size=12),
    weighted=st.booleans(),
    data=st.data(),
)
def test_sampling_round_trip_is_bit_exact(tmp_path_factory, nodes, weighted, data):
    weights = None
    if weighted:
        weights = data.draw(st.lists(positive_floats, min_size=len(nodes), max_size=len(nodes)))
    s = SamplingSet(nodes=nodes, weights=weights, method="t")
    path = tmp_path_factory.mktemp("sampling") / "s.csv"
    save_sampling(s, path)
    back = load_sampling(path)
    assert same_bits(back.nodes, s.nodes)
    if s.weights is None:
        assert back.weights is None
    else:
        assert same_bits(back.weights, s.weights)


@settings(max_examples=150, deadline=None)
@given(values=st.lists(st.floats(0.0, 1.0), max_size=30))
def test_probabilities_round_trip_is_bit_exact(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("pi") / "pi.csv"
    save_probabilities(np.array(values, dtype=float), path)
    assert same_bits(load_probabilities(path), np.array(values, dtype=float))


sampler_names = st.one_of(
    st.sampled_from(["wilson", "a,b", 'say "dpp"', "two\nlines", "cr\r\nlf", " padded ", ""]),
    st.text(st.characters(blacklist_categories=("Cs",))),
)


@st.composite
def result_rows(draw):
    p10, p90 = sorted(draw(st.lists(finite_floats, min_size=2, max_size=2)))
    return ResultRow(
        sweep_value=draw(finite_floats),
        sampler=draw(sampler_names),
        mean_error=draw(finite_floats),
        p10=p10,
        p90=p90,
        mean_samples=draw(finite_floats),
        trials=draw(st.integers(0, 2**62)),
    )


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(result_rows(), max_size=5))
def test_result_table_round_trip_is_bit_exact(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("results") / "out.csv"
    if any("\r" in row.sampler and "\n" not in row.sampler for row in rows):
        # the csv module would leave such a name unquoted
        with pytest.raises(InvalidParams):
            emit_csv(rows, path)
        return
    emit_csv(rows, path)
    # repr of a float is exact and keeps the sign of zero
    assert repr(parse_result_csv(path)) == repr(rows)
