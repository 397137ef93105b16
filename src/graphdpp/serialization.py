"""On-disk formats: Matrix Market graphs and CSV tables.

Graphs are symmetric coordinate Matrix Market files with an empty
diagonal. Every other file is a table read and written by the one pair
`read_csv`/`write_csv`: UTF-8, LF line endings, a header row, and floats
with 17 significant digits so round trips are bit-exact. Node-indexed
tables (community labels, inclusion probabilities) list every node
exactly once. Malformed input raises `ParseError` naming the file and,
for a bad field, its line.
"""

from __future__ import annotations

import csv
import io

import numpy as np
import scipy.io
import scipy.sparse as sp

from .dpp import SamplingSet
from .errors import InvalidParams, ParseError
from .graphs import Graph


def format_float(v: float) -> str:
    return format(float(v), ".17g")


def _field(v):
    if isinstance(v, float):
        return format_float(v)
    if isinstance(v, str) and "\r" in v and "\n" not in v:
        raise InvalidParams(f"text field {v!r} holds a carriage return without a line feed")
    return v


def write_csv(path, header, rows) -> None:
    """Write a header row and `rows`; float fields go through `format_float`.

    The csv module quotes only the characters of the LF line terminator,
    so a text field with a carriage return and no line feed would be
    written bare and split on reading. Such a field raises InvalidParams;
    the table is formatted in memory first, so the file is never opened.
    """
    text = io.StringIO(newline="")
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_field(v) for v in row] for row in rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text.getvalue())


def read_csv(path, header, kinds) -> list:
    """Read a table written by `write_csv`, one list per column.

    The first row must equal `header`, blank rows are skipped, and each
    field is converted by the matching callable in `kinds`. A row of the
    wrong width or a field its kind rejects raises `ParseError`.
    """
    columns = [[] for _ in header]
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        found = next(reader, None)
        if found is None or [h.strip() for h in found] != list(header):
            raise ParseError(f"{path}: expected header {','.join(header)}")
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"{path}:{reader.line_num}: expected {len(header)} fields")
            for column, kind, name, value in zip(columns, kinds, header, row):
                try:
                    column.append(kind(value))
                except ValueError as exc:
                    raise ParseError(f"{path}:{reader.line_num}: bad {name} {value!r}") from exc
    return columns


def _read_by_node(path, column, kind, n=None) -> np.ndarray:
    """Values of a `node,<column>` table in node order; the node column
    must list each of the n nodes (all rows when n is None) exactly once."""
    nodes, values = read_csv(path, ["node", column], [int, kind])
    n = len(nodes) if n is None else n
    if sorted(nodes) != list(range(n)):
        raise ParseError(f"{path}: node column must list each node 0..{n - 1} once")
    return np.asarray(values)[np.argsort(nodes)]


def save_graph(g: Graph, path, labels_path=None) -> None:
    """Write the adjacency in symmetric coordinate Matrix Market format,
    with community labels in an optional sidecar CSV."""
    scipy.io.mmwrite(str(path), g.adjacency(), symmetry="symmetric", precision=17)
    if labels_path is not None:
        if g.communities is None:
            raise ParseError("graph carries no community labels to write")
        write_csv(labels_path, ["node", "community"], enumerate(g.communities.tolist()))


def load_graph(path, labels_path=None) -> Graph:
    entries = sp.coo_matrix(scipy.io.mmread(str(path)))
    n = entries.shape[0]
    if entries.shape[1] != n:
        raise ParseError("adjacency matrix must be square")
    mat = entries.tocsr()
    if mat.nnz != entries.nnz or (mat != mat.T).nnz or mat.diagonal().any():
        raise ParseError(
            f"{path}: adjacency must be symmetric, with an empty diagonal and no repeated entry"
        )
    upper = sp.triu(mat, k=1).tocoo()
    communities = None
    if labels_path is not None:
        communities = _read_by_node(labels_path, "community", int, n)
    return Graph.from_arrays(n, upper.row, upper.col, upper.data, communities=communities)


def save_signal(x: np.ndarray, path) -> None:
    write_csv(path, ["value"], ([v] for v in np.asarray(x, dtype=float).tolist()))


def load_signal(path) -> np.ndarray:
    (values,) = read_csv(path, ["value"], [float])
    return np.array(values, dtype=float)


def _optional_float(field: str):
    return float(field) if field.strip() else None


def save_sampling(s: SamplingSet, path) -> None:
    """Write `node,weight` rows; the weight field is empty when unfilled."""
    weights = [""] * len(s) if s.weights is None else s.weights.tolist()
    write_csv(path, ["node", "weight"], zip(s.nodes.tolist(), weights))


def load_sampling(path, method: str = "file") -> SamplingSet:
    nodes, weights = read_csv(path, ["node", "weight"], [int, _optional_float])
    missing = weights.count(None)
    if 0 < missing < len(weights):
        raise ParseError(f"{path}: weights must be all present or all empty")
    w = None if missing == len(weights) else np.array(weights, dtype=float)
    return SamplingSet(nodes=np.array(nodes, dtype=np.int64), weights=w, method=method)


def save_probabilities(values: np.ndarray, path) -> None:
    write_csv(path, ["node", "value"], enumerate(np.asarray(values, dtype=float).tolist()))


def load_probabilities(path) -> np.ndarray:
    return _read_by_node(path, "value", float)
