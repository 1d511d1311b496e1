import itertools
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leadersel.graphs as graphs_module
from leadersel.errors import GraphError, LeaderSelError, SchemaError
from leadersel.graphs import (
    build_graph,
    erdos_renyi,
    erdos_renyi_connected,
    graph_payload,
    is_connected,
    laplacian,
    parse_graph_payload,
    read_graph_file,
    write_graph,
)

from conftest import edge_list, graphs, loop_build_graph, loop_is_connected

K2 = build_graph(2, [(0, 1, 1.0)])
P3 = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])


def test_build_graph_k2():
    assert K2.n == 2
    assert edge_list(K2) == ((0, 1, 1.0),)
    assert not (K2.u.flags.writeable or K2.v.flags.writeable or K2.w.flags.writeable)


def test_build_graph_canonicalizes_orientation_and_order():
    g = build_graph(3, [(2, 1, 1.0), (1, 0, 2.0)])
    assert edge_list(g) == ((0, 1, 2.0), (1, 2, 1.0))


def test_build_graph_six_node(six_node):
    assert six_node.graph.n == 6
    assert edge_list(six_node.graph) == (
        (0, 4, 1.0),
        (1, 2, 1.0),
        (1, 3, 1.0),
        (1, 5, 1.0),
        (2, 5, 1.0),
        (3, 4, 1.0),
    )
    assert six_node.label_base == 1


@pytest.mark.parametrize(
    "edges, message",
    [
        pytest.param([(0, 0, 1.0)], "self-loop at node 0", id="edges0-SelfLoopError"),
        pytest.param([(0, 1, 1.0), (1, 0, 2.0)], "duplicate undirected edge (0, 1)",
                     id="edges1-DuplicateEdgeError"),
        pytest.param([(0, 1, 0.0)], "edge (0, 1) weight 0.0 must be positive and finite",
                     id="edges2-NonPositiveWeightError"),
        pytest.param([(0, 1, -2.0)], "edge (0, 1) weight -2.0 must be positive and finite",
                     id="edges3-NonPositiveWeightError"),
        pytest.param([(0, 5, 1.0)], "edge (0, 5) references a node outside [0, 2)",
                     id="edges4-NodeOutOfRangeError"),
        pytest.param([(0, 1, math.nan)], "edge (0, 1) weight nan must be positive and finite",
                     id="edges5-NonPositiveWeightError"),
        pytest.param([(0, 1, math.inf)], "edge (0, 1) weight inf must be positive and finite",
                     id="edges6-NonPositiveWeightError"),
        pytest.param([(0, 1, -math.inf)], "edge (0, 1) weight -inf must be positive and finite",
                     id="edges7-NonPositiveWeightError"),
    ],
)
def test_build_graph_rejects(edges, message):
    with pytest.raises(GraphError, match=re.escape(message)):
        build_graph(2, edges)


@pytest.mark.parametrize("edges", [
    [(0.5, 1.9, 1.0), (1.2, 2.7, 1.0)],  # truncated, the path 0-1-2
    *([(0, 1, 1.0), (1, end, 1.0)] for end in (0.5, 1.9, -0.5, math.nan, math.inf, -math.inf)),
])
def test_build_graph_refuses_endpoint_that_is_not_an_integer(edges):
    with pytest.raises(GraphError) as got:
        build_graph(3, edges)
    assert str(got.value) == "edge node labels must be integers"


# Each kappa fault on a two-node graph: the kappa, the error build_graph
# raises for it, and its message (a graph file reports each as a SchemaError).
KAPPA_FAULTS = {
    "wrong-length": ([1.0], GraphError, "kappa must be a list of length n"),
    "not-a-list": (True, SchemaError, "kappa must be a list of numbers"),
    "boolean-entry": ([1, True], SchemaError, "kappa must be a list of numbers, got boolean"),
    "zero": ([0, 1], GraphError, "kappa weight 0.0 must be positive and finite"),
    "negative": ([1, -1], GraphError, "kappa weight -1.0 must be positive and finite"),
    "nan": ([math.nan, 1], GraphError, "kappa weight nan must be positive and finite"),
    "inf": ([1, math.inf], GraphError, "kappa weight inf must be positive and finite"),
}


@pytest.mark.parametrize("kappa, error, message", KAPPA_FAULTS.values(), ids=list(KAPPA_FAULTS))
def test_build_graph_rejects_kappa(kappa, error, message):
    with pytest.raises(error) as got:
        build_graph(2, [(0, 1, 1.0)], kappa=kappa)
    assert type(got.value) is error and str(got.value) == message


def test_build_graph_kappa_is_read_only_float64():
    for kappa, expected in ((None, [1.0, 1.0, 1.0]), ([1, 2.5, 3], [1.0, 2.5, 3.0])):
        g = build_graph(3, [(0, 1, 1.0)], kappa=kappa)
        assert g.kappa.dtype == np.float64 and g.kappa.tolist() == expected
        assert not g.kappa.flags.writeable


@pytest.mark.parametrize("kappa, error, message", KAPPA_FAULTS.values(), ids=list(KAPPA_FAULTS))
def test_graph_file_reports_kappa_fault_after_edge_faults(tmp_path, kappa, error, message):
    """Alone, a kappa fault is a SchemaError with build_graph's message; with
    any edge fault in the same file, the edge fault is the one reported."""
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 2, "edges": [[1, 2, 1.0]], "kappa": kappa}))
    with pytest.raises(SchemaError) as got:
        read_graph_file(path)
    assert type(got.value) is SchemaError and str(got.value) == message
    for edges, edge_message in (
        ([[1, 1, 1.0]], "self-loop at node 1"),
        ([[1, 3, 1.0]], "edge (1, 3) references a node outside [1, 3)"),
        ([[1, 2, 0.0]], "edge (1, 2) weight 0.0 must be positive and finite"),
        ([[1, 2, 1.0], [2, 1, 1.0]], "duplicate undirected edge (1, 2)"),
    ):
        path.write_text(json.dumps({"n": 2, "edges": edges, "kappa": kappa}))
        with pytest.raises(SchemaError) as got:
            read_graph_file(path)
        assert str(got.value) == edge_message


@st.composite
def edge_lists(draw):
    """(n, edges, label_base) with self-loops, stray nodes, fractional or
    non-finite endpoints, bad weights and repeats."""
    n = draw(st.integers(0, 6))
    node = st.integers(-1, n)
    weight = st.sampled_from([0.5, 1.0, 2.5, 1.0, 0.5, 2.5, 0.0, -1.0, math.nan, math.inf])
    edges = draw(st.lists(st.tuples(node, node, weight), max_size=8))
    if edges and draw(st.booleans()):  # half the lists: one endpoint not a finite integer
        i, end = draw(st.integers(0, len(edges) - 1)), draw(st.integers(0, 1))
        row = list(edges[i])
        row[end] = draw(st.sampled_from([0.5, 1.9, -0.5, 2.7, math.nan, math.inf]))
        edges[i] = tuple(row)
    return n, edges, draw(st.sampled_from([0, 1]))


@given(edge_lists())
@settings(max_examples=600, deadline=None)
def test_build_graph_matches_edge_loop(case):
    n, edges, label_base = case
    try:
        expected = loop_build_graph(n, edges, label_base)
    except GraphError as exc:
        with pytest.raises(GraphError) as got:
            build_graph(n, edges, label_base)
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
    else:
        assert edge_list(build_graph(n, edges, label_base)) == expected


def test_laplacian_k2():
    np.testing.assert_allclose(laplacian(K2), [[1, -1], [-1, 1]])


def test_laplacian_path():
    np.testing.assert_allclose(
        laplacian(P3), [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]
    )


def loop_laplacian(g):
    """Edge-by-edge reference for the vectorized builder."""
    lap = np.zeros((g.n, g.n))
    for u, v, w in edge_list(g):
        lap[u, v] -= w
        lap[v, u] -= w
        lap[u, u] += w
        lap[v, v] += w
    return lap


def test_laplacian_matches_edge_loop():
    rng = np.random.default_rng(3)
    weighted = build_graph(
        25,
        [(i, j, float(rng.uniform(0.1, 3.0)))
         for i in range(25) for j in range(i + 1, 25) if rng.random() < 0.4],
    )
    for g in (build_graph(1, []), build_graph(4, []), K2, P3, weighted):
        assert np.array_equal(laplacian(g), loop_laplacian(g))


@given(graphs(connected=False))
@settings(max_examples=50, deadline=None)
def test_laplacian_rows_sum_to_zero_and_psd(g):
    lap = laplacian(g)
    np.testing.assert_allclose(lap, lap.T)
    np.testing.assert_allclose(lap @ np.ones(g.n), 0.0, atol=1e-12)
    smallest = np.linalg.eigvalsh(lap)[0]
    assert smallest > -1e-10


def test_is_connected():
    assert is_connected(K2)
    assert not is_connected(build_graph(2, []))


@given(graphs(min_nodes=1, connected=False))
@settings(max_examples=100, deadline=None)
def test_is_connected_matches_bfs_loop(g):
    assert is_connected(g) == loop_is_connected(g)


@given(graphs(min_nodes=1, connected=False), st.data())
@settings(max_examples=100, deadline=None)
def test_reach_from_sources_matches_bfs_loop(g, data):
    sources = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1))
    assert is_connected(g, tuple(sources)) == loop_is_connected(g, sources)


def test_reach_from_sources_needs_one_per_component():
    two_k2 = build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    assert not is_connected(two_k2)
    assert not is_connected(two_k2, (0, 1))
    assert is_connected(two_k2, (1, 2))


def test_six_node_connected(six_node):
    assert is_connected(six_node.graph)


def test_erdos_renyi_extreme_probabilities():
    assert edge_list(erdos_renyi(5, 0.0, seed=42)) == ()
    assert len(edge_list(erdos_renyi(5, 1.0, seed=42))) == 10


def test_erdos_renyi_rejects_bad_probability():
    with pytest.raises(GraphError, match=re.escape("p=1.5 outside [0, 1]")):
        erdos_renyi(5, 1.5, seed=0)


def test_erdos_renyi_reproducible():
    a = erdos_renyi(12, 0.4, seed=99)
    b = erdos_renyi(12, 0.4, seed=99)
    assert edge_list(a) == edge_list(b)
    pa = json.dumps(graph_payload(a))
    pb = json.dumps(graph_payload(b))
    assert pa == pb


def loop_erdos_renyi(n, p, seed):
    """One scalar draw per pair, in lexicographic order: the documented contract."""
    rng = np.random.Generator(np.random.PCG64(seed))
    edges = [(i, j, 1.0) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return build_graph(n, edges)


@pytest.mark.parametrize(
    "n, p, seed", [(1, 0.5, 0), (2, 0.3, 1), (20, 0.5, 7), (96, 0.5, 123), (300, 0.1, 5)]
)
def test_erdos_renyi_matches_scalar_draw_loop(n, p, seed):
    assert edge_list(erdos_renyi(n, p, seed)) == edge_list(loop_erdos_renyi(n, p, seed))


def test_erdos_renyi_edge_count_within_four_sigma():
    # C(30, 2) = 435 pairs at p = 0.5: mean 217.5, sigma = sqrt(435/4)
    count = len(edge_list(erdos_renyi(30, 0.5, seed=7)))
    sigma = math.sqrt(435 * 0.25)
    assert abs(count - 217.5) <= 4 * sigma


def test_erdos_renyi_connected_reports_resamples():
    g, resamples = erdos_renyi_connected(8, 0.3, seed=11)
    assert is_connected(g)
    assert resamples >= 0


def test_erdos_renyi_connected_eventually_resamples():
    # sparse enough that some seed in the scan starts disconnected
    for seed in range(40):
        _, resamples = erdos_renyi_connected(8, 0.2, seed=seed)
        if resamples > 0:
            return
    pytest.fail("no resample observed over 40 seeds at n=8, p=0.2")


def test_round_trip_k2(tmp_path):
    path = tmp_path / "k2.json"
    g = build_graph(2, [(0, 1, 1.0)], kappa=[0.5, 3])
    write_graph(g, path)
    gf = read_graph_file(path)
    assert gf.graph.n == K2.n and edge_list(gf.graph) == edge_list(K2)
    assert gf.graph.kappa.tolist() == [0.5, 3.0]


@given(graphs(connected=False))
@settings(max_examples=30, deadline=None)
def test_round_trip_any_graph(tmp_path_factory, g):
    path = tmp_path_factory.mktemp("graphs") / "g.json"
    write_graph(g, path, label_base=0)
    gf = read_graph_file(path)
    assert gf.graph.n == g.n and edge_list(gf.graph) == edge_list(g)
    assert gf.graph.kappa.tolist() == [1.0] * g.n
    assert gf.label_base == 0


def test_write_is_canonical_and_byte_stable(tmp_path):
    g1 = build_graph(3, [(1, 2, 1.0), (0, 1, 1.0)])
    g2 = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_graph(g1, p1)
    write_graph(g2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    payload = json.loads(p1.read_text())
    assert payload["edges"] == sorted(payload["edges"])


# Each file and the exact message it is refused with.
SCHEMA_VIOLATIONS = {
    "negative-weight": ('{"label_base": 1, "n": 2, "edges": [[1, 2, -1.0]], "kappa": [1, 1]}',
                        "edge (1, 2) weight -1.0 must be positive and finite"),
    "wrong-kappa-length": ('{"n": 2, "edges": [[1, 2, 1.0]], "kappa": [1.0]}',
                           "kappa must be a list of length n"),
    "null-weight": ('{"n": 2, "edges": [[1, 2, null]]}',
                    "edges must be a list of numbers, got null"),
    "string-weight": ('{"n": 2, "edges": [[1, 2, "1.0"]]}',
                      "edges must be a list of numbers, got string"),
    "object-label": ('{"n": 2, "edges": [[1, {"a": 1}, 1.0]]}',
                     "edges must be a list of numbers, got object"),
    "null-kappa-entry": ('{"n": 3, "edges": [[1, 2, 1.0]], "kappa": [1, null, 1]}',
                         "kappa must be a list of numbers, got null"),
    "boolean-weight": ('{"n": 2, "edges": [[1, 2, true]]}',
                       "edges must be a list of numbers, got boolean"),
    "boolean-label": ('{"n": 3, "edges": [[1, 2, 1.0], [true, 3, 2.5]]}',
                      "edges must be a list of numbers, got boolean"),
    "boolean-kappa-entry": ('{"n": 2, "edges": [[1, 2, 1.0]], "kappa": [1, true]}',
                            "kappa must be a list of numbers, got boolean"),
    "boolean-kappa-entry-among-floats": (
        '{"n": 2, "edges": [[1, 2, 1.0]], "kappa": [false, 1.5]}',
        "kappa must be a list of numbers, got boolean"),
    "fractional-label": ('{"n": 3, "edges": [[1.5, 3, 1.0]]}',
                         "edge node labels must be integers"),
    "nan-label": ('{"n": 3, "edges": [[NaN, 3, 1.0]]}', "edge node labels must be integers"),
    # the endpoints are checked before the node count
    "fractional-label-no-nodes": ('{"n": 0, "edges": [[1.5, 3, 1.0]]}',
                                  "edge node labels must be integers"),
    "fractional-n": ('{"n": 3.7, "edges": [[1, 2, 1.0]]}', "n must be an integer, got 3.7"),
    "boolean-n": ('{"n": true, "edges": []}', "n must be an integer, got True"),
    "fractional-label-base": ('{"label_base": 0.5, "n": 2, "edges": [[1, 2, 1.0]]}',
                              "label_base must be an integer, got 0.5"),
    "short-edge-entry": ('{"n": 2, "edges": [[1, 2]]}',
                         "each entry of edges must be a list of 3 numbers"),
    "empty-edge-entry": ('{"n": 2, "edges": [[]]}',
                         "each entry of edges must be a list of 3 numbers"),
    "ragged-edges": ('{"n": 3, "edges": [[1, 2, 1.0], [2, 3]]}',
                     "each entry of edges must be a list of 3 numbers"),
    "unknown-field": ('{"n": 3, "edges": [[1, 2, 1.0]], "kapa": [5, 5, 5]}',
                      "graph fields ['edges', 'kapa', 'n'] are not n, edges[, label_base, kappa]"),
    "missing-edges": ('{"n": 3}', "graph fields ['n'] are not n, edges[, label_base, kappa]"),
}


@pytest.mark.parametrize("text, message", list(SCHEMA_VIOLATIONS.values()),
                         ids=list(SCHEMA_VIOLATIONS))
def test_read_rejects_schema_violation(tmp_path, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(SchemaError) as got:
        read_graph_file(path)
    assert str(got.value) == message


@pytest.mark.parametrize(
    "edges, message",
    [
        ([[3, 3, 1.0]], "self-loop at node 3"),
        ([[1, 5, 1.0]], "edge (1, 5) references a node outside [1, 4)"),
        ([[2, 3, -1.0]], "edge (2, 3) weight -1.0 must be positive and finite"),
        ([[1, 2, 1.0], [2, 1, 2.0]], "duplicate undirected edge (1, 2)"),
    ],
)
def test_read_names_nodes_in_label_space(tmp_path, edges, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"label_base": 1, "n": 3, "edges": edges}))
    with pytest.raises(SchemaError) as got:
        read_graph_file(path)
    assert str(got.value) == message


def test_read_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(LeaderSelError, match=f"{re.escape(str(path))}: Expecting property name"):
        read_graph_file(path)


def whole_document_read(path):
    """The oracle for ``read_graph_file``: one ``json.loads`` of the whole decoded
    file, whatever its layout."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise LeaderSelError(f"{path}: {exc}") from exc
    return parse_graph_payload(payload)


def read_outcome(read, path):
    """What ``read(path)`` gives: the error's type and message, or the graph's
    arrays, bit for bit, and its label base."""
    try:
        f = read(path)
    except Exception as exc:  # whatever the oracle raises, the reader must raise too
        return type(exc), str(exc)
    g = f.graph
    return g.n, g.u.tolist(), g.v.tolist(), g.w.tobytes(), g.kappa.tobytes(), f.label_base


def assert_reads_like_oracle(path, flat: bool):
    """``path`` takes the flat read iff ``flat``, and reads as the oracle reads it."""
    assert (graphs_module._flat_payload(path.read_bytes()) is not None) == flat
    assert read_outcome(read_graph_file, path) == read_outcome(whole_document_read, path)


CANONICAL = json.dumps(graph_payload(build_graph(
    4, [(0, 1, 0.5), (1, 2, 2.0), (2, 3, 1e-3), (0, 3, 12345.678)], kappa=[1, 2.5, 3, 4]))) + "\n"

FLAT_FILES = {
    "canonical": CANONICAL,
    "whitespace": ('\r\n{ "n" :3 ,\t"edges":\n[ [ 1 ,2, 1.5 ] ,\n [2,3,2E0]\r\n ]\n,'
                   ' "kappa" : [ 1, 2.5e-1, 3 ] }\n\n'),
    "key-order": ('{"kappa": [1, 2, 3], "edges": [[2, 3, 1.0], [1, 2, 0.5]], "n": 3,'
                  ' "label_base": 1}'),
    "refused-graph": '{"n": 3, "edges": [[1, 2, 1.0], [2, 2, -0.0]]}',
}

DECLINED_FILES = {
    "glued-number-after": '{"n": 3, "edges": [[1, 2, 1.0]00, [2, 3, 1.0]]}',
    "glued-number-before": '{"n": 3, "edges": [2.5[1, 2, 1.0]]}',
    "duplicate-key": '{"n": 2, "n": 3, "edges": [[1, 2, 1.0]]}',
    "nested-object": '{"n": 2, "edges": [[1, 2, 1.0]], "kappa": {}}',
    "escaped-key": '{"n": 2, "edges": [[1, 2, 1.0]], "\\"edges\\"": []}',
    "string-value": '{"n": 2, "edges": [[1, 2, 1.0]], "kappa": ["1", 1]}',
    "empty-edge-list": '{"n": 1, "edges": [], "kappa": [1.0]}',
    "non-ascii": '{"n": 2, "edges": [[1, 2, 1.0]], "kapp\u00e9": [1, 1]}',
    "huge-integer": '{"n": 2, "edges": [[1, 2, 1' + "0" * 400 + ']]}',
    # the message counts a CRLF as one character, as a text-mode read does
    "crlf-json-error": '{"n": 2,\r\n "edges": [[1, 2, 1.0]],\r\n "kappa": [1, 1,]}',
    "byte-order-mark": '\ufeff{"n": 2, "edges": [[1, 2, 1.0]]}',
}


@pytest.mark.parametrize("text", FLAT_FILES.values(), ids=FLAT_FILES)
def test_plain_layouts_take_the_flat_read(tmp_path, text):
    path = tmp_path / "g.json"
    path.write_text(text, encoding="utf-8")
    assert_reads_like_oracle(path, flat=True)


@pytest.mark.parametrize("slice_bytes", [1, 7, 40])
def test_flat_read_across_slices(tmp_path, slice_bytes):
    path = tmp_path / "g.json"
    path.write_text(CANONICAL)
    with mock.patch.object(graphs_module, "_SLICE_BYTES", slice_bytes):
        assert_reads_like_oracle(path, flat=True)


@pytest.mark.parametrize("text", DECLINED_FILES.values(), ids=DECLINED_FILES)
def test_other_layouts_take_the_whole_document_read(tmp_path, text):
    path = tmp_path / "g.json"
    path.write_text(text, encoding="utf-8")
    assert_reads_like_oracle(path, flat=False)


def test_a_slice_without_a_number_is_declined(tmp_path):
    """With one-byte slices, the blank first entry of the second row is a
    slice of its own, which json reads as [] and not as an error."""
    path = tmp_path / "g.json"
    path.write_text('{"n": 3, "edges": [[1, 2, 1.0], [ , 3, 1.0]]}')
    with mock.patch.object(graphs_module, "_SLICE_BYTES", 1):
        assert_reads_like_oracle(path, flat=False)


FUZZ_TOKENS = [b"[", b"]", b",", b"{", b"}", b":", b'"', b'"edges"', b"true", b"NaN", b"Infinity",
               b"null", b"1e400", b"9" * 400, b"e", b"-", b".", b"0", b"5", b" ", b" " * 9, b"\r\n",
               b"\\", "\u00e9".encode(), b"\xff"]


def _fuzz_bases() -> list[bytes]:
    """Graph files on 1-5 nodes with drawn weights, unit or drawn kappa and
    three label bases: as ``write_graph`` writes them, indented, or with their
    keys reversed."""
    rng, files = np.random.default_rng(37), []
    for n, label_base, layout in itertools.product(
            (1, 2, 3, 5), (0, 1, 3), ("canonical", "indented", "reversed")):
        g = erdos_renyi(n, 0.7, seed=len(files))
        kappa = rng.uniform(1e-3, 1e3, n).tolist() if len(files) % 2 else None
        g = build_graph(n, np.column_stack((g.u, g.v, rng.uniform(1e-3, 1e3, len(g.w)))),
                        kappa=kappa)
        payload = graph_payload(g, label_base)
        if layout == "reversed":
            payload = dict(reversed(payload.items()))
        files.append(json.dumps(payload, indent=1 if layout == "indented" else None).encode())
    return files


FUZZ_BASES = _fuzz_bases()


@st.composite
def graph_files(draw):
    """A base graph file with 1-3 byte strings inserted, deleted or replaced."""
    data = draw(st.sampled_from(FUZZ_BASES))
    for op, near, at, token, size in draw(st.lists(st.tuples(
            st.sampled_from(["insert", "delete", "replace"]), st.sampled_from([None, 0, 1]),
            st.integers(0, 1 << 16), st.sampled_from(FUZZ_TOKENS), st.integers(1, 4)),
            min_size=1, max_size=3)):
        # anywhere, or at or just after a bracket, brace, comma, colon or quote
        places = range(len(data) + 1) if near is None else [
            i + near for i, c in enumerate(data) if c in b'[]{},:"'] or [0]
        at = places[at % len(places)]
        data = data[:at] + (b"" if op == "delete" else token) + data[at + (op != "insert") * size:]
    return data


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "g.json"


@given(graph_files(), st.sampled_from([1, 5, 1 << 16]))
@settings(max_examples=300, deadline=None)
def test_read_matches_whole_document_oracle_on_mutated_files(fuzz_path, data, slice_bytes):
    fuzz_path.write_bytes(data)
    with mock.patch.object(graphs_module, "_SLICE_BYTES", slice_bytes):
        assert (read_outcome(read_graph_file, fuzz_path)
                == read_outcome(whole_document_read, fuzz_path))


def test_read_defaults_kappa_to_ones(tmp_path):
    path = tmp_path / "g.json"
    path.write_text('{"n": 2, "edges": [[1, 2, 1.0]]}')
    assert read_graph_file(path).graph.kappa.tolist() == [1.0, 1.0]


def test_six_node_fixture_parses(six_node):
    assert six_node.graph.n == 6
    assert six_node.graph.kappa.shape == (6,)
    assert six_node.to_label(0) == 1
    assert six_node.to_id(6) == 5
