import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leadersel.errors import (
    DuplicateEdgeError,
    GraphError,
    InvalidProbabilityError,
    NodeOutOfRangeError,
    NonPositiveWeightError,
    ParseError,
    SchemaError,
    SelfLoopError,
)
from leadersel.graphs import (
    KappaWeights,
    build_graph,
    erdos_renyi,
    erdos_renyi_connected,
    graph_payload,
    is_connected,
    laplacian,
    read_graph_file,
    unit_kappa,
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
    "edges, error",
    [
        ([(0, 0, 1.0)], SelfLoopError),
        ([(0, 1, 1.0), (1, 0, 2.0)], DuplicateEdgeError),
        ([(0, 1, 0.0)], NonPositiveWeightError),
        ([(0, 1, -2.0)], NonPositiveWeightError),
        ([(0, 5, 1.0)], NodeOutOfRangeError),
        ([(0, 1, math.nan)], NonPositiveWeightError),
        ([(0, 1, math.inf)], NonPositiveWeightError),
        ([(0, 1, -math.inf)], NonPositiveWeightError),
    ],
)
def test_build_graph_rejects(edges, error):
    with pytest.raises(error):
        build_graph(2, edges)


@st.composite
def edge_lists(draw):
    """(n, edges, label_base) with self-loops, stray nodes, bad weights and repeats."""
    n = draw(st.integers(0, 6))
    node = st.integers(-1, n)
    weight = st.sampled_from([0.5, 1.0, 2.5, 1.0, 0.5, 2.5, 0.0, -1.0, math.nan, math.inf])
    edges = draw(st.lists(st.tuples(node, node, weight), max_size=8))
    return n, edges, draw(st.sampled_from([0, 1]))


@given(edge_lists())
@settings(max_examples=300, deadline=None)
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


def test_six_node_connected(six_node):
    assert is_connected(six_node.graph)


def test_erdos_renyi_extreme_probabilities():
    assert edge_list(erdos_renyi(5, 0.0, seed=42)) == ()
    assert len(edge_list(erdos_renyi(5, 1.0, seed=42))) == 10


def test_erdos_renyi_rejects_bad_probability():
    with pytest.raises(InvalidProbabilityError):
        erdos_renyi(5, 1.5, seed=0)


def test_erdos_renyi_reproducible():
    a = erdos_renyi(12, 0.4, seed=99)
    b = erdos_renyi(12, 0.4, seed=99)
    assert edge_list(a) == edge_list(b)
    pa = json.dumps(graph_payload(a, unit_kappa(12)))
    pb = json.dumps(graph_payload(b, unit_kappa(12)))
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
    kappa = KappaWeights((1.0, 1.0))
    write_graph(K2, kappa, path)
    gf = read_graph_file(path)
    assert gf.graph.n == K2.n and edge_list(gf.graph) == edge_list(K2)
    assert gf.kappa == kappa


@given(graphs(connected=False))
@settings(max_examples=30, deadline=None)
def test_round_trip_any_graph(tmp_path_factory, g):
    path = tmp_path_factory.mktemp("graphs") / "g.json"
    kappa = unit_kappa(g.n)
    write_graph(g, kappa, path, label_base=0)
    gf = read_graph_file(path)
    assert gf.graph.n == g.n and edge_list(gf.graph) == edge_list(g)
    assert gf.kappa == kappa
    assert gf.label_base == 0


def test_write_is_canonical_and_byte_stable(tmp_path):
    g1 = build_graph(3, [(1, 2, 1.0), (0, 1, 1.0)])
    g2 = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_graph(g1, unit_kappa(3), p1)
    write_graph(g2, unit_kappa(3), p2)
    assert p1.read_bytes() == p2.read_bytes()
    payload = json.loads(p1.read_text())
    assert payload["edges"] == sorted(payload["edges"])


SCHEMA_VIOLATIONS = {
    "negative-weight": '{"label_base": 1, "n": 2, "edges": [[1, 2, -1.0]], "kappa": [1, 1]}',
    "wrong-kappa-length": '{"n": 2, "edges": [[1, 2, 1.0]], "kappa": [1.0]}',
    "null-weight": '{"n": 2, "edges": [[1, 2, null]]}',
    "string-weight": '{"n": 2, "edges": [[1, 2, "1.0"]]}',
    "object-label": '{"n": 2, "edges": [[1, {"a": 1}, 1.0]]}',
    "null-kappa-entry": '{"n": 3, "edges": [[1, 2, 1.0]], "kappa": [1, null, 1]}',
    "boolean-weight": '{"n": 2, "edges": [[1, 2, true]]}',
    "boolean-label": '{"n": 3, "edges": [[1, 2, 1.0], [true, 3, 2.5]]}',
    "boolean-kappa-entry": '{"n": 2, "edges": [[1, 2, 1.0]], "kappa": [1, true]}',
    "boolean-kappa-entry-among-floats": '{"n": 2, "edges": [[1, 2, 1.0]], "kappa": [false, 1.5]}',
    "fractional-label": '{"n": 3, "edges": [[1.5, 3, 1.0]]}',
    "nan-label": '{"n": 3, "edges": [[NaN, 3, 1.0]]}',
    "fractional-n": '{"n": 3.7, "edges": [[1, 2, 1.0]]}',
    "boolean-n": '{"n": true, "edges": []}',
    "fractional-label-base": '{"label_base": 0.5, "n": 2, "edges": [[1, 2, 1.0]]}',
    "short-edge-entry": '{"n": 2, "edges": [[1, 2]]}',
    "empty-edge-entry": '{"n": 2, "edges": [[]]}',
    "ragged-edges": '{"n": 3, "edges": [[1, 2, 1.0], [2, 3]]}',
    "unknown-field": '{"n": 3, "edges": [[1, 2, 1.0]], "kapa": [5, 5, 5]}',
    "missing-edges": '{"n": 3}',
}


@pytest.mark.parametrize("text", list(SCHEMA_VIOLATIONS.values()), ids=list(SCHEMA_VIOLATIONS))
def test_read_rejects_schema_violation(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(SchemaError):
        read_graph_file(path)


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
    with pytest.raises(ParseError):
        read_graph_file(path)


def test_read_defaults_kappa_to_ones(tmp_path):
    path = tmp_path / "g.json"
    path.write_text('{"n": 2, "edges": [[1, 2, 1.0]]}')
    assert read_graph_file(path).kappa == unit_kappa(2)


def test_six_node_fixture_parses(six_node):
    assert six_node.graph.n == 6
    assert len(six_node.kappa) == 6
    assert six_node.to_label(0) == 1
    assert six_node.to_id(6) == 5
