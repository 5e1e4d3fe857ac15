import numpy as np
import pytest

from netreal import InputError, NetworkGraph, NodeDims, build_graph


def test_build_graph_basic():
    g = build_graph(3, [(0, 0), (1, 0), (2, 1)])
    assert g.num_nodes == 3
    assert g.has_edge(1, 0)
    assert not g.has_edge(0, 1)
    assert g.has_edge(0, 0)


def test_build_graph_deduplicates():
    g = build_graph(2, [(0, 1), (0, 1), [0, 1]])
    assert len(g.edges) == 1


def test_build_graph_rejects_out_of_range():
    with pytest.raises(InputError):
        build_graph(2, [(0, 2)])
    with pytest.raises(InputError):
        build_graph(2, [(-1, 0)])
    with pytest.raises(InputError):
        build_graph(0, [])


def test_has_edge_range_checked():
    g = build_graph(2, [(0, 0)])
    with pytest.raises(InputError):
        g.has_edge(2, 0)
    with pytest.raises(InputError):
        g.has_edge(0, -1)


def test_transpose_flips_direction():
    g = build_graph(3, [(0, 0), (1, 0), (2, 1)])
    t = g.transpose()
    assert t.has_edge(0, 1)
    assert t.has_edge(1, 2)
    assert t.has_edge(0, 0)
    assert not t.has_edge(1, 0)
    assert t.transpose() == g


def test_non_self_edge_count():
    g = build_graph(3, [(0, 0), (1, 1), (1, 0), (2, 0)])
    assert g.num_non_self_edges == 2


def test_sorted_edges_deterministic():
    g = build_graph(3, [(2, 1), (0, 0), (1, 0)])
    assert g.sorted_edges() == [(0, 0), (1, 0), (2, 1)]


def test_graph_is_hashable_value_type():
    a = build_graph(2, [(0, 1)])
    b = build_graph(2, [[0, 1]])
    assert a == b
    assert hash(a) == hash(b)


def test_node_dims_slices():
    dims = NodeDims((2, 0, 1), (1, 1, 1), (0, 2, 1))
    assert dims.num_nodes == 3
    assert dims.n_total == 3
    assert dims.m_total == 3
    assert dims.p_total == 3
    assert dims.state_slice(1) == slice(2, 2)
    assert dims.state_slice(2) == slice(2, 3)
    assert dims.input_slice(0) == slice(0, 1)
    assert dims.output_slice(1) == slice(0, 2)
    assert dims.state_slices == (slice(0, 2), slice(2, 2), slice(2, 3))
    assert dims.output_slices == (slice(0, 0), slice(0, 2), slice(2, 3))
    assert dims.input_slices == (slice(0, 1), slice(1, 2), slice(2, 3))
    same = NodeDims((2, 0, 1), (1, 1, 1), (0, 2, 1))
    assert dims == same and hash(dims) == hash(same)


def test_node_dims_from_triples_roundtrip():
    triples = [(2, 1, 1), (0, 2, 1)]
    dims = NodeDims.from_triples(triples)
    assert dims.triples() == [(2, 1, 1), (0, 2, 1)]


def test_node_dims_rejects_negative_and_mismatched():
    with pytest.raises(InputError):
        NodeDims((1, -1), (1, 1), (1, 1))
    with pytest.raises(InputError):
        NodeDims((1,), (1, 1), (1,))
    with pytest.raises(InputError):
        NodeDims((), (), ())
    with pytest.raises(InputError, match=r"each dims entry must be an \(n, m, p\) triple"):
        NodeDims.from_triples([(1, 2)])
    for bad in ((1.0,), (True,), ("1",), "1", 1, None, (2**62,)):
        with pytest.raises(InputError):
            NodeDims(bad, (1,), (1,))


def test_node_dims_slice_range_checked():
    dims = NodeDims((1,), (1,), (1,))
    with pytest.raises(InputError):
        dims.state_slice(1)
    for bad in (-1, 1):
        with pytest.raises(InputError):
            dims.input_slice(bad)
        with pytest.raises(InputError):
            dims.output_slice(bad)


def test_graph_rejects_malformed_edges():
    with pytest.raises(InputError):
        build_graph(2, [(0,)])
    with pytest.raises(InputError):
        build_graph(2, [(0, 1, 2)])
    with pytest.raises(InputError):
        build_graph(2, [7])
    for edge in ([0.5, 0], [True, 0], ["1", 0], [float("inf"), 0], {"a": 1}, "01"):
        with pytest.raises(InputError):
            build_graph(2, [edge])


def test_graph_num_nodes_must_be_positive_int():
    with pytest.raises(InputError):
        NetworkGraph(-1, frozenset())
    for bad in (2.0, True, "2", None):
        with pytest.raises(InputError, match="num_nodes must be an integer"):
            NetworkGraph(bad, frozenset())
    assert NetworkGraph(np.int64(2)).num_nodes == 2
