from dataclasses import replace

import pytest

from netadopt.networks import (
    Network,
    analyze,
    build_directed_tree,
    build_line,
    build_spontaneous_example,
    build_star,
    network_from_spec,
    parse_edgelist,
    spontaneous_example_groups,
)


def test_line_undirected_edges():
    net = build_line(4)
    assert net.n == 4
    assert (0, 1) in net.edges and (1, 0) in net.edges
    assert (3, 2) in net.edges and (2, 3) in net.edges
    assert (0, 2) not in net.edges


def test_line_directed_observes_left():
    net = build_line(3, directed=True)
    assert (1, 0) in net.edges
    assert (0, 1) not in net.edges


def test_ring_wraps():
    net = build_line(5, ring=True)
    assert (0, 4) in net.edges and (4, 0) in net.edges
    with pytest.raises(ValueError, match="ring needs n >= 3"):
        build_line(2, ring=True)


def test_line_infinite_markers():
    net = build_line(6, mark_infinite=True)
    assert net.infinite_leaves == frozenset({0, 5})
    assert build_line(6).infinite_leaves == frozenset()
    # rings have no truncation points
    assert build_line(6, ring=True, mark_infinite=True).infinite_leaves == frozenset()


def test_star_center_is_zero():
    net = build_star(4)
    assert net.n == 5
    assert net.out_neighbors(0) == (1, 2, 3, 4)
    assert net.out_neighbors(1) == ()
    undirected = build_star(4, directed=False)
    assert undirected.out_neighbors(1) == (0,)


def test_directed_tree_shape():
    net = build_directed_tree(d=2, depth=2)
    # 1 + 2 + 4 agents; root observes its two children
    assert net.n == 7
    assert len(net.out_neighbors(0)) == 2
    leaves = [i for i in net.agents if not net.out_neighbors(i)]
    assert len(leaves) == 4


def test_invalid_sizes():
    with pytest.raises(ValueError, match="invalid size"):
        build_line(0)
    with pytest.raises(ValueError, match="invalid size"):
        build_star(0)


def test_analyze_tree_detection():
    rep = analyze(build_line(5))
    assert rep.is_tree
    rep_ring = analyze(build_line(5, ring=True))
    assert not rep_ring.is_tree


def test_spontaneous_example_roles():
    net = build_spontaneous_example()
    g = spontaneous_example_groups()
    assert net.n == 115
    assert len(g["B"]) == 100 and len(g["C"]) == 10
    # the watcher observes the follower, all of B, and all of C
    watched = set(net.out_neighbors(g["f"]))
    assert watched == {g["d"]} | set(g["B"]) | set(g["C"])
    assert len(watched) == 111
    # anchors and the isolated group observe nobody
    for i in (g["a1"], g["a2"], *g["C"]):
        assert net.out_neighbors(i) == ()
    # every deferring agent and the relay observe exactly the anchors
    for b in (*g["B"], g["e"]):
        assert set(net.out_neighbors(b)) == {g["a1"], g["a2"]}
    assert net.out_neighbors(g["d"]) == (g["e"],)
    assert not analyze(net).is_tree


def test_edgelist_round_trip():
    net = build_line(4, directed=True)
    back = parse_edgelist("# a directed line\n1 0\n\n2 1\n3 2  # last edge\n2 1\n")
    assert back.n == net.n
    assert back.edges == net.edges


def test_parse_edgelist_rejects_self_loop():
    with pytest.raises(ValueError):
        parse_edgelist("0 0\n")


def test_network_from_spec():
    assert network_from_spec({"line": {"n": 3}}).n == 3
    assert network_from_spec({"star": {"leaves": 2}}).n == 3
    assert network_from_spec({"spontaneous_example": {}}).n == 115
    with pytest.raises(ValueError, match="unknown network spec"):
        network_from_spec({"torus": {}})
    with pytest.raises(ValueError, match="one-key mapping"):
        network_from_spec({"line": {}, "star": {}})


def test_network_validates_edges():
    with pytest.raises(ValueError):
        Network(n=2, edges=frozenset({(0, 5)}))


def test_replaced_edges_give_new_neighbors():
    line = build_line(3, directed=True)  # 1 observes 0, 2 observes 1
    assert line.out_neighbors(1) == (0,) and line.in_neighbors(1) == (2,)
    flipped = replace(line, edges=frozenset({(0, 1), (1, 2)}))
    assert [flipped.out_neighbors(i) for i in flipped.agents] == [(1,), (2,), ()]
    assert [flipped.in_neighbors(i) for i in flipped.agents] == [(), (0,), (1,)]
    assert line.out_neighbors(1) == (0,) and line.in_neighbors(1) == (2,)
    with pytest.raises(KeyError):  # an agent outside 0..n-1 does not wrap
        flipped.out_neighbors(-1)
