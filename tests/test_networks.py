from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netadopt.networks import (
    Network,
    StructureReport,
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


@st.composite
def networks(draw):
    """Random directed or undirected networks of 0-12 agents, often trees."""
    n = draw(st.integers(0, 12))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    edges = set(draw(st.lists(st.sampled_from(pairs), max_size=3 * n))
                if pairs else [])
    if draw(st.booleans()):
        # A tree: each agent after 0 joins one earlier agent, either way
        # round; then at most two of the random edges on top.
        tree = set()
        for v in range(1, n):
            edge = (v, draw(st.integers(0, v - 1)))
            tree.add(edge if draw(st.booleans()) else edge[::-1])
        edges = tree | set(sorted(edges)[:draw(st.integers(0, 2))])
    if draw(st.booleans()):
        edges |= {(j, i) for i, j in edges}
    leaves = draw(st.sets(st.integers(0, n - 1))) if n else set()
    return Network(n=n, edges=frozenset(edges),
                   infinite_leaves=frozenset(leaves))


def _reference_structure(net):
    """analyze's report by plain search over the symmetrized edges."""
    nbrs = {v: set() for v in range(net.n)}
    for i, j in net.edges:
        nbrs[i].add(j)
        nbrs[j].add(i)
    seen, stack = set(), [0] if net.n else []
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            stack.extend(nbrs[v] - seen)
    connected = net.n > 0 and len(seen) == net.n
    # Acyclic: no undirected edge joins two agents already joined.
    root = list(range(net.n))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    acyclic = True
    for i, j in {tuple(sorted(e)) for e in net.edges}:
        a, b = find(i), find(j)
        acyclic = acyclic and a != b
        root[a] = b
    degrees = [len(nbrs[v]) for v in range(net.n)]
    return StructureReport(
        is_undirected=all((j, i) in net.edges for i, j in net.edges),
        is_tree=connected and acyclic,
        branching_excess=1 + sum(d - 2 for d in degrees if d > 2),
        ends=sum(1 for v in net.infinite_leaves if degrees[v] == 1),
        max_degree=max(degrees, default=0),
        connected=connected,
    )


@settings(max_examples=300, deadline=None)
@given(networks())
def test_analyze_matches_a_plain_search(net):
    assert analyze(net) == _reference_structure(net)
