"""Observation networks: construction, analysis, and text serialization.

Agents are integers 0..n-1.  A directed edge (i, j) means agent i observes
agent j's actions.  Undirected networks are stored as both directed edges.
Networks are immutable; analysis runs on the symmetrized graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx

from .common import as_bool, as_int, spec_value


@dataclass(frozen=True)
class Network:
    """Immutable observation network on agents 0..n-1."""

    n: int
    edges: frozenset
    label: str = ""
    # Degree-1 vertices of a truncation that stand for rays extending to
    # infinity in the idealized network.  Only these count as "ends".
    infinite_leaves: frozenset = frozenset()
    # Agent -> its out- and in-neighbors, ascending, built from edges.
    _out: dict = field(init=False, repr=False, compare=False)
    _in: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"invalid size: n={self.n}")
        edges = frozenset((int(i), int(j)) for i, j in self.edges)
        for i, j in edges:
            if i == j:
                raise ValueError(f"self-loop at agent {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i}, {j}) out of range for n={self.n}")
        object.__setattr__(self, "edges", edges)
        bad = [v for v in self.infinite_leaves if not 0 <= v < self.n]
        if bad:
            raise ValueError(f"infinite-leaf markers out of range: {bad}")
        out, inc = ([[] for _ in self.agents] for _ in range(2))
        for u, v in sorted(edges):
            out[u].append(v)
            inc[v].append(u)
        object.__setattr__(self, "_out", dict(enumerate(map(tuple, out))))
        object.__setattr__(self, "_in", dict(enumerate(map(tuple, inc))))

    @property
    def agents(self) -> range:
        return range(self.n)

    def out_neighbors(self, i: int) -> tuple:
        """Agents that agent i observes."""
        return self._out[i]

    def in_neighbors(self, j: int) -> tuple:
        """Agents that observe agent j."""
        return self._in[j]

    def is_undirected(self) -> bool:
        return all((j, i) in self.edges for i, j in self.edges)

    def to_nx_undirected(self) -> nx.Graph:
        g = nx.Graph()
        g.add_nodes_from(self.agents)
        g.add_edges_from(self.edges)
        return g


def _reachable_within(network: Network, agent: int, radius: int) -> dict:
    """Distance from agent, along observation edges, of every agent at most
    radius away (agent itself at 0)."""
    dist = {agent: 0}
    frontier = [agent]
    for d in range(1, radius + 1):
        nxt = []
        for i in frontier:
            for j in network.out_neighbors(i):
                if j not in dist:
                    dist[j] = d
                    nxt.append(j)
        if not nxt:
            break
        frontier = nxt
    return dist


@dataclass(frozen=True)
class StructureReport:
    """Summary of the symmetrized structure of a network."""

    is_undirected: bool
    is_tree: bool
    branching_excess: int  # 1 + sum over vertices of max(0, degree - 2)
    ends: int
    max_degree: int
    connected: bool


def analyze(network: Network) -> StructureReport:
    """Analyze the symmetrized network.

    branching_excess is 1 plus the total degree excess over 2; a bare line
    scores 1 and every unit of branching adds 1.  ends counts degree-1
    vertices explicitly marked as extending to infinity; unmarked leaves are
    genuine boundary agents of a finite network and do not count.
    """
    g = network.to_nx_undirected()
    degrees = dict(g.degree())
    connected = network.n > 0 and nx.is_connected(g)
    is_tree = connected and g.number_of_edges() == network.n - 1
    ends = sum(
        1 for v in network.infinite_leaves if degrees.get(v, 0) == 1
    )
    return StructureReport(
        is_undirected=network.is_undirected(),
        is_tree=is_tree,
        branching_excess=1 + sum(max(0, d - 2) for d in degrees.values()),
        ends=ends,
        max_degree=max(degrees.values(), default=0),
        connected=connected,
    )


def build_line(n: int, directed: bool = False, ring: bool = False,
               mark_infinite: bool = False) -> Network:
    """Line (or ring) of n agents labeled 0..n-1 in order.

    Undirected: consecutive agents observe each other.  Directed: each agent
    observes its left neighbor (agent i observes i-1; on a ring, agent 0
    observes n-1).  mark_infinite flags both endpoints of a non-ring line as
    truncation points of an infinite line.
    """
    if n <= 0:
        raise ValueError(f"invalid size: line needs n >= 1, got {n}")
    if ring and n < 3:
        raise ValueError(f"invalid size: ring needs n >= 3, got {n}")
    edges = set()
    for i in range(1, n):
        edges.add((i, i - 1))
        if not directed:
            edges.add((i - 1, i))
    if ring:
        edges.add((0, n - 1))
        if not directed:
            edges.add((n - 1, 0))
    leaves = frozenset({0, n - 1}) if (mark_infinite and not ring and n >= 2) else frozenset()
    kind = "ring" if ring else "line"
    return Network(n=n, edges=frozenset(edges),
                   label=f"{'directed ' if directed else ''}{kind}-{n}",
                   infinite_leaves=leaves)


def build_directed_tree(d: int, depth: int) -> Network:
    """Rooted observation tree: every internal agent observes its d children.

    Agents are numbered breadth-first with the root at 0; the network has
    (d**(depth+1) - 1) / (d - 1) agents.  Leaves observe nobody; every agent
    except the root is observed by exactly one parent.
    """
    if d < 2:
        raise ValueError(f"invalid branching: need d >= 2, got {d}")
    if depth < 0:
        raise ValueError(f"invalid size: depth must be >= 0, got {depth}")
    n = (d ** (depth + 1) - 1) // (d - 1)
    edges = set()
    frontier = [0]
    next_id = 1
    for _ in range(depth):
        new_frontier = []
        for parent in frontier:
            for _ in range(d):
                edges.add((parent, next_id))
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    assert next_id == n
    return Network(n=n, edges=frozenset(edges), label=f"tree-d{d}-depth{depth}")


def build_star(n_leaves: int, directed: bool = True) -> Network:
    """Star with center 0 observing leaves 1..n_leaves.

    Directed stars leave the leaves blind (they observe nobody), which makes
    them act on their own signals only; undirected stars let the leaves watch
    the center back.
    """
    if n_leaves < 1:
        raise ValueError(f"invalid size: star needs >= 1 leaf, got {n_leaves}")
    edges = set()
    for leaf in range(1, n_leaves + 1):
        edges.add((0, leaf))
        if not directed:
            edges.add((leaf, 0))
    return Network(n=n_leaves + 1, edges=frozenset(edges),
                   label=f"{'directed ' if directed else ''}star-{n_leaves}")


# Group sizes of the fixed 115-agent spontaneous-adoption example.
_SPONT_N_B = 100
_SPONT_N_C = 10


def spontaneous_example_groups() -> dict:
    """Agent ids by role in the spontaneous-adoption example network."""
    b_lo = 2
    b_hi = b_lo + _SPONT_N_B
    c_hi = b_hi + _SPONT_N_C
    return {
        "a1": 0,
        "a2": 1,
        "B": tuple(range(b_lo, b_hi)),
        "C": tuple(range(b_hi, c_hi)),
        "d": c_hi,
        "e": c_hi + 1,
        "f": c_hi + 2,
    }


def build_spontaneous_example() -> Network:
    """Fixed 115-agent network on which adoption can arise with no neighbor cue.

    Roles: two anchor agents a1, a2 observed by a 100-agent group B and by e;
    a 10-agent group C observing nobody; d observing e; and f observing d,
    all of B, and all of C.  Under the right parameters f adopts at period 3
    purely from observed silence, one period after everyone else went quiet.
    """
    g = spontaneous_example_groups()
    edges = set()
    for b in g["B"]:
        edges.add((b, g["a1"]))
        edges.add((b, g["a2"]))
    edges.add((g["e"], g["a1"]))
    edges.add((g["e"], g["a2"]))
    edges.add((g["d"], g["e"]))
    for x in g["B"]:
        edges.add((g["f"], x))
    for x in g["C"]:
        edges.add((g["f"], x))
    edges.add((g["f"], g["d"]))
    n = g["f"] + 1
    return Network(n=n, edges=frozenset(edges), label="spontaneous-example")


def parse_edgelist(text: str, n: int | None = None, label: str = "") -> Network:
    """Parse 'i j' pairs, one per line; blank lines and #-comments allowed.

    Duplicate pairs are removed.  n defaults to one past the largest id.
    """
    edges = set()
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'i j', got {raw!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-integer agent id in {raw!r}") from exc
        if i < 0 or j < 0:
            raise ValueError(f"line {lineno}: negative agent id in {raw!r}")
        edges.add((i, j))
        max_id = max(max_id, i, j)
    if n is None:
        n = max_id + 1
    return Network(n=n, edges=frozenset(edges), label=label)


def network_from_spec(spec) -> Network:
    """Build a network from a config fragment.

    Accepts {"line": {...}}, {"tree": {...}}, {"star": {...}},
    {"spontaneous_example": {}} or {"edgelist": "text"}.
    """
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ValueError(f"network spec must be a one-key mapping, got {spec!r}")
    kind, body = next(iter(spec.items()))
    where = f"network.{kind}"
    if kind == "line":
        return build_line(
            n=spec_value(body, "n", where, as_int),
            directed=spec_value(body, "directed", where, as_bool, False),
            ring=spec_value(body, "ring", where, as_bool, False),
            mark_infinite=spec_value(body, "mark_infinite", where, as_bool, False),
        )
    if kind == "tree":
        return build_directed_tree(d=spec_value(body, "d", where, as_int),
                                   depth=spec_value(body, "depth", where, as_int))
    if kind == "star":
        return build_star(
            n_leaves=spec_value(body, "leaves", where, as_int),
            directed=spec_value(body, "directed", where, as_bool, True),
        )
    if kind == "spontaneous_example":
        return build_spontaneous_example()
    if kind == "edgelist":
        return parse_edgelist(str(body))
    raise ValueError(f"unknown network spec kind {kind!r}")
