"""The decision protocol and executable strategies: threshold tables, the
staged line protocol, and two-child root rules mapped from continuous
adoption scores.

A strategy answers adopt_probability(ctx) with the chance it adopts in the
current period, given its own belief and the adoption times of observed
neighbors strictly before the period.  Strategies are immutable and
stateless: an answer depends only on the parameters and the context, so
the engine reuses it for any decision with an equal (period, atom, history
part) key (decision_key).  Two declared attributes decide which agents the
engine and the solver ask in each period, and when a run ends:

- spontaneous_until: last period the strategy might adopt with no neighbor
  having adopted (-1 if it never adopts unprompted).
- max_reaction_lag: latest adoption is (last neighbor adoption) + lag;
  None if unbounded.

An agent past both limits (its deadline) is not asked at all, so a strategy
that under-declares them is skipped in periods where it would have adopted.

The engine and the solver run the one protocol defined here: a strategy is
asked with a DecisionContext whose NeighborTimes view guards its
information set, _deadline gives an agent's deadline, and
_record_adoptions files one period's adoptions and moves the deadlines of
the agents they cue.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

from .common import (NEVER, StrategyViolationError, as_fraction, as_int,
                     is_never, spec_value)

HALF = Fraction(1, 2)


class Strategy:
    """Base class; subclasses override adopt_probability."""

    spontaneous_until: float = 0
    max_reaction_lag: float | None = 0

    def adopt_probability(self, ctx):
        raise NotImplementedError

    def decision_key(self, network, agent, times):
        """A function history() for agent's decisions once an agent it
        observes has adopted, or None (the default) to be asked at each.
        times is agent's view; history() is read after each period with an
        observed adoption, so every adoption it sees precedes the periods it
        serves.  Equal (period, atom, history()) must get equal answers, for
        every agent holding this object: history() holds the agent if the
        answer depends on it."""
        return None


class NeighborTimes:
    """Read-only view of observed neighbors' adoption times.

    Indexing by an agent the owner does not observe raises
    StrategyViolationError; this is the guard that keeps strategies honest
    about their information sets.  Non-adopted neighbors read as NEVER.
    """

    __slots__ = ("neighbors", "_allowed", "_times")

    def __init__(self, neighbors, times):
        self.neighbors = neighbors
        self._allowed = frozenset(neighbors)
        self._times = times

    def __getitem__(self, j):
        if j not in self._allowed:
            raise StrategyViolationError(
                f"strategy consulted agent {j}, which is not observed"
            )
        return self._times[j]

    def adopted_before(self, t) -> tuple:
        """Neighbors with adoption time strictly before period t."""
        return tuple(j for j in self.neighbors if self._times[j] < t)


class DecisionContext:
    """Everything a strategy may see when deciding in one period."""

    __slots__ = ("agent", "period", "atom", "belief", "times", "network")

    def __init__(self, agent, period, atom, belief, times, network):
        self.agent = agent
        self.period = period
        self.atom = atom
        self.belief = belief
        self.times = times
        self.network = network


def _normalize_profile(network, profile) -> list:
    if hasattr(profile, "adopt_probability"):
        return [profile] * network.n
    strategies = []
    for i in network.agents:
        try:
            strategies.append(profile[i])
        except (KeyError, IndexError) as exc:
            raise ValueError(f"profile has no strategy for agent {i}") from exc
    return strategies


def _deadline(spont, lag, cue) -> float:
    """Last period an agent may adopt in: max(spont, cue + lag), inf if lag is
    None, from its strategy's spontaneous_until and max_reaction_lag and the
    latest adoption cue among the agents it observes (-inf before any)."""
    return math.inf if lag is None else max(spont, cue + lag)


def _record_adoptions(observers, times, deadline, spont, lag, adopting, t) -> set:
    """Record the period-t adoptions in times; return the agents they cue,
    non-adopters in an adopter i's observers[i], with deadlines moved to t."""
    for i in adopting:
        times[i] = t
    cued = {w for i in adopting for w in observers[i] if times[w] == NEVER}
    for w in cued:
        deadline[w] = _deadline(spont[w], lag[w], t)
    return cued


def canonical_history(neighbors, times, t) -> tuple:
    """Canonical key of what an agent observing neighbors has seen entering
    period t: (t, sorted (j, adoption period) pairs adopted before t)."""
    return (t, tuple(sorted((j, times[j]) for j in neighbors if times[j] < t)))


def history_key_to_text(key: tuple) -> str:
    t, pairs = key
    body = ",".join(f"({j},{int(tau)})" for j, tau in pairs) or "-"
    return f"t={t};{body}"


def history_key_from_text(text: str) -> tuple:
    head, _, body = text.partition(";")
    if not head.startswith("t="):
        raise ValueError(f"bad history key {text!r}")
    t = int(head[2:])
    if body == "-":
        return (t, ())
    pairs = []
    for chunk in body.split("),("):
        chunk = chunk.strip("()")
        j, _, tau = chunk.partition(",")
        pairs.append((int(j), int(tau)))
    return (t, tuple(sorted(pairs)))


@dataclass(frozen=True)
class ThresholdRule(Strategy):
    """History-indexed belief thresholds with optional mixing at the cut.

    entries maps (agent, history key) to (threshold, mix_prob); agent None
    is a wildcard matched after the specific agent.  At a matched entry the
    strategy adopts when belief > threshold, adopts with chance mix_prob
    when belief == threshold, and stays out below.  Histories without an
    entry never adopt.
    """

    entries: dict = field(default_factory=dict)
    label: str = ""
    # Latest period of any entry (-1 without entries); no history reaches
    # an entry after it, so it also bounds the reaction lag.
    spontaneous_until: int = field(init=False, repr=False, compare=False)
    max_reaction_lag: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        norm = {}
        for (agent, key), (thr, mix) in self.entries.items():
            if agent is not None:
                agent = int(agent)
            t, pairs = key
            key = (int(t), tuple(sorted((int(j), int(tau)) for j, tau in pairs)))
            thr = as_fraction(thr)
            mix = as_fraction(mix)
            if not 0 <= mix <= 1:
                raise ValueError(f"mix_prob {mix} outside [0, 1]")
            norm[(agent, key)] = (thr, mix)
        object.__setattr__(self, "entries", norm)
        last = max((key[0] for _, key in norm), default=-1)
        object.__setattr__(self, "spontaneous_until", last)
        object.__setattr__(self, "max_reaction_lag", max(last, 0))

    def lookup(self, agent: int, key: tuple):
        hit = self.entries.get((agent, key))
        if hit is None:
            hit = self.entries.get((None, key))
        return hit

    def adopt_probability(self, ctx):
        view = ctx.times
        hit = self.lookup(ctx.agent,
                          canonical_history(view.neighbors, view, ctx.period))
        if hit is None:
            return Fraction(0)
        threshold, mix = hit
        belief = as_fraction(ctx.belief)
        if belief > threshold:
            return Fraction(1)
        if belief == threshold:
            return mix
        return Fraction(0)

    def to_text(self) -> str:
        lines = ["# agent\thistory\tthreshold\tmix_prob"]
        def sort_key(item):
            (agent, key), _ = item
            return (agent if agent is not None else -1, key)
        for (agent, key), (thr, mix) in sorted(self.entries.items(), key=sort_key):
            who = "*" if agent is None else str(agent)
            lines.append(f"{who}\t{history_key_to_text(key)}\t{thr}\t{mix}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ThresholdRule":
        entries = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: expected 4 tab-separated fields")
            who, key_text, thr, mix = parts
            agent = None if who == "*" else int(who)
            entries[(agent, history_key_from_text(key_text))] = (
                Fraction(thr), Fraction(mix))
        return cls(entries=entries)


def myopic_rule(model) -> ThresholdRule:
    """Adopt at period 0 on belief >= 1/2 (weakly), never afterwards."""
    del model  # the rule is model-free; accepted for interface symmetry
    return ThresholdRule(
        entries={(None, (0, ())): (HALF, Fraction(1))},
        label="myopic",
    )


@dataclass(frozen=True)
class FollowRule(Strategy):
    """Adopt one period after the first adoption among designated neighbors.

    tree_neighbors maps each agent to the neighbors it reacts to (normally
    its neighbors in a spanning tree of the observation network).
    """

    tree_neighbors: dict

    spontaneous_until = -1
    max_reaction_lag = 1

    def __post_init__(self):
        norm = {int(a): tuple(sorted(int(j) for j in js))
                for a, js in self.tree_neighbors.items()}
        object.__setattr__(self, "tree_neighbors", norm)

    def adopt_probability(self, ctx):
        watched = self.tree_neighbors.get(ctx.agent, ())
        first = min((ctx.times[j] for j in watched), default=NEVER)
        return Fraction(1) if not is_never(first) and ctx.period == first + 1 else Fraction(0)


def follow_tree_neighbors(network, tree=None) -> FollowRule:
    """Follow rule on a spanning tree of the network.

    tree defaults to the network itself (sensible when it is already a
    tree); when given, every tree edge must be an observation edge.
    """
    tree = tree if tree is not None else network
    for i, j in tree.edges:
        if (i, j) not in network.edges:
            raise ValueError(f"tree edge ({i}, {j}) is not an observation edge")
    neighbor_map = {i: tree.out_neighbors(i) for i in network.agents}
    return FollowRule(tree_neighbors=neighbor_map)


def _check_protocol_k(k) -> None:
    """Reject a relay-protocol parameter k outside the protocol's domain.

    The one check shared by the case table, the strategy and the engine's
    closed form, so all three accept the same k: an int >= 3.
    """
    if not isinstance(k, int) or k < 3:
        raise ValueError(f"invalid protocol parameter: k must be an int >= 3, got {k!r}")


def sigma_eta_k_step(tau_prev, k: int, x: int, mid=HALF):
    """One case-table step of the staged line protocol.

    Given the adoption period tau_prev of the triggering neighbor, the
    agent's own indicator x (1 when its belief is at least 1/2), and the
    decode acceptance cut mid, returns this agent's adoption period or
    NEVER.  Stages: early adopters relay at +k+x (encoding), the agent whose
    trigger lands in [(k-1)k, k^2) decodes the relayed fraction against mid,
    and everything at or past k^2 spreads at unit speed.
    """
    _check_protocol_k(k)
    if x not in (0, 1):
        raise ValueError(f"indicator x must be 0 or 1, got {x!r}")
    if is_never(tau_prev):
        return NEVER
    tau_prev = int(tau_prev)
    if tau_prev < 0:
        raise ValueError(f"adoption period must be >= 0, got {tau_prev}")
    if tau_prev < (k - 1) * k:
        return tau_prev + k + x
    if tau_prev < k * k:
        share = Fraction(tau_prev - (k - 1) * k + x, k)
        return k * k if share > as_fraction(mid) else NEVER
    return tau_prev + 1


@dataclass(frozen=True)
class ProtocolSigma(Strategy):
    """Staged seed/encode/decode/spread protocol on a labeled line or ring.

    Each agent independently adopts at period 0 with probability eta (the
    seeds).  A non-seed applies the case table of sigma_eta_k_step to the
    earliest-adopting line neighbor, with ties broken toward the left
    neighbor (lower index, wrapping on rings); the commitment is absorbing,
    so a committed "never" stands even if the other side adopts later.
    orientation "both" races the two sides; "ltr" reacts only to the left
    neighbor (waves travel left to right) and "rtl" only to the right.
    """

    eta: Fraction
    k: int
    mid: Fraction = HALF
    orientation: str = "both"

    spontaneous_until = 0

    def __post_init__(self):
        eta = as_fraction(self.eta)
        if not 0 < eta < 1:
            raise ValueError(f"seed probability eta must be in (0, 1), got {self.eta}")
        _check_protocol_k(self.k)
        if self.orientation not in ("both", "ltr", "rtl"):
            raise ValueError(f"orientation must be both/ltr/rtl, got {self.orientation!r}")
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "mid", as_fraction(self.mid))

    @property
    def max_reaction_lag(self) -> int:
        return self.k + 1

    def _sides(self, network, agent, times):
        """history() = earliest adoption among the line sides agent reacts to,
        NEVER if none.  Raises unless agent sits on a labeled line or ring
        (of 3 or more agents: a line of 2 is not a ring)."""
        n = network.n
        ring = n >= 3 and not {(0, n - 1), (n - 1, 0)}.isdisjoint(network.edges)
        left = (agent - 1) % n if ring else agent - 1
        right = (agent + 1) % n if ring else agent + 1
        neighbors = times.neighbors
        if not set(neighbors) <= {left, right}:
            raise ValueError(
                f"the sigma strategy needs a network that is a labeled line or ring; "
                f"agent {agent} observes {sorted(neighbors)}"
            )
        sides = {"both": (left, right), "ltr": (left,), "rtl": (right,)}
        sides = [j for j in sides[self.orientation] if j in neighbors]
        if not sides:
            return lambda: NEVER
        a, b = sides[0], sides[-1]  # the same agent when there is one side
        return lambda: min(times[a], times[b])

    def adopt_probability(self, ctx):
        if ctx.period == 0:
            return self.eta
        tau_u = self._sides(ctx.network, ctx.agent, ctx.times)()
        x = 1 if as_fraction(ctx.belief) >= HALF else 0
        my_tau = sigma_eta_k_step(tau_u if tau_u < ctx.period else NEVER,
                                  self.k, x, self.mid)
        return Fraction(1) if ctx.period == my_tau else Fraction(0)

    def decision_key(self, network, agent, times):
        """history() is the earliest side adoption (see _sides)."""
        try:
            return self._sides(network, agent, times)
        except ValueError:  # adopt_probability raises it at the decision
            return None


@dataclass(frozen=True)
class RootStrategySpec:
    """One member of the two imitation families, keyed by a switch time r.

    Family 1 copies child 1 unless it adopts by r, in which case child 2 is
    copied from r on.  Family 2 copies child 1, except that when the
    children split around r it breaks the tie with its own signal.  r is
    kept exactly as given, float or Fraction.
    """

    family: int
    r: "float | Fraction"

    def __post_init__(self):
        if self.family not in (1, 2):
            raise ValueError(f"family must be 1 or 2, got {self.family!r}")
        if not 0 <= self.r <= 1:
            raise ValueError("switch time r must lie in [0, 1]")


def grid_index_of_time(r, delta):
    """Largest m with 1 - delta**m <= r (NEVER when r = 1), warning off-grid."""
    r = as_fraction(r)
    delta = as_fraction(delta)
    if r == 1:
        return NEVER
    m = 0
    power = Fraction(1)
    while True:
        next_power = power * delta
        if 1 - next_power > r:
            break
        power = next_power
        m += 1
    if 1 - power != r:
        warnings.warn(
            f"cutoff {float(r):.6g} is off the geometric grid; snapped down to "
            f"1 - delta**{m}",
            stacklevel=2,
        )
    return m


@dataclass(frozen=True)
class AuxRootRule(Strategy):
    """Family rule of a root observing two children, on the discrete clock.

    The switch time spec.r must lie on the geometric grid
    {1 - delta**n} union {1}; off-grid values snap down to the previous grid
    point with a warning.  Family 1 adopts right after the first child when
    that child is late (past r), and otherwise waits for the second child or
    the cutoff, whichever is later.  Family 2 adopts at the cutoff exactly
    when the first child is late, the second child was early, and its own
    belief favors the high state strictly; otherwise it shadows the first
    child.  The rule never peeks at same-period actions: the period-t
    decision uses child adoptions strictly before t, so every mapped
    adoption lands one period after the information that triggered it.
    """

    spec: RootStrategySpec
    delta: Fraction
    # Grid index m with r = 1 - delta**m; NEVER when r = 1.
    cutoff_period: float = field(init=False)

    spontaneous_until = -1

    def __post_init__(self):
        delta = as_fraction(self.delta)
        if not 0 < delta < 1:
            raise ValueError(f"delta must be in (0, 1), got {self.delta!r}")
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "cutoff_period",
                           grid_index_of_time(self.spec.r, delta))

    @property
    def max_reaction_lag(self):
        m = self.cutoff_period
        return (int(m) + 1) if not is_never(m) else 1

    def adopt_probability(self, ctx):
        neighbors = sorted(ctx.times.neighbors)
        if len(neighbors) != 2:
            raise ValueError(
                f"two-child root rule needs exactly 2 observed children, agent "
                f"{ctx.agent} has {len(neighbors)}"
            )
        c1, c2 = neighbors
        t = ctx.period
        t1, t2 = ctx.times[c1], ctx.times[c2]
        m = self.cutoff_period  # NEVER encodes r = 1
        # NEVER is infinite: it compares as late, and t == NEVER + 1 never holds.
        if self.spec.family == 1:  # the discrete form of family 1's score
            fire = t == (t1 if t1 > m else max(t2, m)) + 1
        else:
            fire = t == t1 + 1 or (t == m + 1 and t1 > m and t2 <= m
                                   and as_fraction(ctx.belief) > HALF)
        return Fraction(1) if fire else Fraction(0)


@dataclass(frozen=True)
class CenterBayesRule(Strategy):
    """Defer, then adopt at a fixed period on the exact posterior.

    Intended for a hub whose observed neighbors all play the myopic rule:
    at the decision period the posterior pools the agent's own signal with
    one adopt/stay indicator per neighbor, each weighted by the model's
    period-0 indicator likelihoods.  Adopts on posterior >= 1/2 exactly
    once; all other periods stay out.
    """

    model: object
    period: int = 1
    # The model's period-0 indicator likelihoods (P[adopt | H], P[adopt | L]).
    _indicator: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.period < 0:
            raise ValueError(f"decision period must be >= 0, got {self.period}")
        object.__setattr__(self, "_indicator", self.model.indicator_probs())

    @property
    def spontaneous_until(self) -> int:
        return self.period

    @property
    def max_reaction_lag(self) -> int:
        return max(self.period, 1)

    def adopt_probability(self, ctx):
        if ctx.period != self.period:
            return Fraction(0)
        view = ctx.times
        adopted = len(view.adopted_before(ctx.period))
        stayed = len(view.neighbors) - adopted
        p_high, p_low = self._indicator
        lh, ll = self.model.atoms[ctx.atom]
        odds_h = lh * p_high ** adopted * (1 - p_high) ** stayed
        odds_l = ll * p_low ** adopted * (1 - p_low) ** stayed
        return Fraction(1) if odds_h >= odds_l else Fraction(0)

    def decision_key(self, network, agent, times):
        """history() = (observed count, adopted count), no agent id."""
        observed = len(times.neighbors)
        return lambda: (observed, len(times.adopted_before(NEVER)))


def strategy_from_spec(spec, model, delta=None):
    """Build a strategy from a config fragment.

    Accepts "myopic", {"sigma": {"eta": ..., "k": ..., ...}},
    {"aux": {"family": ..., "r": ..., "delta": ...}},
    {"center_bayes": {"period": ...}} or
    {"threshold_table_text": "..."}.
    """
    if spec == "myopic" or spec == {"myopic": {}}:
        return myopic_rule(model)
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ValueError(f"strategy spec must be 'myopic' or a one-key mapping, got {spec!r}")
    kind, body = next(iter(spec.items()))
    where = f"strategy.{kind}"
    if kind == "sigma":
        p_high, p_low = model.indicator_probs()
        mid = spec_value(body, "mid", where, as_fraction, (p_high + p_low) / 2)
        return ProtocolSigma(
            eta=spec_value(body, "eta", where, as_fraction),
            k=spec_value(body, "k", where, as_int),
            mid=mid,
            orientation=spec_value(body, "orientation", where, str, "both"),
        )
    if kind == "aux":
        delta = spec_value(body, "delta", where, as_fraction, delta)
        if delta is None:
            raise ValueError("aux strategy needs delta")
        spec = RootStrategySpec(family=spec_value(body, "family", where, as_int),
                                r=spec_value(body, "r", where, as_fraction))
        return AuxRootRule(spec=spec, delta=delta)
    if kind == "center_bayes":
        return CenterBayesRule(model=model,
                               period=spec_value(body, "period", where, as_int, 1))
    if kind == "threshold_table_text":
        return ThresholdRule.from_text(body)
    raise ValueError(f"unknown strategy spec kind {kind!r}")
