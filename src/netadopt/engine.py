"""Synchronous simulation of irreversible adoption on observation networks.

Periods are integers starting at 0.  In each period every non-adopted agent
that can still act decides simultaneously from its own signal and the
adoption times of the agents it observes, strictly before the current
period; whether it can act follows from its strategy's declared
spontaneous_until and max_reaction_lag.  Adoption is irreversible.  A run
ends at the horizon or earlier when no remaining agent can ever act again
(quiescence), in which case the remaining agents' NEVER is final rather
than a truncation artifact.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .common import (NEVER, STATE_HIGH, STATE_LOW, StrategyViolationError,
                     as_fraction, is_never)
from .signals import SignalModel, binary_model, sample_atoms
from .strategies import _check_protocol_k

_LLR_CLAMP = math.log(1e9)


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

    __slots__ = ("agent", "period", "atom", "belief", "times", "rng", "network")

    def __init__(self, agent, period, atom, belief, times, rng, network):
        self.agent = agent
        self.period = period
        self.atom = atom
        self.belief = belief
        self.times = times
        self.rng = rng
        self.network = network


@dataclass(frozen=True)
class ActionTrace:
    """One realized run: per-agent adoption periods plus draw bookkeeping."""

    times: tuple
    horizon: int
    state: str
    atoms: tuple
    beliefs: tuple
    truncated: bool
    quiescent_at: int | None = None

    def __post_init__(self):
        for tau in self.times:
            if not is_never(tau) and not (0 <= tau <= self.horizon):
                raise ValueError(f"adoption time {tau} outside 0..{self.horizon}")


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


def _active_agents(remaining, t, spont, lag, last_cue) -> list:
    """The remaining agents that may still adopt at period t, in order.

    spont, lag and last_cue are indexed by agent: each strategy's declared
    spontaneous_until and max_reaction_lag, and the latest adoption period
    among the agents it observes (-inf before any).  Any other agent would
    answer 0 now, and stays inactive until a neighbor adopts; when none is
    active the run is quiescent.
    """
    return [i for i in remaining
            if spont[i] >= t or lag[i] is None or last_cue[i] + lag[i] >= t]


def _record_adoptions(network, times, last_cue, adopting, t) -> None:
    """Record the period-t adoptions in times and in last_cue.

    last_cue[w] becomes t for every agent w that observes an adopter.
    """
    for i in adopting:
        times[i] = t
        for watcher in network.in_neighbors(i):
            if t > last_cue[watcher]:
                last_cue[watcher] = t


def run_profile(network, model: SignalModel, profile, horizon: int,
                rng: np.random.Generator, *, state: str | None = None,
                atoms=None) -> ActionTrace:
    """Simulate one synchronous run and return its trace.

    profile is either one strategy shared by all agents or a per-agent
    mapping/sequence.  state and atoms can be pinned for conditional runs
    and designated-realization replays; otherwise the state is drawn
    uniformly and atoms i.i.d. from the model given the state.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    strategies = _normalize_profile(network, profile)
    if state is None:
        state = STATE_HIGH if rng.integers(0, 2) == 0 else STATE_LOW
    elif state not in (STATE_HIGH, STATE_LOW):
        raise ValueError(f"unknown state {state!r}")
    if atoms is None:
        atoms = sample_atoms(model, state, network.n, rng)
    atoms = [int(a) for a in atoms]
    if len(atoms) != network.n:
        raise ValueError("need one signal atom per agent")
    beliefs = model.beliefs

    times = [NEVER] * network.n
    views = [NeighborTimes(network.out_neighbors(i), times) for i in network.agents]
    spont = [s.spontaneous_until for s in strategies]
    lag = [s.max_reaction_lag for s in strategies]
    last_cue = [-math.inf] * network.n  # latest adoption among observed agents
    remaining = list(network.agents)
    quiescent_at = None

    for t in range(horizon + 1):
        active = _active_agents(remaining, t, spont, lag, last_cue)
        if not active:
            if remaining:
                quiescent_at = t
            break
        adopting = []
        for i in active:
            ctx = DecisionContext(
                agent=i, period=t, atom=atoms[i], belief=beliefs[atoms[i]],
                times=views[i], rng=rng, network=network,
            )
            p = strategies[i].adopt_probability(ctx)
            if p == 1:
                adopting.append(i)
            elif p != 0:
                if rng.random() < float(p):
                    adopting.append(i)
        _record_adoptions(network, times, last_cue, adopting, t)
        if adopting:
            remaining = [i for i in remaining if is_never(times[i])]

    truncated = bool(remaining) and quiescent_at is None
    return ActionTrace(
        times=tuple(times),
        horizon=horizon,
        state=state,
        atoms=tuple(atoms),
        beliefs=tuple(float(beliefs[a]) for a in atoms),
        truncated=truncated,
        quiescent_at=quiescent_at,
    )


def adjudicate(trace: ActionTrace):
    """Per-agent eventual-correctness flags for one trace.

    Correct means adopting in the high state or never adopting in the low
    state.  Returns (flags, truncation_bias): when the run was truncated
    before quiescence, non-adopters count as never-adopters but the flag
    warns that their verdict may be a horizon artifact.
    """
    high = trace.state == STATE_HIGH
    flags = tuple(
        (not is_never(tau)) == high
        for tau in trace.times
    )
    truncation_bias = trace.truncated and any(is_never(tau) for tau in trace.times)
    return flags, truncation_bias


@dataclass(frozen=True)
class EstimateReport:
    """Monte Carlo summary over i.i.d. replications of one profile."""

    n_agents: int
    n_reps: int
    seed: int
    delta: float
    horizon: int
    p_hat: tuple
    ci: tuple          # 1.96 * sqrt(p(1-p)/n), one per agent
    utility: tuple     # NEVER contributes 0
    truncated_fraction: float
    quiescent_fraction: float

    def rows(self, run_id: str = "run"):
        """CSV rows: run-id, agent, p_hat, ci, utility, truncated_fraction."""
        for i in range(self.n_agents):
            yield {
                "run_id": run_id,
                "agent": i,
                "p_hat": self.p_hat[i],
                "ci": self.ci[i],
                "utility": self.utility[i],
                "truncated_fraction": self.truncated_fraction,
            }


def _replication_rng(seed: int, rep: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(rep))))


def estimate(network, model: SignalModel, profile, horizon: int, delta,
             n_reps: int, seed: int, jobs: int = 1) -> EstimateReport:
    """Estimate eventual correctness and discounted utility per agent.

    Runs n_reps independent replications; replication r uses a random
    stream derived from (seed, r), so results are reproducible.  jobs > 1
    shards replications across processes with a deterministic merge: counts
    and fractions do not depend on jobs, but the float utility sums are
    added shard by shard, so utilities can differ in the last bits between
    job counts.  delta may be a number or a "p/q" string.
    """
    if n_reps <= 0:
        raise ValueError(f"need n_reps >= 1, got {n_reps}")
    deltaf = float(as_fraction(delta))
    if not 0 < deltaf < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    shards = _shard_ranges(n_reps, jobs)
    args = [(network, model, profile, horizon, deltaf, seed, lo, hi)
            for lo, hi in shards]
    if jobs > 1 and len(shards) > 1:
        try:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                partials = list(pool.map(_estimate_shard, args))
        except Exception as exc:  # pickling or platform failure: stay correct
            warnings.warn(f"parallel estimation failed ({exc}); running sequentially")
            partials = [_estimate_shard(a) for a in args]
    else:
        partials = [_estimate_shard(a) for a in args]

    n = network.n
    correct = sum(p["correct"] for p in partials)
    util = sum(p["util"] for p in partials)
    truncated_runs = sum(p["truncated"] for p in partials)
    quiescent_runs = sum(p["quiescent"] for p in partials)

    p_hat = correct / n_reps
    ci = 1.96 * np.sqrt(p_hat * (1.0 - p_hat) / n_reps)
    return EstimateReport(
        n_agents=n,
        n_reps=n_reps,
        seed=int(seed),
        delta=deltaf,
        horizon=horizon,
        p_hat=tuple(float(v) for v in p_hat),
        ci=tuple(float(v) for v in ci),
        utility=tuple(float(v) for v in util / n_reps),
        truncated_fraction=truncated_runs / n_reps,
        quiescent_fraction=quiescent_runs / n_reps,
    )


def _shard_ranges(n_reps: int, jobs: int):
    jobs = max(1, int(jobs))
    if jobs == 1:
        return [(0, n_reps)]
    per = math.ceil(n_reps / jobs)
    return [(lo, min(lo + per, n_reps)) for lo in range(0, n_reps, per)]


def _estimate_shard(packed):
    network, model, profile, horizon, delta, seed, lo, hi = packed
    n = network.n
    correct = np.zeros(n, dtype=np.int64)
    util = np.zeros(n, dtype=np.float64)
    truncated = 0
    quiescent = 0
    for rep in range(lo, hi):
        rng = _replication_rng(seed, rep)
        trace = run_profile(network, model, profile, horizon, rng)
        flags, _ = adjudicate(trace)
        high = trace.state == STATE_HIGH
        for i, tau in enumerate(trace.times):
            if flags[i]:
                correct[i] += 1
            if not is_never(tau):
                util[i] += (delta ** tau) * (1.0 if high else -1.0)
        if trace.truncated:
            truncated += 1
        if trace.quiescent_at is not None:
            quiescent += 1
    return {"correct": correct, "util": util, "truncated": truncated,
            "quiescent": quiescent}


def outsider_posterior(trace: ActionTrace, adopt_probs) -> float:
    """Posterior belief of an outside observer who sees only period-0 actions.

    adopt_probs gives each agent's (P[adopt at 0 | H], P[adopt at 0 | L]).
    The log-likelihood ratio of each indicator is summed; zero-probability
    observations clamp their contribution to +/- ln(1e9) with a warning.
    """
    if len(adopt_probs) != len(trace.times):
        raise ValueError("need one (pH, pL) pair per agent")
    total = 0.0
    for i, (p_high, p_low) in enumerate(adopt_probs):
        p_high, p_low = float(p_high), float(p_low)
        adopted = trace.times[i] == 0
        num = p_high if adopted else 1.0 - p_high
        den = p_low if adopted else 1.0 - p_low
        if num <= 0.0 and den <= 0.0:
            warnings.warn(
                f"agent {i}: observation impossible under both states; skipped"
            )
            continue
        if num <= 0.0:
            warnings.warn(f"agent {i}: zero likelihood under H; log-ratio clamped")
            total -= _LLR_CLAMP
        elif den <= 0.0:
            warnings.warn(f"agent {i}: zero likelihood under L; log-ratio clamped")
            total += _LLR_CLAMP
        else:
            total += math.log(num) - math.log(den)
    try:
        return 1.0 / (1.0 + math.exp(-total))
    except OverflowError:
        # total is below about -709, so 1 + exp(total) rounds to 1.
        return math.exp(total)


def sigma_chain_times(x_bits: np.ndarray, k: int) -> np.ndarray:
    """Adoption times along one arc of the coordination protocol.

    x_bits[j] is the private bit of the agent at distance j + 1 from the
    adopter that started the wave.  Times are measured from that adopter's
    own adoption; entry j is inf when the wave dies before reaching j.

    Encoding phase (distance d < k): the agent adds its bit on top of a
    stride of k, so the running time is d * k + (bit prefix sum).  The
    agent at distance k reads the k collected bits back out of its
    trigger time and adopts at k * k only on a strict majority; otherwise
    it never adopts and the wave is blocked there and beyond.  Past the
    decoder the wave advances one agent per period.
    """
    length = len(x_bits)
    d = np.arange(1, length + 1)
    prefix = np.cumsum(x_bits)
    times = np.where(d < k, d * k + prefix, np.inf)
    if length >= k and 2 * prefix[k - 1] > k:
        tail = d >= k
        times[tail] = k * k + (d[tail] - k)
    return times


def sigma_ring_times(seeds: np.ndarray, x_bits: np.ndarray, k: int) -> np.ndarray:
    """Exact adoption times on a ring under the coordination protocol.

    seeds marks the agents that adopt spontaneously at period 0; x_bits
    holds every agent's private bit.  Each agent between two consecutive
    seeds commits to whichever side's wave would reach it first (its
    trigger time, ties to the left) and then follows that side's chain,
    so the whole outcome factors into independent per-gap computations.
    Returns one adoption time per agent, inf for never.
    """
    n = len(seeds)
    times = np.full(n, np.inf)
    pos = np.flatnonzero(seeds)
    if pos.size == 0:
        return times
    times[pos] = 0.0
    for g in range(pos.size):
        left = pos[g]
        right = pos[(g + 1) % pos.size]
        gap = (right - left - 1) % n
        if gap == 0:
            continue
        members = (left + 1 + np.arange(gap)) % n
        xs = x_bits[members]
        from_left = sigma_chain_times(xs, k)
        from_right = sigma_chain_times(xs[::-1], k)[::-1]
        trigger_left = np.concatenate(([0.0], from_left[:-1]))
        trigger_right = np.concatenate((from_right[1:], [0.0]))
        choose_left = trigger_left <= trigger_right
        times[members] = np.where(choose_left, from_left, from_right)
    return times


@dataclass(frozen=True)
class SigmaRingReport:
    """Monte Carlo summary of the coordination protocol on a ring."""

    n_agents: int
    k: int
    eta: float
    q: float
    n_reps: int
    seed: int
    agent: int
    p_hat: float
    ci: float
    p_hat_agents: tuple
    adopt_rate_high: float   # mean adoption share across agents, state high
    adopt_rate_low: float

    def rows(self, run_id: str = "run"):
        """CSV rows: run-id, agent, correctness estimate, half-width."""
        for i in range(self.n_agents):
            p = self.p_hat_agents[i]
            yield {
                "run_id": run_id,
                "agent": i,
                "p_hat": p,
                "ci": 1.96 * math.sqrt(p * (1.0 - p) / self.n_reps),
                "utility": "",
                "truncated_fraction": 0.0,
            }


def sigma_ring_estimate(n: int, k: int, eta, q, n_reps: int, seed: int,
                        agent: int | None = None) -> SigmaRingReport:
    """Estimate eventual correctness under the coordination protocol.

    Uses the per-gap closed form instead of the step-by-step engine, so
    rings with thousands of agents are cheap.  Replication r consumes its
    random stream in the same order as the engine (state, signal atoms,
    then one period-0 coin per agent in id order), which lets tests replay
    a replication through run_profile and compare times exactly.
    """
    if n < 3:
        raise ValueError("ring needs at least three agents")
    _check_protocol_k(k)
    if n_reps < 1:
        raise ValueError("need at least one replication")
    eta_f = float(eta)
    if not 0.0 < eta_f < 1.0:
        raise ValueError(f"spontaneous rate eta must lie in (0, 1), got {eta}")
    model = binary_model(as_fraction(q))
    if agent is None:
        agent = n // 2
    if not 0 <= agent < n:
        raise ValueError(f"agent {agent} out of range for {n} agents")
    high_bit = np.array([1 if b >= Fraction(1, 2) else 0 for b in model.beliefs])
    correct = np.zeros(n, dtype=np.int64)
    adopted_by_state = [0, 0]
    reps_by_state = [0, 0]
    for rep in range(n_reps):
        rng = _replication_rng(seed, rep)
        state = STATE_HIGH if rng.integers(0, 2) == 0 else STATE_LOW
        atoms = sample_atoms(model, state, n, rng)
        seeds_mask = rng.random(n) < eta_f
        times = sigma_ring_times(seeds_mask, high_bit[atoms], k)
        adopted = np.isfinite(times)
        if state == STATE_HIGH:
            correct += adopted
            adopted_by_state[0] += int(adopted.sum())
            reps_by_state[0] += 1
        else:
            correct += ~adopted
            adopted_by_state[1] += int(adopted.sum())
            reps_by_state[1] += 1
    p_agents = correct / n_reps
    p = float(p_agents[agent])
    return SigmaRingReport(
        n_agents=n,
        k=k,
        eta=eta_f,
        q=float(q),
        n_reps=n_reps,
        seed=seed,
        agent=agent,
        p_hat=p,
        ci=1.96 * math.sqrt(p * (1.0 - p) / n_reps),
        p_hat_agents=tuple(p_agents.tolist()),
        adopt_rate_high=(adopted_by_state[0] / (n * reps_by_state[0])
                         if reps_by_state[0] else float("nan")),
        adopt_rate_low=(adopted_by_state[1] / (n * reps_by_state[1])
                        if reps_by_state[1] else float("nan")),
    )
