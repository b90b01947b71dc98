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
import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import InitVar, dataclass
from fractions import Fraction

import numpy as np

from .common import NEVER, STATE_HIGH, STATE_LOW, as_fraction, is_never
from .signals import SignalModel, binary_model, sample_atoms
from .strategies import (DecisionContext, NeighborTimes, _check_protocol_k,
                         _deadline, _normalize_profile, _record_adoptions)

_LLR_CLAMP = math.log(1e9)
_QUIET = object()  # the history part of an agent that has had no cue


@dataclass(frozen=True)
class ActionTrace:
    """One realized run: per-agent adoption periods plus draw bookkeeping.
    Times must be NEVER or in 0..horizon, checked except in run_profile's."""

    times: tuple
    horizon: int
    state: str
    atoms: tuple
    beliefs: tuple
    truncated: bool
    quiescent_at: int | None = None
    _trusted: InitVar[bool] = False

    def __post_init__(self, _trusted):
        if _trusted:
            return
        for tau in self.times:
            if not is_never(tau) and not (0 <= tau <= self.horizon):
                raise ValueError(f"adoption time {tau} outside 0..{self.horizon}")


class _RunPlan:
    """What every run of one profile on one network and model shares.

    Strategies, activity limits and deadlines before any cue, observers, one
    times list and one adopter list (in adoption order) that each run resets,
    each agent's view of times and history function (see
    Strategy.decision_key), and one answer memo per strategy object, which
    memos[i] names for every agent i that holds it.  Before any agent an
    agent observes adopts, its answer is filed under (agent, period, atom)
    packed into one int; after, under (period, atom, history part), or not
    at all without a history function."""

    __slots__ = ("network", "strategies", "spont", "lag", "deadlines", "beliefs",
                 "float_beliefs", "observers", "times", "adopters", "views",
                 "histories", "memos")

    def __init__(self, network, model: SignalModel, profile):
        self.network = network
        self.strategies = _normalize_profile(network, profile)
        self.spont = [s.spontaneous_until for s in self.strategies]
        self.lag = [s.max_reaction_lag for s in self.strategies]
        self.deadlines = [_deadline(self.spont[i], self.lag[i], -math.inf)
                          for i in network.agents]
        self.beliefs = model.beliefs
        self.float_beliefs = tuple(float(b) for b in self.beliefs)
        self.observers = [network.in_neighbors(i) for i in network.agents]
        self.times = [NEVER] * network.n
        self.adopters = []
        self.views = [NeighborTimes(network.out_neighbors(i), self.times)
                      for i in network.agents]
        self.histories = [s.decision_key(network, i, self.views[i])
                          for i, s in enumerate(self.strategies)]
        shared = {}
        self.memos = [shared.setdefault(id(s), {}) for s in self.strategies]

    def decide(self, i, t, atom):
        """Ask agent i's strategy; True adopts, False stays out, and a
        float is the chance of adopting, drawn from the run's stream."""
        p = self.strategies[i].adopt_probability(DecisionContext(
            agent=i, period=t, atom=atom, belief=self.beliefs[atom],
            times=self.views[i], network=self.network))
        return True if p == 1 else False if p == 0 else float(p)


def run_profile(network, model: SignalModel, profile, horizon: int,
                rng: np.random.Generator, *, state: str | None = None,
                atoms=None, _plan: _RunPlan | None = None) -> ActionTrace:
    """Simulate one synchronous run and return its trace.

    profile is either one strategy shared by all agents or a per-agent
    mapping/sequence.  state and atoms can be pinned for conditional runs
    and designated-realization replays; otherwise the state is drawn
    uniformly and atoms i.i.d. from the model given the state.

    Each period asks, in id order, the agents on the awake list whose
    deadline (see _deadline) has not passed; the next list is those agents
    and the ones just cued, less the adopters.  A cued agent's history part
    is read once per period, after the period's adoptions are recorded.
    Answers are filed in the memo of _plan (see _RunPlan) and reused in any
    run sharing it (same network, model and profile; estimate shares one
    per shard).  A mixing answer draws one uniform from rng, in agent
    order, whether it was asked or reused.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    plan = _plan if _plan is not None else _RunPlan(network, model, profile)
    n = network.n
    if state is None:
        state = STATE_HIGH if rng.integers(0, 2) == 0 else STATE_LOW
    elif state not in (STATE_HIGH, STATE_LOW):
        raise ValueError(f"unknown state {state!r}")
    if atoms is None:
        atoms = sample_atoms(model, state, n, rng).tolist()
    else:
        atoms = [int(a) for a in atoms]
        if len(atoms) != n:
            raise ValueError("need one signal atom per agent")
        if not all(0 <= a < model.n_atoms for a in atoms):
            raise ValueError(f"signal atoms must lie in 0..{model.n_atoms - 1}")

    times, adopters = plan.times, plan.adopters
    times[:] = [NEVER] * n
    adopters.clear()
    spont, lag, histories, memos = plan.spont, plan.lag, plan.histories, plan.memos
    n_atoms = model.n_atoms
    deadline = list(plan.deadlines)
    history = [_QUIET] * n
    awake = list(network.agents)
    remaining = n
    quiescent_at = None

    for t in range(horizon + 1):
        active = [i for i in awake if deadline[i] >= t]
        if not active:
            if remaining:
                quiescent_at = t
            break
        adopting = []
        for i in active:
            atom = atoms[i]
            h = history[i]
            if h is _QUIET:  # (agent, period, atom) packed into one int
                key = (t * n + i) * n_atoms + atom
            else:
                key = None if h is None else (t, atom, h)
            if key is None:
                verdict = plan.decide(i, t, atom)
            else:
                verdict = memos[i].get(key)
                if verdict is None:
                    verdict = memos[i][key] = plan.decide(i, t, atom)
            if verdict is True or (verdict is not False
                                   and rng.random() < verdict):
                adopting.append(i)
        if adopting:
            remaining -= len(adopting)
            adopters += adopting
            cued = _record_adoptions(plan.observers, times, deadline, spont,
                                     lag, adopting, t)
            for w in cued:
                history[w] = histories[w] and histories[w]()
            active = sorted(cued.union(active).difference(adopting))
        awake = active

    truncated = bool(remaining) and quiescent_at is None
    return ActionTrace(
        times=tuple(times),
        horizon=horizon,
        state=state,
        atoms=tuple(atoms),
        beliefs=tuple(map(plan.float_beliefs.__getitem__, atoms)),
        truncated=truncated,
        quiescent_at=quiescent_at,
        _trusted=True,
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
    stream derived from (seed, r), so results are reproducible.  The
    replications of one shard share one _RunPlan, so a strategy is asked
    once per decision key and shard (see run_profile), and a replication is
    tallied from the plan's adopter list: it costs time in its decisions and
    adoptions, not in agents, and never-adopters add 0.  jobs > 1 splits the
    replications into jobs shards, run by at most one worker process per
    CPU, with a deterministic merge: counts and fractions do not depend on
    jobs, but the float utility sums are added shard by shard, so utilities
    can differ in the last bits between job counts.  delta may be a number
    or a "p/q" string.
    """
    if n_reps <= 0:
        raise ValueError(f"need n_reps >= 1, got {n_reps}")
    if jobs < 1:
        raise ValueError(f"need jobs >= 1, got {jobs}")
    deltaf = float(as_fraction(delta))
    if not 0 < deltaf < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    shards = _shard_ranges(n_reps, jobs)
    args = [(network, model, profile, horizon, deltaf, seed, lo, hi)
            for lo, hi in shards]
    partials = (_parallel_shards(args) if jobs > 1 and len(shards) > 1
                else [_estimate_shard(a) for a in args])

    correct = sum(p["correct"] for p in partials)
    util = sum(p["util"] for p in partials)
    truncated_runs = sum(p["truncated"] for p in partials)
    quiescent_runs = sum(p["quiescent"] for p in partials)

    p_hat = correct / n_reps
    ci = 1.96 * np.sqrt(p_hat * (1.0 - p_hat) / n_reps)
    return EstimateReport(
        n_agents=network.n,
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
    jobs = int(jobs)
    if jobs == 1:
        return [(0, n_reps)]
    per = math.ceil(n_reps / jobs)
    return [(lo, min(lo + per, n_reps)) for lo in range(0, n_reps, per)]


def _parallel_shards(args) -> list:
    """Run the shards in at most one worker process per CPU, or here when
    the arguments do not pickle or the pool breaks or cannot start.  A
    shard's own error propagates, as it would in a sequential run."""
    try:
        pickle.dumps(args)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        failure = exc
    else:
        try:
            workers = min(len(args), os.cpu_count() or 1)
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(_estimate_shard, args))
        except (BrokenProcessPool, OSError) as exc:
            failure = exc
    warnings.warn(f"parallel estimation failed ({failure}); running sequentially")
    return [_estimate_shard(a) for a in args]


def _estimate_shard(packed):
    network, model, profile, horizon, delta, seed, lo, hi = packed
    n = network.n
    adopted = ([0] * n, [0] * n)  # runs each agent adopted in, high and low
    util = [0.0] * n
    low_reps = truncated = quiescent = 0
    plan = _RunPlan(network, model, profile)
    for rep in range(lo, hi):
        rng = _replication_rng(seed, rep)
        trace = run_profile(network, model, profile, horizon, rng, _plan=plan)
        # adjudicate's flags: adopting is correct exactly in the high state
        low = trace.state == STATE_LOW
        low_reps += low
        counts, sign, times = adopted[low], -1.0 if low else 1.0, trace.times
        for i in plan.adopters:
            counts[i] += 1
            util[i] += (delta ** times[i]) * sign
        truncated += trace.truncated
        quiescent += trace.quiescent_at is not None
    correct = [h + low_reps - l for h, l in zip(*adopted)]
    return {"correct": np.array(correct, dtype=np.int64),
            "util": np.array(util, dtype=np.float64),
            "truncated": truncated, "quiescent": quiescent}


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
    # Mean adoption share across agents per state; None when no replication
    # drew that state.
    adopt_rate_high: float | None
    adopt_rate_low: float | None

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


def sigma_ring_replication(model: SignalModel, n: int, k: int, eta: float,
                           seed: int, rep: int) -> tuple:
    """State and closed-form times (sigma_ring_times) of replication rep of
    the coordination protocol on a ring of n agents.  Its stream is drawn in
    run_profile's order (state, atoms, then one period-0 coin per agent), so
    run_profile on _replication_rng(seed, rep) replays the same run."""
    rng = _replication_rng(seed, rep)
    state = STATE_HIGH if rng.integers(0, 2) == 0 else STATE_LOW
    atoms = sample_atoms(model, state, n, rng)
    seeds = rng.random(n) < eta
    high_bit = np.array([1 if b >= Fraction(1, 2) else 0 for b in model.beliefs])
    return state, sigma_ring_times(seeds, high_bit[atoms], k)


def sigma_ring_estimate(n: int, k: int, eta, q, n_reps: int, seed: int,
                        agent: int | None = None) -> SigmaRingReport:
    """Estimate eventual correctness under the coordination protocol.

    Uses the per-gap closed form instead of the step-by-step engine, so
    rings with thousands of agents are cheap.  Each replication is drawn
    by sigma_ring_replication, which a replay through run_profile matches
    exactly.
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
    correct = np.zeros(n, dtype=np.int64)
    adopted_by_state = [0, 0]
    reps_by_state = [0, 0]
    for rep in range(n_reps):
        state, times = sigma_ring_replication(model, n, k, eta_f, seed, rep)
        adopted = np.isfinite(times)
        low = int(state == STATE_LOW)  # adopting is correct when high
        correct += adopted != low
        adopted_by_state[low] += int(adopted.sum())
        reps_by_state[low] += 1
    p_agents = correct / n_reps
    p = float(p_agents[agent])
    rate_high, rate_low = (adopted / (n * reps) if reps else None
                           for adopted, reps in zip(adopted_by_state, reps_by_state))
    return SigmaRingReport(
        n_agents=n,
        k=k,
        eta=eta_f,
        q=float(as_fraction(q)),
        n_reps=n_reps,
        seed=seed,
        agent=agent,
        p_hat=p,
        ci=1.96 * math.sqrt(p * (1.0 - p) / n_reps),
        p_hat_agents=tuple(p_agents.tolist()),
        adopt_rate_high=rate_high,
        adopt_rate_low=rate_low,
    )
