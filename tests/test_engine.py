import math
import warnings
from concurrent.futures.process import BrokenProcessPool
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from netadopt.common import NEVER, STATE_HIGH, STATE_LOW, StrategyViolationError, is_never
from netadopt.engine import (
    ActionTrace,
    _RunPlan,
    adjudicate,
    estimate,
    outsider_posterior,
    run_profile,
    sigma_chain_times,
    sigma_ring_estimate,
    sigma_ring_times,
)
from netadopt.networks import build_line, build_star
from netadopt.signals import binary_model, sample_atoms
from netadopt.strategies import (CenterBayesRule, FollowRule, ProtocolSigma,
                                 Strategy, ThresholdRule, myopic_rule)

Q = Fraction(3, 4)
MODEL = binary_model(Q)


def test_run_profile_pinned_atoms_myopic():
    net = build_line(3)
    trace = run_profile(net, MODEL, myopic_rule(MODEL), horizon=5,
                        rng=np.random.default_rng(0),
                        state=STATE_HIGH, atoms=[0, 1, 0])
    assert trace.times == (0, NEVER, 0)
    assert trace.state == STATE_HIGH
    assert trace.beliefs == (0.75, 0.25, 0.75)
    # nobody can ever act after period 0, so the run ends by quiescence
    assert not trace.truncated
    assert trace.quiescent_at == 1


def test_run_profile_truncation_flag():
    net = build_line(3, directed=True)
    profile = {
        0: myopic_rule(MODEL),
        1: FollowRule(tree_neighbors={1: (0,)}),
        2: FollowRule(tree_neighbors={2: (1,)}),
    }
    trace = run_profile(net, MODEL, profile, horizon=1,
                        rng=np.random.default_rng(0),
                        state=STATE_HIGH, atoms=[0, 0, 0])
    # the relay chain needs period 2 for the last agent; horizon 1 cuts it off
    assert trace.times == (0, 1, NEVER)
    assert trace.truncated
    assert trace.quiescent_at is None
    longer = run_profile(net, MODEL, profile, horizon=10,
                         rng=np.random.default_rng(0),
                         state=STATE_HIGH, atoms=[0, 0, 0])
    assert longer.times == (0, 1, 2)
    assert not longer.truncated


def test_run_profile_validation():
    net = build_line(2)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="horizon"):
        run_profile(net, MODEL, myopic_rule(MODEL), horizon=-1, rng=rng)
    with pytest.raises(ValueError, match="unknown state"):
        run_profile(net, MODEL, myopic_rule(MODEL), horizon=1, rng=rng, state="M")
    with pytest.raises(ValueError, match="one signal atom per agent"):
        run_profile(net, MODEL, myopic_rule(MODEL), horizon=1, rng=rng, atoms=[0])
    for atoms in ([0, -1], [2, 0]):
        with pytest.raises(ValueError, match="atoms must lie in 0..1"):
            run_profile(net, MODEL, myopic_rule(MODEL), horizon=1, rng=rng,
                        atoms=atoms)
    with pytest.raises(ValueError, match="no strategy for agent"):
        run_profile(net, MODEL, {0: myopic_rule(MODEL)}, horizon=1, rng=rng)


def test_information_set_guard():
    class Peeker(Strategy):
        def adopt_probability(self, ctx):
            ctx.times[1]  # agent 0 observes nobody on a directed line
            return Fraction(0)

    net = build_line(2, directed=True)
    with pytest.raises(StrategyViolationError, match="not observed"):
        run_profile(net, MODEL, {0: Peeker(), 1: myopic_rule(MODEL)},
                    horizon=1, rng=np.random.default_rng(0))


def test_adjudicate():
    net = build_line(3)
    trace = run_profile(net, MODEL, myopic_rule(MODEL), horizon=3,
                        rng=np.random.default_rng(0),
                        state=STATE_LOW, atoms=[0, 1, 1])
    flags, bias = adjudicate(trace)
    # under L an adopter is wrong and a non-adopter right
    assert flags == (False, True, True)
    assert not bias


def test_estimate_deterministic_and_jobs_merge():
    net = build_line(3)
    kwargs = dict(horizon=4, delta=0.9, n_reps=40, seed=7)
    r1 = estimate(net, MODEL, myopic_rule(MODEL), **kwargs)
    r2 = estimate(net, MODEL, myopic_rule(MODEL), **kwargs)
    assert r1 == r2
    r_par = estimate(net, MODEL, myopic_rule(MODEL), jobs=2, **kwargs)
    assert r_par == r1
    # myopic correctness on any network is exactly q in expectation
    for p, ci in zip(r1.p_hat, r1.ci):
        assert abs(p - 0.75) < 3 * ci + 1e-9


def test_estimate_jobs_merge_with_late_adopter():
    # The hub adopts at period 1, so payoffs are not all +-1 and the float
    # utility sums depend on the order shards are added in.
    net = build_star(20)
    profile = {0: CenterBayesRule(model=MODEL, period=1)}
    profile.update({i: myopic_rule(MODEL) for i in range(1, 21)})
    kwargs = dict(horizon=2, delta=0.9, n_reps=2001, seed=7)
    r1 = estimate(net, MODEL, profile, jobs=1, **kwargs)
    r2 = estimate(net, MODEL, profile, jobs=2, **kwargs)
    assert r2.p_hat == r1.p_hat
    assert r2.ci == r1.ci
    assert r2.truncated_fraction == r1.truncated_fraction
    assert r2.quiescent_fraction == r1.quiescent_fraction
    for u1, u2 in zip(r1.utility, r2.utility):
        assert abs(u1 - u2) <= 1e-12


@pytest.fixture
def fake_pools(monkeypatch):
    """Replace the process pool by one that maps in-process, so no process
    starts.  Returns a namespace: made lists the pools, each with its size
    and shards; set error to make map raise it, as a broken pool does."""
    from netadopt import engine

    log = SimpleNamespace(made=[], error=None)

    class FakePool:
        def __init__(self, max_workers):
            self.max_workers = max_workers
            self.shards = []
            log.made.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            if log.error is not None:
                raise log.error
            self.shards += args
            return map(fn, args)

    monkeypatch.setattr(engine, "ProcessPoolExecutor", FakePool)
    return log


def test_estimate_caps_workers_at_the_cpu_count(fake_pools, monkeypatch):
    from netadopt import engine

    monkeypatch.setattr(engine.os, "cpu_count", lambda: 3)
    net = build_line(3)
    kwargs = dict(horizon=4, delta=0.9, n_reps=40, seed=7)
    many = estimate(net, MODEL, myopic_rule(MODEL), jobs=1000, **kwargs)
    (pool,) = fake_pools.made
    assert pool.max_workers == 3
    assert len(pool.shards) == 40  # the shard split still follows jobs
    assert many.p_hat == estimate(net, MODEL, myopic_rule(MODEL), **kwargs).p_hat
    monkeypatch.setattr(engine.os, "cpu_count", lambda: None)
    estimate(net, MODEL, myopic_rule(MODEL), jobs=4, **kwargs)
    assert fake_pools.made[-1].max_workers == 1


class _FailingRule(Strategy):
    """Raises at its first decision, as a misconfigured strategy does."""

    def adopt_probability(self, ctx):
        raise ValueError("strategy failed inside a shard")


def test_a_shard_error_propagates_without_a_sequential_rerun(fake_pools,
                                                             monkeypatch):
    from netadopt import engine

    shards_run = []
    run_shard = engine._estimate_shard
    monkeypatch.setattr(engine, "_estimate_shard",
                        lambda packed: shards_run.append(packed) or run_shard(packed))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no "running sequentially"
        with pytest.raises(ValueError, match="failed inside a shard"):
            estimate(build_line(3), MODEL, _FailingRule(), horizon=2,
                     delta=0.9, n_reps=10, seed=1, jobs=2)
    assert len(fake_pools.made) == 1
    assert len(shards_run) == 1  # the first shard failed; nothing reran


def test_a_broken_pool_falls_back_to_running_the_shards_here(fake_pools):
    net = build_line(3)
    kwargs = dict(horizon=4, delta=0.9, n_reps=40, seed=7)
    expected = estimate(net, MODEL, myopic_rule(MODEL), **kwargs)
    for error in (BrokenProcessPool("a worker died"), OSError("no semaphores")):
        fake_pools.error = error
        with pytest.warns(UserWarning, match=f"{error}.*running sequentially"):
            got = estimate(net, MODEL, myopic_rule(MODEL), jobs=2, **kwargs)
        assert got == expected
    assert len(fake_pools.made) == 2


def test_unpicklable_shards_run_here_without_a_pool(fake_pools):
    class LocalRule(ThresholdRule):  # a local class does not pickle
        pass

    net = build_line(3)
    kwargs = dict(horizon=4, delta=0.9, n_reps=40, seed=7)
    local = LocalRule(entries=myopic_rule(MODEL).entries)
    with pytest.warns(UserWarning, match="running sequentially"):
        got = estimate(net, MODEL, local, jobs=2, **kwargs)
    assert got == estimate(net, MODEL, myopic_rule(MODEL), **kwargs)
    assert fake_pools.made == []


def test_estimate_accepts_fraction_string_delta():
    net = build_line(3)
    kwargs = dict(horizon=4, n_reps=40, seed=7)
    assert (estimate(net, MODEL, myopic_rule(MODEL), delta="9/10", **kwargs)
            == estimate(net, MODEL, myopic_rule(MODEL), delta=0.9, **kwargs))


def test_estimate_utilities_signs():
    net = build_line(1)
    rep = estimate(net, MODEL, myopic_rule(MODEL), horizon=2, delta=0.5,
                   n_reps=500, seed=3)
    # isolated myopic agent adopts only on the high atom, so the mean payoff
    # is (1/2) q (+1) + (1/2)(1-q)(-1) = (2q - 1)/2 = 1/4
    assert abs(rep.utility[0] - 0.25) < 0.09
    assert rep.truncated_fraction == 0.0
    rows = list(rep.rows("x"))
    assert rows[0]["agent"] == 0 and rows[0]["p_hat"] == rep.p_hat[0]


def test_estimate_validation():
    net = build_line(2)
    with pytest.raises(ValueError, match="n_reps"):
        estimate(net, MODEL, myopic_rule(MODEL), 2, 0.9, 0, 1)
    with pytest.raises(ValueError, match="delta"):
        estimate(net, MODEL, myopic_rule(MODEL), 2, 1.0, 5, 1)


def test_outsider_posterior_balance():
    net = build_line(2)
    trace = run_profile(net, MODEL, myopic_rule(MODEL), horizon=1,
                        rng=np.random.default_rng(0),
                        state=STATE_HIGH, atoms=[0, 1])
    q = 0.75
    post = outsider_posterior(trace, [(q, 1 - q), (q, 1 - q)])
    # one adopter and one holdout with symmetric indicators cancel exactly
    assert abs(post - 0.5) < 1e-12
    with pytest.raises(ValueError, match="per agent"):
        outsider_posterior(trace, [(q, 1 - q)])


def test_outsider_posterior_clamps_zero_likelihood():
    net = build_line(1)
    trace = run_profile(net, MODEL, myopic_rule(MODEL), horizon=1,
                        rng=np.random.default_rng(0),
                        state=STATE_HIGH, atoms=[0])
    with pytest.warns(UserWarning, match="clamped"):
        post = outsider_posterior(trace, [(0.0, 0.5)])
    assert post < 1e-6


def test_outsider_posterior_many_holdouts_stays_finite():
    n = 1000
    trace = ActionTrace(times=(NEVER,) * n, horizon=0, state=STATE_LOW,
                        atoms=(1,) * n, beliefs=(0.25,) * n, truncated=False)
    # 1000 holdouts at q = 3/4 sum to a log-odds of about -1099
    post = outsider_posterior(trace, [(0.75, 0.25)] * n)
    assert math.isfinite(post) and 0.0 <= post <= 1.0
    assert post < 1e-12
    adopters = ActionTrace(times=(0,) * n, horizon=0, state=STATE_HIGH,
                           atoms=(0,) * n, beliefs=(0.75,) * n, truncated=False)
    post = outsider_posterior(adopters, [(0.75, 0.25)] * n)
    assert math.isfinite(post) and 1.0 - 1e-12 < post <= 1.0


# ------------------------------------------------------- protocol closed form

def test_sigma_chain_times_majority():
    times = sigma_chain_times(np.array([1, 0, 1, 1, 0]), k=3)
    # encoding: 3+1, 6+1; decode at distance 3 reads prefix 2 of 3 (majority),
    # adopts at 9; spread continues at unit speed
    assert times.tolist() == [4.0, 7.0, 9.0, 10.0, 11.0]


def test_sigma_chain_times_minority_blocks():
    times = sigma_chain_times(np.array([0, 0, 1, 1, 1]), k=3)
    assert times[0] == 3.0 and times[1] == 6.0
    assert np.all(np.isinf(times[2:]))


def test_sigma_chain_times_short_arc():
    times = sigma_chain_times(np.array([1, 1]), k=3)
    assert times.tolist() == [4.0, 8.0]


def test_sigma_ring_times_no_seeds():
    times = sigma_ring_times(np.zeros(6, dtype=bool), np.ones(6, dtype=int), k=3)
    assert np.all(np.isinf(times))


def test_sigma_ring_times_all_seeds():
    times = sigma_ring_times(np.ones(4, dtype=bool), np.zeros(4, dtype=int), k=3)
    assert times.tolist() == [0.0, 0.0, 0.0, 0.0]


def test_sigma_ring_times_one_seed_symmetric():
    seeds = np.array([True, False, False, False, False])
    times = sigma_ring_times(seeds, np.ones(5, dtype=int), k=3)
    # both waves carry all-ones bits; each non-seed joins the nearer wave
    assert times.tolist() == [0.0, 4.0, 8.0, 8.0, 4.0]


def test_sigma_ring_times_tie_goes_left():
    # two seeds at distance 2 on both sides; the agent exactly between
    # them has equal triggers and must take the left wave's time
    seeds = np.zeros(6, dtype=bool)
    seeds[0] = seeds[2] = True
    x = np.array([1, 0, 0, 1, 0, 1])
    times = sigma_ring_times(seeds, x, k=4)
    # agent 1 sits between seeds 0 and 2 with trigger 0 from both sides;
    # left chain gives 4 + x_1 = 4, right chain gives 4 + x_1 = 4 as well
    assert times[1] == 4.0
    assert times[0] == 0.0 and times[2] == 0.0


def test_sigma_ring_matches_engine():
    n, k, eta, q = 14, 3, 0.25, Fraction(3, 4)
    seed, reps = 99, 25
    ring = build_line(n, ring=True)
    model = binary_model(q)
    proto = ProtocolSigma(eta=Fraction(1, 4), k=k)
    horizon = k * k + n + k + 3
    high_bit = np.array([1 if b >= Fraction(1, 2) else 0 for b in model.beliefs])
    # One plan for every replication, as estimate runs them: the answers
    # filed in one replication are reused in the next.
    plan = _RunPlan(ring, model, proto)
    for rep in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence((seed, rep)))
        state = STATE_HIGH if rng.integers(0, 2) == 0 else STATE_LOW
        atoms = sample_atoms(model, state, n, rng)
        seeds_mask = rng.random(n) < eta
        closed = sigma_ring_times(seeds_mask, high_bit[atoms], k)

        rng2 = np.random.default_rng(np.random.SeedSequence((seed, rep)))
        trace = run_profile(ring, model, proto, horizon, rng2, _plan=plan)
        assert trace.state == state
        engine_times = np.array(
            [math.inf if is_never(t) else float(t) for t in trace.times])
        assert np.array_equal(engine_times, closed), f"rep {rep} diverged"
    # every agent holds proto, so all share one answer dict, and its keyed
    # answers come from the decode stage (period k * k) and the spread
    # stage after it as well (quiet answers sit under ints beside them)
    memo = plan.memos[0]
    assert all(m is memo for m in plan.memos)
    assert {k * k, k * k + 1} <= {key[0] for key in memo
                                  if isinstance(key, tuple)}


def test_sigma_ring_estimate_deterministic():
    r1 = sigma_ring_estimate(n=40, k=3, eta=0.1, q=0.75, n_reps=60, seed=5)
    r2 = sigma_ring_estimate(n=40, k=3, eta=0.1, q=0.75, n_reps=60, seed=5)
    assert r1 == r2
    assert r1.agent == 20
    assert 0.0 <= r1.p_hat <= 1.0
    assert len(r1.p_hat_agents) == 40
    rows = list(r1.rows())
    assert len(rows) == 40 and rows[0]["utility"] == ""


def test_sigma_ring_estimate_validation():
    with pytest.raises(ValueError, match="at least three"):
        sigma_ring_estimate(n=2, k=3, eta=0.1, q=0.75, n_reps=5, seed=0)
    # the same domain as ProtocolSigma and sigma_eta_k_step
    with pytest.raises(ValueError, match="k must be an int >= 3"):
        sigma_ring_estimate(n=5, k=2, eta=0.1, q=0.75, n_reps=5, seed=0)
    with pytest.raises(ValueError, match="eta"):
        sigma_ring_estimate(n=5, k=3, eta=0.0, q=0.75, n_reps=5, seed=0)
    with pytest.raises(ValueError, match="replication"):
        sigma_ring_estimate(n=5, k=3, eta=0.1, q=0.75, n_reps=0, seed=0)
    with pytest.raises(ValueError, match="out of range"):
        sigma_ring_estimate(n=5, k=3, eta=0.1, q=0.75, n_reps=5, seed=0, agent=9)
