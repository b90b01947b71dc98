"""Closed-form learning bounds and the estimators used to cross-check them.

Everything here works in nats.  The bounded-informativeness results come in
three layers: a single product-signal bound, a recursion that propagates it
through trees with few ends, and concentration statistics for period-zero
adoption indicators.  Each closed form is paired with an exact or empirical
counterpart so the inequalities can be tested rather than trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .common import NEVER, TruncationError, as_fraction, is_never
from .networks import Network
from .signals import SignalModel


def kl_bernoulli(p: float, q: float) -> float:
    """KL divergence D(Bernoulli(p) || Bernoulli(q)) in nats.

    Uses the 0*log(0) = 0 convention.  When q is degenerate (0 or 1) and p
    puts mass where q has none the divergence is infinite; the float
    infinity is returned rather than raising.
    """
    p = float(p)
    q = float(q)
    if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0):
        raise ValueError("kl_bernoulli needs probabilities in [0, 1]")
    if p == q:
        return 0.0
    total = 0.0
    for pp, qq in ((p, q), (1.0 - p, 1.0 - q)):
        if pp == 0.0:
            continue
        if qq == 0.0:
            return math.inf
        total += pp * math.log(pp / qq)
    # Rounding can leave a tiny negative residue when p and q are close.
    return max(total, 0.0)


def product_signal_bound(eps: float) -> float:
    """Upper bound on the informativeness of a product of bounded signals.

    Valid whenever every constituent signal leaves the posterior of the
    high state inside [eps, 1 - eps].  The bound is 2 * ln(eps) / ln(1 - eps)
    and does not depend on how many signals are multiplied.
    """
    eps = float(eps)
    if not 0.0 < eps < 0.5:
        raise ValueError("belief bound eps must lie in (0, 1/2)")
    return 2.0 * math.log(eps) / math.log(1.0 - eps)


@dataclass(frozen=True)
class BinaryFamily:
    """Conditionally independent binary signals about a uniform binary state.

    pairs[i] = (P[signal i fires | high], P[signal i fires | low]).  All
    probabilities must be strictly inside (0, 1) so that posterior beliefs
    are well defined.
    """

    pairs: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("family needs at least one signal")
        norm = []
        for p, q in self.pairs:
            p = float(p)
            q = float(q)
            if not (0.0 < p < 1.0 and 0.0 < q < 1.0):
                raise ValueError("signal probabilities must lie in (0, 1)")
            norm.append((p, q))
        object.__setattr__(self, "pairs", tuple(norm))

    @property
    def n_signals(self) -> int:
        return len(self.pairs)

    def beliefs(self) -> tuple[float, ...]:
        """Posterior of the high state after each signal fires, uniform prior."""
        return tuple(p / (p + q) for p, q in self.pairs)

    def belief_margin(self) -> float:
        """Largest eps with every firing belief inside [eps, 1 - eps]."""
        margin = 1.0
        for b in self.beliefs():
            margin = min(margin, b, 1.0 - b)
        return margin

    def joint_fire_probs(self) -> tuple[float, float]:
        """Probability that every signal fires, under each state."""
        high = 1.0
        low = 1.0
        for p, q in self.pairs:
            high *= p
            low *= q
        return high, low


def product_kl_exact(family: BinaryFamily) -> float:
    """Exact informativeness of the all-signals-fired indicator.

    By conditional independence the indicator is Bernoulli with parameter
    equal to the product of the marginal firing probabilities under each
    state, so the divergence reduces to a single binary KL.  Restricted to
    at most 64 signals to keep the products well away from underflow.
    """
    if family.n_signals > 64:
        raise ValueError("exact product restricted to at most 64 signals")
    high, low = family.joint_fire_probs()
    return kl_bernoulli(high, low)


def power_inequality_check(alpha: float, x: float, y: float) -> Optional[bool]:
    """Check the power-function sandwich behind the product-signal bound.

    Hypotheses: y >= x / alpha and 1 - y <= alpha * (1 - x).  Conclusion:
    y >= x ** (ln(1 + alpha) / ln(1 + 1/alpha)).  Returns True or False for
    the conclusion when the hypotheses hold, and None (not applicable) when
    they do not, so a universally quantified test can assert the result is
    never False.
    """
    alpha = float(alpha)
    x = float(x)
    y = float(y)
    if alpha <= 1.0:
        raise ValueError("alpha must exceed 1")
    if not (0.0 < x < 1.0 and 0.0 < y < 1.0):
        raise ValueError("x and y must lie in (0, 1)")
    if y < x / alpha or 1.0 - y > alpha * (1.0 - x):
        return None
    exponent = math.log(1.0 + alpha) / math.log(1.0 + 1.0 / alpha)
    # Allow one ulp of slack so the exact equality point checks as holding.
    return y >= x ** exponent - 1e-15


@dataclass(frozen=True)
class CkTable:
    """Recursion constants bounding adoption-time informativeness on trees.

    little[k] bounds the information of a root with several children in a
    tree with k ends, big[k] the general case.  pbar is the eventual
    correctness cap implied by big[2 * m + 2] for networks whose excess
    branching number is at most m.  The cap is below one by construction
    but the float representation of pbar rounds to 1.0 once the constants
    are large, so pbar_log_gap carries ln(1 - pbar) in log space.  It stays
    finite only while the table does: the recursion grows factorially and
    overflows to inf from m = 84 (for any eps tried), after which
    pbar_log_gap is -inf.  ln_big[k] = ln(big[k]) and ln_neg_pbar_log_gap
    = ln(-pbar_log_gap) are carried in log space, so they stay finite at
    every m.
    """

    eps: float
    m: int
    alpha: float
    c0: float
    d: float
    little: Mapping[int, float]
    big: Mapping[int, float]
    pbar: float
    pbar_log_gap: float
    ln_big: Mapping[int, float]
    ln_neg_pbar_log_gap: float

    def as_json_dict(self) -> dict:
        return {
            "inputs": {"eps": self.eps, "m": self.m},
            "alpha": self.alpha,
            "c_0": self.c0,
            "D": self.d,
            "c_k": {str(k): v for k, v in sorted(self.little.items())},
            "C_k": {str(k): v for k, v in sorted(self.big.items())},
            "pbar": self.pbar,
            "pbar_log_gap": self.pbar_log_gap,
            "ln_C_k": {str(k): v for k, v in sorted(self.ln_big.items())},
            "ln_neg_pbar_log_gap": self.ln_neg_pbar_log_gap,
        }


def ck_recursion(m: int, eps: float) -> CkTable:
    """Build the end-count recursion out to k = 2 * m + 2.

    With alpha = (1 - eps) / eps the base constants are
    c_0 = ln(alpha) + 4 * alpha^2 * ln(alpha^2 + 1) (one-ended trees) and
    D = 4 * alpha^2 * ln(alpha^2 + 1) (the per-hop increment).  The source
    recursion sets c_1 = max(c_0, ln(alpha), D) and C_1 = c_1, then for
    k > 1 uses c_k = (k + 1) * C_{k-1} and C_k = c_k + ln(alpha) + D.  The
    max in c_1 always resolves to c_0 because c_0 = ln(alpha) + D; we keep
    the literal max and assert the simplification in tests instead of
    assuming it.
    """
    if m < 1:
        raise ValueError("segment bound m must be at least 1")
    eps = float(eps)
    if not 0.0 < eps < 0.5:
        raise ValueError("belief bound eps must lie in (0, 1/2)")
    alpha = (1.0 - eps) / eps
    log_alpha = math.log(alpha)
    d = 4.0 * alpha * alpha * math.log(alpha * alpha + 1.0)
    c0 = log_alpha + d
    k_top = 2 * m + 2
    little: dict[int, float] = {0: c0, 1: max(c0, log_alpha, d)}
    big: dict[int, float] = {1: little[1]}
    # ln C_k = ln((k + 1) C_{k-1} + ln(alpha) + D): one log-add per step,
    # finite long after C_k itself overflows.
    ln_step = math.log(log_alpha + d)
    ln_big: dict[int, float] = {1: math.log(little[1])}
    for k in range(2, k_top + 1):
        little[k] = (k + 1) * big[k - 1]
        big[k] = little[k] + log_alpha + d
        ln_big[k] = _log_add(math.log(k + 1) + ln_big[k - 1], ln_step)
    return CkTable(
        eps=eps,
        m=m,
        alpha=alpha,
        c0=c0,
        d=d,
        little=little,
        big=big,
        pbar=pbar_from_info(big[k_top]),
        pbar_log_gap=-big[k_top] - 3.0 - math.log(2.0),
        ln_big=ln_big,
        ln_neg_pbar_log_gap=_log_add(ln_big[k_top],
                                     math.log(3.0 + math.log(2.0))),
    )


def _log_add(x: float, y: float) -> float:
    """ln(e^x + e^y) without leaving log space."""
    hi, lo = max(x, y), min(x, y)
    return hi + math.log1p(math.exp(lo - hi))


def pbar_from_info(info: float) -> float:
    """Cap on eventual correctness given adoption-time informativeness.

    An agent whose adoption time carries info nats about the state is
    eventually correct with probability at most 1 - exp(-info - 3) / 2.
    """
    info = float(info)
    if math.isnan(info) or info < 0.0:
        raise ValueError("informativeness must be nonnegative")
    if math.isinf(info):
        return 1.0
    return 1.0 - 0.5 * math.exp(-info - 3.0)


@dataclass(frozen=True)
class InfoEstimate:
    """Informativeness of an adoption time, exact or estimated from runs."""

    value: float
    method: str
    bins: tuple
    ci: float = 0.0
    smoothed: bool = False
    degenerate: bool = False
    counts_high: tuple[int, ...] = ()
    counts_low: tuple[int, ...] = ()


def myopic_binary_info(q: float) -> InfoEstimate:
    """Exact informativeness of an isolated myopic agent's adoption time.

    With a binary signal of strength q the agent adopts at period zero with
    probability q in the high state and 1 - q in the low state, and never
    adopts otherwise, so the adoption time is Bernoulli over two bins.
    """
    q = float(q)
    if not 0.5 < q < 1.0:
        raise ValueError("binary signal strength must lie in (1/2, 1)")
    return InfoEstimate(
        value=kl_bernoulli(q, 1.0 - q),
        method="exact",
        bins=(0, NEVER),
    )


def _agent_times(traces: Iterable, agent: int) -> list[float]:
    out = []
    for item in traces:
        times = getattr(item, "times", item)
        out.append(times[agent])
    return out


def _binned_counts(times: Sequence[float], horizon: int) -> np.ndarray:
    counts = np.zeros(horizon + 2, dtype=np.int64)
    for t in times:
        if is_never(t):
            counts[horizon + 1] += 1
        else:
            t_int = int(t)
            if t_int < 0 or t_int > horizon:
                raise ValueError("adoption time outside the bin range")
            counts[t_int] += 1
    return counts


def _plugin_kl(counts_high: np.ndarray, counts_low: np.ndarray, smooth: bool) -> float:
    if smooth:
        ph = (counts_high + 1) / (counts_high.sum() + counts_high.size)
        pl = (counts_low + 1) / (counts_low.sum() + counts_low.size)
    else:
        ph = counts_high / counts_high.sum()
        pl = counts_low / counts_low.sum()
    mask = ph > 0
    return float(np.sum(ph[mask] * np.log(ph[mask] / pl[mask])))


def empirical_info(
    traces_high: Sequence,
    traces_low: Sequence,
    agent: int,
    horizon: Optional[int] = None,
    *,
    min_traces: int = 1000,
    n_boot: int = 200,
    rng: Optional[np.random.Generator] = None,
) -> InfoEstimate:
    """Plug-in informativeness of one agent's binned adoption time.

    Traces may be engine run records (anything with a times attribute) or
    plain per-run time vectors.  Adoption times are binned over periods
    0..horizon plus a never-adopted bin; the horizon defaults to the
    largest horizon attribute found, else the largest finite time.  If any
    bin is empty in either state, add-one smoothing is applied to both
    distributions and flagged.  The confidence interval is a 95 percent
    normal interval over bootstrap resamples of the runs.
    """
    times_high = _agent_times(traces_high, agent)
    times_low = _agent_times(traces_low, agent)
    if len(times_high) < min_traces or len(times_low) < min_traces:
        raise ValueError(f"need at least {min_traces} traces per state")
    if horizon is None:
        horizons = [
            item.horizon
            for item in list(traces_high) + list(traces_low)
            if hasattr(item, "horizon")
        ]
        if horizons:
            horizon = max(horizons)
        else:
            finite = [t for t in times_high + times_low if not is_never(t)]
            horizon = int(max(finite)) if finite else 0
    counts_high = _binned_counts(times_high, horizon)
    counts_low = _binned_counts(times_low, horizon)
    bins = tuple(range(horizon + 1)) + (NEVER,)

    occupied = np.flatnonzero(counts_high + counts_low)
    if occupied.size == 1:
        return InfoEstimate(
            value=0.0,
            method="empirical",
            bins=bins,
            ci=0.0,
            degenerate=True,
            counts_high=tuple(counts_high.tolist()),
            counts_low=tuple(counts_low.tolist()),
        )

    smooth = bool((counts_high == 0).any() or (counts_low == 0).any())
    value = _plugin_kl(counts_high, counts_low, smooth)

    rng = np.random.default_rng(0) if rng is None else rng
    n_high = counts_high.sum()
    n_low = counts_low.sum()
    boot = np.empty(n_boot)
    for b in range(n_boot):
        bh = rng.multinomial(n_high, counts_high / n_high)
        bl = rng.multinomial(n_low, counts_low / n_low)
        resmooth = smooth or bool((bh == 0).any() or (bl == 0).any())
        boot[b] = _plugin_kl(bh, bl, resmooth)
    ci = 1.96 * float(boot.std(ddof=1))

    return InfoEstimate(
        value=value,
        method="empirical",
        bins=bins,
        ci=ci,
        smoothed=smooth,
        counts_high=tuple(counts_high.tolist()),
        counts_low=tuple(counts_low.tolist()),
    )


def _chi_moments(p, q, w):
    """Mean and variance of one indicator's log-likelihood ratio when it
    fires with probability w: p under the high state, q under the low."""
    lo = np.log((1.0 - p) / (1.0 - q))
    hi = np.log(p / q)
    mean = (1.0 - w) * lo + w * hi
    return mean, (1.0 - w) * (lo - mean) ** 2 + w * (hi - mean) ** 2


@dataclass(frozen=True)
class ChiReport:
    """Concentration constants for summed period-zero adoption indicators.

    Not applicable when some supplied pair violates the separation
    hypothesis; the offending pairs are listed and the numeric fields are
    left as None.
    """

    applicable: bool
    eps: float
    target: float
    n_pairs: int
    violations: tuple[tuple[float, float], ...] = ()
    mean_high: Optional[float] = None
    mean_low: Optional[float] = None
    rho: Optional[float] = None
    rho_prime: Optional[float] = None
    m_min: Optional[int] = None


def _chi_region_extrema(eps: float, grid_step: float) -> tuple[float, float]:
    """Minimize min(f_H, -f_L) and maximize max(g_H, g_L) over the region.

    The region is all pairs (p, q) with p, q in [eps, 1 - eps] and
    p >= (1 + eps) * q.  A dense grid scan is refined locally around the
    incumbent optimum; the objectives are smooth so two shrinking passes
    give far better than grid_step accuracy.
    """

    def scan(p_vals, q_vals):
        pg, qg = np.meshgrid(p_vals, q_vals, indexing="ij")
        mask = pg >= (1.0 + eps) * qg
        if not mask.any():
            raise ValueError("separation region is empty for this eps")
        p = pg[mask]
        q = qg[mask]
        mean_high, var_high = _chi_moments(p, q, p)
        mean_low, var_low = _chi_moments(p, q, q)
        lower = np.minimum(mean_high, -mean_low)
        upper = np.maximum(var_high, var_low)
        i_min = int(np.argmin(lower))
        i_max = int(np.argmax(upper))
        return (
            float(lower[i_min]),
            (float(p[i_min]), float(q[i_min])),
            float(upper[i_max]),
            (float(p[i_max]), float(q[i_max])),
        )

    def axis(center, radius, n):
        lo = max(eps, center - radius)
        hi = min(1.0 - eps, center + radius)
        return np.linspace(lo, hi, n)

    n_coarse = max(64, int(math.ceil((1.0 - 2.0 * eps) / grid_step)) + 1)
    grid = np.linspace(eps, 1.0 - eps, n_coarse)
    rho, at_min, rho_prime, at_max = scan(grid, grid)
    radius = (1.0 - 2.0 * eps) / (n_coarse - 1)
    for _ in range(2):
        rho_ref, at_min, _, _ = scan(axis(at_min[0], radius, 65), axis(at_min[1], radius, 65))
        _, _, rho_prime_ref, at_max = scan(axis(at_max[0], radius, 65), axis(at_max[1], radius, 65))
        rho = min(rho, rho_ref)
        rho_prime = max(rho_prime, rho_prime_ref)
        radius /= 32.0
    return rho, rho_prime


def _chebyshev_m_min(rho: float, rho_prime: float, target: float) -> int:
    """Smallest count of indicators that concentrates past the target odds.

    Needs the smallest integer s with t < s * rho and
    s * rho_prime / (s * rho - t)^2 <= 1 - target, t = ln(target / (1 - target)).
    The second condition is a quadratic in s; we take its larger root and
    walk to the exact integer boundary.
    """
    t = math.log(target / (1.0 - target))
    slack = 1.0 - target
    # slack * rho^2 * s^2 - (2 * slack * rho * t + rho_prime) * s + slack * t^2 >= 0
    a = slack * rho * rho
    b = -(2.0 * slack * rho * t + rho_prime)
    c = slack * t * t
    root = (-b + math.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)
    s = max(1, int(math.floor(root)))

    def ok(s):
        excess = s * rho - t
        return excess > 0.0 and s * rho_prime <= slack * excess * excess

    while not ok(s):
        s += 1
    while s > 1 and ok(s - 1):
        s -= 1
    return s


def chi_stats(
    adopt_probs: Sequence[tuple[float, float]],
    eps: float,
    *,
    target: float = 0.9,
    grid_step: float = 1e-3,
) -> ChiReport:
    """Concentration report for a sum of period-zero adoption indicators.

    adopt_probs lists, per observed agent, the probability of adopting at
    period zero under each state.  Every pair must satisfy
    eps <= P <= 1 - eps in both states and P[high] >= (1 + eps) * P[low];
    otherwise the report is marked not applicable.  rho lower-bounds the
    per-indicator mean log-likelihood ratio over the whole separation
    region, rho_prime upper-bounds its variance, and m_min is the number of
    independent indicators that pushes the posterior past target with
    probability at least target, via Chebyshev.
    """
    eps = float(eps)
    if not 0.0 < eps < 0.5:
        raise ValueError("separation eps must lie in (0, 1/2)")
    if (1.0 + eps) * eps > 1.0 - eps:
        raise ValueError("separation region is empty for this eps")
    if not 0.5 < target < 1.0:
        raise ValueError("target probability must lie in (1/2, 1)")
    pairs = [(float(p), float(q)) for p, q in adopt_probs]
    violations = tuple(
        (p, q)
        for p, q in pairs
        if not (eps <= p <= 1.0 - eps and eps <= q <= 1.0 - eps and p >= (1.0 + eps) * q)
    )
    if violations:
        return ChiReport(
            applicable=False,
            eps=eps,
            target=target,
            n_pairs=len(pairs),
            violations=violations,
        )
    rho, rho_prime = _chi_region_extrema(eps, grid_step)
    mean_high = float(sum(_chi_moments(p, q, p)[0] for p, q in pairs))
    mean_low = float(sum(_chi_moments(p, q, q)[0] for p, q in pairs))
    return ChiReport(
        applicable=True,
        eps=eps,
        target=target,
        n_pairs=len(pairs),
        mean_high=mean_high,
        mean_low=mean_low,
        rho=rho,
        rho_prime=rho_prime,
        m_min=_chebyshev_m_min(rho, rho_prime, target),
    )


@dataclass(frozen=True)
class ImpatienceReport:
    """Correctness cap for an impatient agent, with its ingredients."""

    agent: int
    delta: float
    delta_bar_target: float
    myopic_value: float
    radius: int
    n_reachable: int
    rho: float
    bound: float
    vacuous: bool


def _myopic_value(model: SignalModel) -> Fraction:
    value = Fraction(0)
    for lh, ll in model.atoms:
        if lh > ll:
            value += Fraction(lh - ll, 2)
    return value


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


def impatience_bound(
    network: Network,
    model: SignalModel,
    delta: float,
    delta_bar_target: float,
    agent: int,
) -> ImpatienceReport:
    """Cap on eventual correctness when the discount stays below a target.

    For any discount delta below delta_bar_target the agent must, to beat
    the myopic value u0, adopt in the high state before the first period T
    with delta_bar_target^T < u0 reasonably often.  Only signals within
    observation distance T can inform that move, so the strongest
    achievable posterior rho caps correctness at 1 - ((1 - rho) / rho) * u0.
    Raises TruncationError when the distance-T ball reaches a marked
    truncation boundary, since the true ball would then be larger.
    """
    delta = float(delta)
    delta_bar_target = float(delta_bar_target)
    if not 0.0 <= delta < delta_bar_target < 1.0:
        raise ValueError("need 0 <= delta < delta_bar_target < 1")
    if agent not in range(network.n):
        raise ValueError("agent outside the network")
    u0 = float(_myopic_value(model))
    radius = 0
    power = 1.0
    while power >= u0:
        radius += 1
        power *= delta_bar_target
    ball = _reachable_within(network, agent, radius)
    touched = ball.keys() & network.infinite_leaves
    if touched:
        raise TruncationError(
            f"distance-{radius} ball reaches truncation boundary at "
            f"agents {sorted(touched)}"
        )
    m = len(ball)
    max_log_odds = max(math.log(lh / ll) for lh, ll in model.atoms)
    inv_odds = math.exp(-m * max_log_odds)
    rho = 1.0 / (1.0 + inv_odds)
    bound = 1.0 - inv_odds * u0
    return ImpatienceReport(
        agent=agent,
        delta=delta,
        delta_bar_target=delta_bar_target,
        myopic_value=u0,
        radius=radius,
        n_reachable=m,
        rho=rho,
        bound=bound,
        vacuous=bound > 1.0 - 1e-9,
    )


def delta_bar(b) -> float | Fraction:
    """Discount below which an agent with belief b must adopt immediately.

    Defined by 1 / (2 - delta_bar) = b, so delta_bar = 2 - 1/b.  Only
    beliefs strictly between 1/2 and 1 give a reachable threshold.  Exact
    inputs give an exact result.
    """
    if not Fraction(1, 2) < as_fraction(b) < 1:
        raise ValueError("max belief must lie in (1/2, 1)")
    return 2 - 1 / b


def adopt_forced(pi, delta) -> bool:
    """Whether a belief is high enough that adoption cannot wait.

    An agent with discount delta and current belief pi adopts at once when
    pi >= 1 / (2 - delta): waiting costs more in discounting than any
    information could recover.
    """
    delta = as_fraction(delta)
    if not 0 <= delta < 1:
        raise ValueError("discount must lie in [0, 1)")
    return as_fraction(pi) >= 1 / (2 - delta)


def bound_report(
    eps: float,
    m: int,
    *,
    adopt_probs: Optional[Sequence[tuple[float, float]]] = None,
    target: float = 0.9,
) -> dict:
    """Assemble the recursion table and optional chi statistics as JSON data."""
    table = ck_recursion(m, eps)
    report = table.as_json_dict()
    report["inputs"]["target"] = target
    report["product_signal_bound"] = product_signal_bound(eps)
    if adopt_probs is None:
        report["chi"] = None
    else:
        chi = chi_stats(adopt_probs, eps, target=target)
        report["inputs"]["adopt_probs"] = [list(pair) for pair in adopt_probs]
        report["chi"] = {
            "applicable": chi.applicable,
            "mean_high": chi.mean_high,
            "mean_low": chi.mean_low,
            "rho": chi.rho,
            "rho_prime": chi.rho_prime,
            "m_min": chi.m_min,
            "violations": [list(pair) for pair in chi.violations],
        }
    return report
