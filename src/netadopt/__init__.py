"""Irreversible-adoption timing games on observation networks.

Simulation (engine), exact small-instance equilibrium analysis (solver),
closed-form learning bounds with empirical cross-checks (bounds), a
continuous-time root-imitation model (auxmodel), and a config-driven
command line (cli).
"""

from .auxmodel import (
    CUpperEstimate,
    Mu,
    PsiResult,
    RootStrategySpec,
    default_grid,
    default_sampler,
    estimate_C_eps,
    eta_of_mu,
    min_delta_for,
    psi,
    reparam,
    u_of_mu,
    w_mu,
)
from .bounds import (
    BinaryFamily,
    ChiReport,
    CkTable,
    ImpatienceReport,
    InfoEstimate,
    adopt_forced,
    bound_report,
    chi_stats,
    ck_recursion,
    delta_bar,
    empirical_info,
    impatience_bound,
    kl_bernoulli,
    myopic_binary_info,
    pbar_from_info,
    power_inequality_check,
    product_kl_exact,
    product_signal_bound,
)
from .common import (
    NEVER,
    STATE_HIGH,
    STATE_LOW,
    ImpossibleHistoryError,
    RegimeError,
    StrategyViolationError,
    TruncationError,
    as_fraction,
    is_never,
)
from .engine import (
    ActionTrace,
    EstimateReport,
    SigmaRingReport,
    adjudicate,
    estimate,
    outsider_posterior,
    run_profile,
    sigma_ring_estimate,
    sigma_ring_times,
)
from .networks import (
    Network,
    analyze,
    build_directed_tree,
    build_line,
    build_spontaneous_example,
    build_star,
    network_from_spec,
    parse_edgelist,
)
from .signals import (
    SignalModel,
    binary_model,
    grid_model,
    sample_atoms,
    signal_model_from_spec,
)
from .solver import (
    EquilibriumReport,
    SolveConfig,
    SpontaneousReport,
    StructureChecks,
    best_response,
    exact_posterior,
    is_equilibrium,
    solve_equilibrium,
    verify_spontaneous_example,
    verify_structure,
)
from .strategies import (
    CenterBayesRule,
    FollowRule,
    ProtocolSigma,
    Strategy,
    ThresholdRule,
    follow_tree_neighbors,
    myopic_rule,
    strategy_from_spec,
)
