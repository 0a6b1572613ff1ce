"""Truthful-in-expectation combinatorial auction mechanism toolkit.

The pipeline: wrap each bidder valuation in a keep-probability proxy, solve
the configuration LP over the proxies (exactly, over the rationals),
round the fractional solution by tentative draws, a halting test, per-item
lotteries, and per-bidder survival filtering, and charge expected-externality
payments over the LP range. The verify module certifies the construction's
exact probabilistic identities by brute-force enumeration of the outcome law.
"""

from .errors import (
    AuctionError,
    CapacityError,
    ContractViolationError,
    FormatError,
    InfeasibleSolutionError,
    MalformedValuationError,
    ParameterError,
)
from .lp import (
    ConfigLP,
    FractionalSolution,
    build_full_lp,
    certify_optimal,
    solve_column_generation,
    solve_exact,
)
from .mechanism import (
    MechanismConfig,
    Outcome,
    Pipeline,
    Plan,
    Q_HALT,
    Q_OWN_ITEMS,
    compute_q,
    default_params,
    draw_tables,
    halt_check,
    realized_welfare,
    run,
    survival_probability,
    tentative_indices,
    tentative_law,
)
from .valuations import (
    AdditiveValuation,
    CoverageValuation,
    ExplicitValuation,
    Instance,
    ProxyValuation,
    QueryCounter,
    UnitDemandValuation,
    Valuation,
    XOSValuation,
)
from .verify import (
    CheckResult,
    OutcomeDistribution,
    check_approximation,
    check_halt_frequency,
    check_keep_marginals,
    check_lp_agreement,
    check_monte_carlo,
    check_proxy_bound,
    check_truthfulness,
    check_welfare_identity,
    enumerate_vertex_optimum,
    exact_distribution,
    misreport_family,
    optimal_integral_welfare,
)

__version__ = "0.1.0"
