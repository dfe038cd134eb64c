"""Two-route bottleneck day-to-day route choice simulator.

Human drivers repeatedly choose between a short low-capacity route and
a long high-capacity one, learning travel times from their own
experience, while an optional centrally coordinated vehicle fleet picks
its daily split to optimize a configurable collective objective.
"""

from .engine import (
    ScenarioConfig,
    SimulationLog,
    SimulationState,
    run_branches,
    run_scenario,
    step_day,
)
from .fleet import (
    STRATEGY_NAMES,
    STRATEGY_TABLE,
    FleetDecision,
    fleet_optimize,
)
from .metrics import (
    RatioReport,
    TTestResult,
    WindowAverages,
    compute_window_averages,
    day_statistics,
    paired_t_test,
    ratio_report,
    system_optimum,
)
from .expcli import (
    ConfigError,
    ExperimentSpec,
    load_config,
    replicate_and_test,
    run_experiment,
    write_outputs,
)
from .network import RouteParams, TwoRouteNetwork, bpr_travel_time, network_travel_times

__all__ = [
    "ConfigError",
    "ExperimentSpec",
    "FleetDecision",
    "RatioReport",
    "RouteParams",
    "STRATEGY_NAMES",
    "STRATEGY_TABLE",
    "ScenarioConfig",
    "SimulationLog",
    "SimulationState",
    "TTestResult",
    "TwoRouteNetwork",
    "WindowAverages",
    "bpr_travel_time",
    "compute_window_averages",
    "day_statistics",
    "fleet_optimize",
    "load_config",
    "network_travel_times",
    "paired_t_test",
    "ratio_report",
    "replicate_and_test",
    "run_branches",
    "run_experiment",
    "run_scenario",
    "step_day",
    "system_optimum",
    "write_outputs",
]
