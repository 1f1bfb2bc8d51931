"""Multi-cell OFDMA max-min resource allocation.

Library layout: `scenario` builds problem instances, `rate_model` evaluates
rates and the weighted minimum-rate objective, `subcarrier_alloc` assigns
subcarriers at fixed powers, `ocd_power` and `lr_power` are the two
distributed power methods, which both run in the central agent's loop
`bus.relay`, `coordinator` alternates the phases, and `experiment_cli` is
the command-line harness.
"""

from .bus import ExchangeRecord, MessageBus, PhaseError, TraceRow, relay
from .coordinator import (CoordinatorAbort, RunConfig, RunResult,
                          initial_point, run)
from .lr_power import (LrDivergenceError, LrResult, best_response, lr_solve,
                       update_multipliers)
from .ocd_power import (KktResidual, NewtonStep, OcdResult, OcdState,
                        OcdStepError, global_kkt_residual, init_cell_states,
                        newton_step, ocd_solve, project_power,
                        stacked_cell_residuals, states_from_point)
from .oracles import (GridOptimum, OracleSizeError, exhaustive_min_rate,
                      grid_power_optimum)
from .rate_model import (AssignedLinks, AssignmentValidationError,
                         PowerValidationError, WsmrResult, assigned_links,
                         cell_user_rates, link_rates, link_terms,
                         rate_gradient, validate_assignment, validate_power,
                         wsmr)
from .scenario import (Scenario, ScenarioFormatError, ScenarioParams,
                       ScenarioValidationError, db_to_linear,
                       generate_scenario, hex_layout, load_scenario,
                       save_scenario, scenario_violations)
from .subcarrier_alloc import (AssignmentResult, RateTableError, rate_table,
                               solve_all_cells, solve_exact, solve_greedy)

__version__ = "0.1.0"
