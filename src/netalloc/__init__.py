"""Multi-cell OFDMA max-min resource allocation.

Library layout: `scenario` builds problem instances, `rate_model` evaluates
rates and the weighted minimum-rate objective, `subcarrier_alloc` assigns
subcarriers at fixed powers, `ocd_power` and `lr_power` are the two
distributed power methods, `coordinator` alternates the phases, and
`experiment_cli` is the command-line harness.
"""

from .bus import ExchangeRecord, IterationRecord, MessageBus
from .coordinator import (CoordinatorAbort, RunConfig, RunResult, TraceRow,
                          check_convergence, initial_point, run)
from .lr_power import (LrDivergenceError, LrResult, best_response,
                       dual_step_size, lr_solve, project_simplex,
                       update_multipliers)
from .ocd_power import (CellState, KktResidual, NewtonStep, OcdResult,
                        OcdStepError, cell_kkt_residual, constraint_residuals,
                        global_kkt_residual, init_cell_states, local_objective,
                        newton_step, ocd_solve, project_power,
                        stacked_cell_residuals, states_from_point)
from .oracles import (GridOptimum, OracleSizeError, exhaustive_min_rate,
                      grid_power_optimum)
from .rate_model import (AssignmentValidationError, PowerValidationError,
                         WsmrResult, cell_user_rates, link_rates, link_terms,
                         rate_gradient, rate_subcarrier, sinr,
                         validate_assignment, validate_power, wsmr)
from .scenario import (Scenario, ScenarioFormatError, ScenarioParams,
                       ScenarioValidationError, db_to_linear,
                       generate_scenario, hex_layout, linear_to_db,
                       load_scenario, save_scenario, scenario_violations,
                       scenarios_equal, validate_scenario)
from .subcarrier_alloc import (AssignmentResult, RateTableError, rate_table,
                               solve_all_cells, solve_exact, solve_greedy)

__version__ = "0.1.0"
