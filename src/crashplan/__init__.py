"""Multi-mode time-cost tradeoff scheduling under discounted cash flows.

Solvers (MOGA and an NSGA-II baseline), an exact small-instance oracle,
Pareto front quality indicators, L25 Taguchi parameter screening, and
influence-based quality weighting, behind a reproducible CLI.
"""

from .errors import (AllZero, BadParams, CrashplanError, EncodingError,
                     InfeasibleInstance, InitTimeout, NoFeasible,
                     NoRealActivities, ParseError, Singular, SpaceTooLarge,
                     ZeroCost)
from .evaluate import (Chromosome, DecodedSchedule, FeasibilityReport,
                       ObjectiveVector, PaymentEvent, PaymentPlan,
                       baseline_chromosome, check_feasibility,
                       compute_payments, decode_schedule, evaluate,
                       format_solution, npv_cost, parse_solution,
                       productivity, quality_stats)
from .instance import (Activity, ActivityMode, ProjectInstance, TimeWindows,
                       Violation, compute_time_windows, generate_instance,
                       instance_hash, load_instance, save_instance,
                       validate_instance)
from .moga import MogaParams, hill_climb, run_moga
from .nsga2 import Nsga2Params, crowding_distance, run_nsga2
from .oracle import true_pareto_front
from .pareto import (Front, FrontMember, ParetoArchive, dominates,
                     nondominated_sort, pareto_filter)
from .reporting import FrontReport, front_from_csv, front_to_csv

__version__ = "0.1.0"
