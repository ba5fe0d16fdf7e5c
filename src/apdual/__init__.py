"""Adaptive primal-dual methods for constrained MDPs.

Learning-rate schedules that depend on the multiplier, PID dual control,
desk-scale constrained environments, an analytic quadratic testbed, and
numerical certificates for the method's convergence and feasibility bounds.
"""

# Defined before the submodule imports: harness records it in summary.json.
__version__ = "0.3.0"

from .cmdp import (
    Cmdp,
    NonFiniteError,
    RolloutBatch,
    SamplingConfig,
    VectorStep,
    batch_values,
    collect_batch,
    discounted_value,
    sample_trajectory,
)
from .duals import PidGains, PidState, pid_dual_step, project_nonneg
from .envs import (
    GridworldSpec,
    N_ACTIONS,
    PointEnvConfig,
    circle_reward_cost,
    default_hazard_gridworld,
    exact_policy_eval,
    gridworld_kernel,
    make_gridworld,
    make_point_env,
    policy_state_values,
    run_reward_cost,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    ExperimentResult,
    VerificationError,
    aggregate_dir,
    load_config,
    parse_config,
    read_record_csv,
    record_to_csv,
    run_experiment,
    sweep,
    verify_dir,
)
from .lagrangian import (
    AdvantageBatch,
    ConstraintSpec,
    PpolConfig,
    advantage_batch,
    ppol_surrogate_grad,
    reinforce_grad_from_batch,
)
from .policy import (
    LinearGaussian,
    PolicyParams,
    TabularSoftmax,
    action_cdf,
    gaussian_actor,
    init_params,
    policy_act,
    policy_grad_log_prob,
    policy_log_prob,
    policy_log_probs,
    policy_sample_terms,
    policy_score_sum,
    policy_trajectory_scores,
    softmax_table,
)
from .quadprog import (
    KktSolution,
    QuadProgram,
    dual_values_batch,
    quad_dual_value,
    quad_kkt_solve,
    quad_make,
    quad_primal_min,
    quad_testbed,
)
from .schedules import LrSchedule, SmoothnessConstants
from .solver import (
    BoundCertificate,
    FeasibilityReport,
    RunRecord,
    SolverConfig,
    apd_run,
    feasibility_check,
    papd_run,
    verify_bounds,
)
