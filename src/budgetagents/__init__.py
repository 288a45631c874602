"""Budget-aware multi-agent orchestration.

Provisions a cost-optimal pool of LLM instances under a hard budget (exact
lexicographic integer program), selects a collaboration topology with an
offline-trained policy network, and executes the workflow with per-call cost
ledgering and hard budget enforcement.
"""

from .backend import CallRequest, CallResponse, HttpBackend, ScriptedBackend
from .catalog import CostEstimate, ModelCatalog, ModelSpec, estimate_cost, estimate_output_tokens
from .dataset import Experience, ExperienceDataset, ExperienceOutcome, collect
from .embedder import EMBED_DIM, embed
from .evaluators import Evaluator, LiteralEvaluator, NumericEvaluator, get_evaluator
from .policy import (
    PolicyParams,
    TrainerConfig,
    TrainResult,
    evaluate,
    forward,
    init_params,
    load_params,
    loss,
    save_params,
    select_topology,
    train,
)
from .profile import TaskProfile, TaskSpec, load_profile
from .provision import (
    DecisionWeights,
    ProvisionProblem,
    ProvisionSolution,
    brute_force_solve,
    compute_weights,
    solve,
)
from .reward import Outcome, RewardConfig, compute_reward
from .topology import (
    AgentInstance,
    ExecutionLimits,
    RunTrace,
    Topology,
    TOPOLOGY_NAMES,
    count_oob,
    execute,
    expand_pool,
    staffable_topologies,
)

__version__ = "0.1.0"
