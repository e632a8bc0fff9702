"""Energy-aware sensor-network simulator comparing cluster-head strategies."""

from .clustering import (Cluster, ClusterHierarchy, NoAliveNodes,
                         build_hierarchy, form_clusters,
                         select_head_by_energy)
from .game import (BestResponseResult, UtilityWeights, best_response_dynamics,
                   head_fitness_base, profile_to_clusters,
                   select_head_by_utility)
from .learning import (AgentState, Experience, LearningParams, QTable,
                       ReplayBuffer, RewardBreakdown, RlAction,
                       compute_round_reward, decay_epsilon, q_update,
                       select_action, state_space_bound)
from .metrics import (EmptySeries, RoundMetrics, RunSummary,
                      find_convergence_round, measure_delay, read_rounds_csv,
                      read_summary_json, summarize, write_rounds_csv,
                      write_summary_json)
from .network import (EnergyModel, NetworkConfig, SensorNode, Topology,
                      aggregation_cost, drain, generate_network, rx_cost,
                      tx_cost)
from .strategies import (RoundOutcome, RunResult, SimWorld, StrategyKind,
                         make_world, simulate)

__version__ = "0.1.0"

__all__ = [
    "AgentState", "BestResponseResult", "Cluster", "ClusterHierarchy",
    "EmptySeries", "EnergyModel", "Experience", "LearningParams",
    "NetworkConfig", "NoAliveNodes", "QTable", "ReplayBuffer",
    "RewardBreakdown", "RlAction", "RoundMetrics", "RoundOutcome",
    "RunResult", "RunSummary", "SensorNode", "SimWorld", "StrategyKind",
    "Topology", "UtilityWeights", "aggregation_cost",
    "best_response_dynamics", "build_hierarchy", "compute_round_reward",
    "decay_epsilon", "drain", "find_convergence_round", "form_clusters",
    "generate_network", "head_fitness_base", "make_world", "measure_delay",
    "profile_to_clusters", "q_update", "read_rounds_csv",
    "read_summary_json", "rx_cost", "select_action", "select_head_by_energy",
    "select_head_by_utility", "simulate", "state_space_bound", "summarize",
    "tx_cost", "write_rounds_csv", "write_summary_json",
]
