"""Simulator and competitive-analysis harness for online graph exploration
with interval-estimated edge weights."""

from .graph import (AlphaProfile, Distances, Edge, EstimateGraph, Walk,
                    WeightAssignment, alpha_of, validate, walk_of_vertices,
                    walk_violations)
from .solver import (BRUTE_FORCE_CAP, CoverTask, DEFAULT_EXACT_CAP,
                     MAX_EXACT_CAP, SolverCapExceeded, brute_force_cover,
                     optimal_cover_walk, pessimistic_weights)
from .engine import (AdversaryFault, FixedAssignment, IllegalMove,
                     KnowledgeView, Move, Nontermination, Reveal, RunReport,
                     WeightSource, move, realized_assignment, run_episode,
                     start_episode)
from .explorers import (AdaptiveExplorer, EXPLORERS, NearestNeighborExplorer,
                        PrecomputeExplorer, make_explorer)
from .adversaries import (CompleteAdvSpec, GridSpec, GridTrapError,
                          InvalidSpec, RecursiveSpec,
                          build_bipartite_adversary, build_complete_adversary,
                          build_grid_trap, build_recursive,
                          complete_bipartite_graph, complete_graph,
                          random_instance, random_uniform_assignment,
                          recursive_certificate_cost,
                          recursive_online_lower_bound,
                          recursive_vertex_count)

__version__ = "0.1.0"
