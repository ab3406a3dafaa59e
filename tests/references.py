"""Fraction references that only tests read: each recomputes in rationals
what the package computes another way, so a test can compare the two."""
from boundwalk import CoverTask, optimal_cover_walk, pessimistic_weights


def worst_case_cover_walk(view):
    """Cheapest walk from the view's position through every unvisited
    vertex to the graph's end, under worst-case pricing: the Fraction
    oracle on `pessimistic_weights`, which `solver.worst_case_plan`
    matches in integers."""
    graph = view.graph
    task = CoverTask(weights=pessimistic_weights(graph, view.revealed),
                     origin=view.position, destination=graph.end,
                     must_visit=view.unvisited)
    return optimal_cover_walk(graph, task)
