"""References that only tests read: each recomputes what the package
computes another way, so a test can compare the two.  The worst-case walk
is recomputed in rationals; the subset-DP suffix table by the plain Held-Karp
recurrence over Python integers, one list of cells per mask, unset cells
None, against which tests check the numpy kernel cell by cell at every
dtype."""
from math import inf
from typing import Callable

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


def _suffix_table_py(D: list[list[int]], dest_i: int,
                     interior: list[int]) -> Callable[[int], list[int]]:
    m = len(interior)
    size = 1 << m
    g = [[None] * m for _ in range(size)]
    for j in range(m):
        g[1 << j][j] = D[dest_i][interior[j]]
    for mask in range(1, size):
        row = g[mask]
        bits = [j for j in range(m) if mask >> j & 1]
        if len(bits) < 2:
            continue
        for i in bits:
            prev = g[mask ^ (1 << i)]
            di = interior[i]
            best = inf
            for j in bits:
                if j == i:
                    continue
                c = prev[j] + D[interior[j]][di]
                if c < best:
                    best = c
            row[i] = best
    return g.__getitem__
