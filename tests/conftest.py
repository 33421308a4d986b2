"""Shared fixtures: tiny instances, golden matrices, independent oracles."""

from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

from routecut import Edge, Instance, RankMatrix, Solution, build_rank_matrix, distances
from routecut.instance import forward_id

settings.register_profile("repeatable", derandomize=True)
settings.load_profile("repeatable")


def make_instance(vertices, edges, depot=0, capacity=100, name="test"):
    """Edges given as (u, v, demand, service_cost, deadheading_cost)."""
    return Instance(name, vertices, [Edge(*e) for e in edges], depot, capacity)


def neighbors(instance, dist, k=20):
    """``local_search``'s neighbour lists as the search loops build them."""
    return build_rank_matrix(instance, dist).nearest(k)


def rank_matrix_of(costs):
    """The RankMatrix of n tasks whose link costs are the n x n ``costs``
    (the diagonal is ignored): task i runs from vertex i to vertex n + i
    and only the distances between heads are not zero, so each link
    numerator is its entry of ``costs`` plus three zeros, in its type."""
    costs = np.asarray(costs)
    n = len(costs)
    matrix = np.zeros((2 * n, 2 * n), dtype=costs.dtype)
    matrix[:n, :n] = costs
    return RankMatrix(matrix, np.arange(n), np.arange(n, 2 * n))


def all_link_ranks(ranks):
    """The n x n matrix of the rank of every link, read through
    ``link_ranks`` one two-task route per ordered pair; the diagonal is 0."""
    n = len(ranks.heads)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    got = ranks.link_ranks([[forward_id(i), forward_id(j)] for i, j in pairs])
    out = np.zeros((n, n), dtype=ranks.ranks.dtype)
    for (i, j), (rank,) in zip(pairs, got):
        out[i, j] = rank
    return out


def route_link_ranks(solution, ranks):
    """The ranks of each route's links, as ``rco_split`` looks them up."""
    return ranks.link_ranks(solution.routes)


def solution_from_tasks(instance, dist, routes):
    """Build a solution from per-route task-index lists, forward orientation."""
    return Solution.build([[forward_id(ti) for ti in seq] for seq in routes], instance, dist)


def split_walk(pool, solution):
    """Walk the pieces of a route split in route order.

    Returns, per route of ``solution``, the (offset, piece) pairs whose
    pieces concatenate back to the route's IDs (none for an empty route),
    and fails unless the pool is exactly the routes cut in order.  A cut
    after link position c shows as a piece at offset c + 1.
    """
    pieces = iter(pool)
    walk = []
    for route in solution.routes:
        at, cut = 0, []
        while at < len(route):
            piece = next(pieces, None)
            assert piece, f"route {len(walk)} is not covered by non-empty pieces"
            assert piece == route[at : at + len(piece)]
            cut.append((at, piece))
            at += len(piece)
        walk.append(cut)
    assert next(pieces, None) is None, "pieces left over after the last route"
    return walk


@st.composite
def small_instances(draw):
    """Instances the DAT format writes as they are: integer attributes,
    service cost equal to deadheading cost on required edges, required
    edges first, and tasks 0 and 1 parallel, (v0,v1) and (v1,v0)."""
    n = draw(st.integers(2, 6))
    vertex = st.integers(0, n - 1)
    cost = st.integers(0, 9)

    def required(u, v):
        c = draw(cost)
        return (u, v, draw(st.integers(1, 3)), c, c)

    edges = [required(0, 1), required(1, 0)]
    edges += [required(draw(vertex), draw(vertex)) for _ in range(draw(st.integers(0, 6)))]
    # a path through every vertex keeps every task reachable from the depot
    edges += [(u, u + 1, 0, 0, draw(cost)) for u in range(n - 1)]
    name = draw(st.text("abcxyz_0123456789", min_size=1, max_size=8))
    return make_instance(n, edges, depot=draw(vertex), capacity=draw(st.integers(3, 9)),
                         name=name)


def tie_heavy_instance(seed):
    """A random instance on up to 6 vertices built for ties: parallel
    required edges and many zero deadheading costs."""
    rng = random.Random(seed)
    vertices = rng.randint(2, 6)
    pairs = [(u, v) for u in range(vertices) for v in range(u + 1, vertices)]
    edges = []
    # a spanning path keeps every vertex reachable from the depot
    for u in range(vertices - 1):
        edges.append((u, u + 1, rng.randint(0, 2), 1, rng.choice((0, 0, 1, 2))))
    for _ in range(rng.randint(1, 10)):
        u, v = rng.choice(pairs)
        edges.append((u, v, rng.randint(1, 3), rng.randint(0, 2), rng.choice((0, 1))))
    if all(e[2] == 0 for e in edges):
        edges[0] = (*edges[0][:2], 1, *edges[0][3:])
    return make_instance(vertices, edges, capacity=rng.randint(3, 6))


@pytest.fixture
def path_instance():
    """depot -- a -- b chain, both edges are unit-cost unit-demand tasks."""
    return make_instance(3, [(0, 1, 1, 1, 1), (1, 2, 1, 1, 1)], capacity=10)


@pytest.fixture
def single_task_instance():
    return make_instance(2, [(0, 1, 5, 1, 1)], capacity=5)


# --- golden 8-task example --------------------------------------------------
#
# Tasks in matrix order: A=(v0,v1) B=(v0,v8) C=(v0,v10) D=(v2,v3) E=(v3,v4)
# F=(v5,v6) G=(v6,v7) H=(v9,v10).  Entries of LINK_NUMERATORS are four times
# the link cost; RANKS_GOLDEN is the expected competition ranking,
# every rank re-derived by hand from the link costs.

LINK_NUMERATORS = np.array(
    [
        [0, 4, 4, 18, 16, 8, 12, 8],
        [4, 0, 4, 20, 16, 12, 14, 6],
        [4, 4, 0, 18, 16, 12, 16, 4],
        [18, 20, 18, 0, 4, 24, 28, 22],
        [16, 16, 16, 4, 0, 24, 28, 20],
        [8, 12, 12, 24, 24, 0, 4, 16],
        [12, 14, 16, 28, 28, 4, 0, 18],
        [8, 6, 4, 22, 20, 16, 18, 0],
    ],
    dtype=np.int64,
)

RANKS_GOLDEN = np.array(
    [
        [0, 1, 1, 7, 6, 3, 5, 3],
        [1, 0, 1, 7, 6, 4, 5, 3],
        [1, 1, 0, 7, 5, 4, 5, 1],
        [2, 4, 2, 0, 1, 6, 7, 5],
        [2, 2, 2, 1, 0, 6, 7, 5],
        [2, 3, 3, 6, 6, 0, 1, 5],
        [2, 3, 4, 6, 6, 1, 0, 5],
        [3, 2, 1, 7, 6, 4, 5, 0],
    ],
    dtype=np.uint16,
)

TASK_A, TASK_B, TASK_C, TASK_D = 0, 1, 2, 3
TASK_E, TASK_F, TASK_G, TASK_H = 4, 5, 6, 7


@pytest.fixture
def golden_instance():
    """Graph carrying the 8 golden tasks (plus connectors for reachability)."""
    edges = [
        (0, 1, 1, 1, 1),    # A
        (0, 8, 1, 1, 1),    # B
        (0, 10, 1, 1, 1),   # C
        (2, 3, 1, 1, 1),    # D
        (3, 4, 1, 1, 1),    # E
        (5, 6, 1, 1, 1),    # F
        (6, 7, 1, 1, 1),    # G
        (9, 10, 1, 1, 1),   # H
        (1, 2, 0, 0, 1),
        (4, 5, 0, 0, 1),
        (7, 9, 0, 0, 1),
    ]
    return make_instance(11, edges, depot=0, capacity=10, name="golden")


@pytest.fixture
def golden_ranks():
    return rank_matrix_of(LINK_NUMERATORS)


# --- independent oracles -----------------------------------------------------


def bellman_ford_all_pairs(instance):
    """Textbook |V|-1 relaxation rounds from every source."""
    n = instance.vertex_count
    inf = float("inf")
    table = []
    arcs = []
    for e in instance.edges:
        if e.u != e.v:
            arcs.append((e.u, e.v, e.deadheading_cost))
            arcs.append((e.v, e.u, e.deadheading_cost))
    for src in range(n):
        d = [inf] * n
        d[src] = 0.0
        for _ in range(n - 1):
            changed = False
            for u, v, w in arcs:
                if d[u] + w < d[v]:
                    d[v] = d[u] + w
                    changed = True
            if not changed:
                break
        table.append(d)
    return table


def whole_graph_dijkstra(instance):
    """Dijkstra from every vertex over the whole graph, as a float64 table:
    no vertex eliminated, parallel edges at their cheapest, no self-loop."""
    n = instance.vertex_count
    best = {}
    for e in instance.edges:
        if e.u == e.v:
            continue
        key = (e.u, e.v) if e.u < e.v else (e.v, e.u)
        w = float(e.deadheading_cost)
        if key not in best or w < best[key]:
            best[key] = w
    if best:
        us, vs = zip(*best.keys())
        data = np.fromiter(best.values(), dtype=np.float64, count=len(best))
        graph = coo_matrix((data, (np.array(us), np.array(vs))), shape=(n, n)).tocsr()
    else:
        graph = coo_matrix((n, n), dtype=np.float64).tocsr()
    return dijkstra(graph, directed=False)


@pytest.fixture
def fill_types(monkeypatch):
    """The type of each matrix that ``shortest_paths`` hands to
    ``DistanceTable`` while a test runs: its fill-in's type, or float64
    from Dijkstra over the whole graph."""
    types = []
    real = distances.DistanceTable

    def spy(matrix):
        types.append(matrix.dtype.type)
        return real(matrix)

    monkeypatch.setattr(distances, "DistanceTable", spy)
    return types


@pytest.fixture
def dijkstra_sources(monkeypatch):
    """The ``indices`` of each ``distances.dijkstra`` call: a source's
    index, or None for the all-pairs call."""
    seen = []
    real = distances.dijkstra

    def spy(*args, **kwargs):
        seen.append(kwargs.get("indices"))
        return real(*args, **kwargs)

    monkeypatch.setattr(distances, "dijkstra", spy)
    return seen


def brute_force_optimum(instance, dist):
    """Exact optimum by dynamic programming over (task subset, last ID),
    then optimal partition of the task set into capacity-feasible routes.
    Equivalent to enumerating every ordered feasible partition with both
    orientations."""
    n = instance.task_count
    assert n <= 8, "oracle is exponential"
    D = dist.rows
    head, tail, sc = instance.id_head, instance.id_tail, instance.id_service
    depot = instance.depot
    inf = float("inf")
    full = 1 << n

    demand_of_mask = [0.0] * full
    for m in range(1, full):
        low = m & -m
        ti = low.bit_length() - 1
        demand_of_mask[m] = demand_of_mask[m ^ low] + instance.tasks[ti].demand

    ending: list[dict[int, float]] = [dict() for _ in range(full)]
    for ti in range(n):
        for t in (2 * ti + 1, 2 * ti + 2):
            ending[1 << ti][t] = D[depot][head[t]] + sc[t]
    for m in range(full):
        for last, cost in ending[m].items():
            base = D[tail[last]]
            for tj in range(n):
                if m >> tj & 1:
                    continue
                nm = m | (1 << tj)
                for t in (2 * tj + 1, 2 * tj + 2):
                    nc = cost + base[head[t]] + sc[t]
                    cur = ending[nm].get(t)
                    if cur is None or nc < cur:
                        ending[nm][t] = nc

    route_best = [inf] * full
    for m in range(1, full):
        if demand_of_mask[m] > instance.capacity:
            continue
        best = inf
        for last, cost in ending[m].items():
            total = cost + D[tail[last]][depot]
            if total < best:
                best = total
        route_best[m] = best

    best = [inf] * full
    best[0] = 0.0
    for m in range(1, full):
        sub = m
        while sub:
            if route_best[sub] < inf and best[m ^ sub] + route_best[sub] < best[m]:
                best[m] = best[m ^ sub] + route_best[sub]
            sub = (sub - 1) & m
    return best[full - 1]


def feasibility_oracle_kinds(solution, instance):
    """Direct transcription of the feasibility constraints; returns the set
    of violated constraint kinds using the same vocabulary as validate()."""
    kinds = set()
    routes = solution.routes

    n_ids = 2 * instance.task_count
    if any(not 1 <= t <= n_ids for r in routes for t in r):
        kinds.add("unknown-id")
    served = [(t - 1) // 2 for r in routes for t in r if 1 <= t <= n_ids]
    if any(c > 1 for c in Counter(served).values()):
        kinds.add("duplicate-task")
    if set(range(instance.task_count)) - set(served):
        kinds.add("missing-task")
    for r in routes:
        load = sum(instance.id_demand[t] for t in r if 1 <= t <= n_ids)
        if load > instance.capacity:
            kinds.add("capacity")
    return kinds
