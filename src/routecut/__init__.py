"""Divide-and-conquer solver for capacitated arc routing.

The library models CARP instances and solutions, scores every ordered
task pair with a competition-ranked link matrix, splits routes at
rank-selected links, and embeds that splitting operator in two
decomposition search loops (hierarchical rebuild and fuzzy k-medoid
clustering), together with a seeded benchmark harness and rank-sum
statistics.
"""

from .decompose import (
    build_virtual_tasks,
    elementary_virtual_tasks,
    fuzzy_kmedoid,
    hdu,
)
from .distances import DistanceTable, shortest_paths
from .generator import generate_instance
from .instance import (
    DEPOT_ID,
    Edge,
    Instance,
    InstanceFormatError,
    InvalidInstanceError,
    inverse_id,
    load_instance,
    parse_instance,
    save_instance,
    task_index_of,
    write_instance,
)
from .localsearch import local_search
from .construct import path_scanning
from .ranking import RankMatrix, build_rank_matrix, rank_rows
from .rco import average_task_rank, classify_links, rco_split, uniform_split
from .search import SearchConfig, SearchTrace, project_solution, solve
from .solution import (
    Route,
    Solution,
    Violation,
    min_vehicles,
    read_solution,
    route_cost,
    validate,
    write_solution,
)
from .stats import WilcoxonResult, significance_table, wilcoxon_rank_sum

__version__ = "0.1.0"

__all__ = [
    "DEPOT_ID",
    "DistanceTable",
    "Edge",
    "Instance",
    "InstanceFormatError",
    "InvalidInstanceError",
    "RankMatrix",
    "Route",
    "SearchConfig",
    "SearchTrace",
    "Solution",
    "Violation",
    "WilcoxonResult",
    "average_task_rank",
    "build_rank_matrix",
    "build_virtual_tasks",
    "classify_links",
    "elementary_virtual_tasks",
    "fuzzy_kmedoid",
    "generate_instance",
    "hdu",
    "inverse_id",
    "load_instance",
    "local_search",
    "min_vehicles",
    "parse_instance",
    "path_scanning",
    "project_solution",
    "rank_rows",
    "rco_split",
    "read_solution",
    "route_cost",
    "save_instance",
    "shortest_paths",
    "significance_table",
    "solve",
    "task_index_of",
    "uniform_split",
    "validate",
    "wilcoxon_rank_sum",
    "write_instance",
    "write_solution",
]
