"""Instance model and DAT parser."""

import io
import math

import pytest
from hypothesis import given, settings

from routecut import (
    Edge,
    Instance,
    InstanceFormatError,
    InvalidInstanceError,
    inverse_id,
    load_instance,
    parse_instance,
    task_index_of,
    write_instance,
)
from routecut.generator import generate_instance
from routecut.instance import forward_id

from conftest import make_instance, small_instances

MINIMAL = """\
NOMBRE : tiny
VERTICES : 2
ARISTAS_REQ : 1
ARISTAS_NOREQ : 0
VEHICULOS : -1
CAPACIDAD : 5
LISTA_ARISTAS_REQ :
( 1 , 2 ) coste 3 demanda 5
LISTA_ARISTAS_NOREQ :
DEPOSITO : 1
"""


def test_minimal_instance():
    inst = parse_instance(MINIMAL)
    assert inst.name == "tiny"
    assert inst.vertex_count == 2
    assert inst.task_count == 1
    assert inst.capacity == 5
    assert inst.depot == 0
    task = inst.tasks[0]
    assert (task.u, task.v) == (0, 1)
    assert task.demand == 5
    assert task.service_cost == task.deadheading_cost == 3


def test_decimal_costs_are_floats():
    inst = parse_instance(MINIMAL.replace("coste 3 ", "coste 2.75 "))
    assert inst.tasks[0].deadheading_cost == inst.tasks[0].service_cost == 2.75
    assert type(parse_instance(MINIMAL).tasks[0].deadheading_cost) is int
    for cost in ("2.", ".5", "2.5e3", "-1"):
        with pytest.raises(InstanceFormatError, match="malformed edge line"):
            parse_instance(MINIMAL.replace("coste 3 ", f"coste {cost} "))


def test_demand_above_capacity_rejected():
    text = MINIMAL.replace("demanda 5", "demanda 6")
    with pytest.raises(InvalidInstanceError, match="exceeds capacity"):
        parse_instance(text)


def test_syntax_error_carries_line_number():
    text = MINIMAL.replace("( 1 , 2 ) coste 3 demanda 5", "( 1 , 2 ) coste demanda 5")
    with pytest.raises(InstanceFormatError, match="line 8"):
        parse_instance(text)


def test_required_edge_without_demand_rejected():
    text = MINIMAL.replace("coste 3 demanda 5", "coste 3")
    with pytest.raises(InstanceFormatError, match="demand"):
        parse_instance(text)


# (edit of MINIMAL, line it names, message): each InstanceFormatError of parse_instance
FORMAT_ERRORS = {
    "outside a block": (("CAPACIDAD : 5\n", "CAPACIDAD : 5\n\n( 1 , 2 ) coste 3 demanda 5\n"),
                        8, "edge line outside an edge block"),
    "malformed": (("coste 3 demanda 5", "coste demanda 5"), 8, "malformed edge line"),
    "no demand": (("coste 3 demanda 5", "coste 3"), 8, "required edge without a demand"),
    "zero demand": (("demanda 5", "demanda 0"), 8, "required edge with non-positive demand"),
    "optional demand": (("LISTA_ARISTAS_NOREQ :\n", "LISTA_ARISTAS_NOREQ :\n\n( 1 , 2 ) coste 3 "
                         "demanda 1\n"), 11, "non-required edge with a demand"),
    "no colon": (("VEHICULOS : -1", "VEHICULOS -1"), 5, "expected `KEY : VALUE`"),
}


@pytest.mark.parametrize("edit, line_no, message", FORMAT_ERRORS.values(), ids=FORMAT_ERRORS)
def test_each_format_error_names_its_line(edit, line_no, message):
    text = MINIMAL.replace(*edit)
    assert text != MINIMAL
    with pytest.raises(InstanceFormatError) as info:
        parse_instance(text)
    assert info.value.line_no == line_no
    assert str(info.value).startswith(f"line {line_no}: {message}")


def _two_task_dat(edge):
    """A three-vertex DAT of capacity 5 whose second required edge is ``edge``."""
    return (f"NOMBRE : two\nVERTICES : 3\nARISTAS_REQ : 2\nARISTAS_NOREQ : 0\n"
            f"CAPACIDAD : 5\nLISTA_ARISTAS_REQ :\n( 1 , 2 ) coste 1 demanda 1\n{edge}\n"
            f"LISTA_ARISTAS_NOREQ :\nDEPOSITO : 1\n")


@pytest.mark.parametrize("edge, message", [
    ("( 2 , 3 ) coste 1 demanda 9", r"^edge \(2,3\) demand 9 exceeds capacity 5$"),
    ("( 2 , 4 ) coste 1 demanda 1", r"^edge \(2,4\) has a dangling vertex$"),
    ("( 3 , 0 ) coste 1 demanda 1", r"^edge \(3,0\) has a dangling vertex$"),
    # 400 digits read as a float overflow to infinity
    (f"( 2 , 3 ) coste {'9' * 400}.0 demanda 1", r"^edge \(2,3\) needs finite non-negative"),
], ids=["demand", "dangling", "vertex 0", "infinite cost"])
def test_edge_errors_name_the_vertices_of_the_file(edge, message):
    assert parse_instance(_two_task_dat("( 2 , 3 ) coste 1 demanda 1")).task_count == 2
    with pytest.raises(InvalidInstanceError, match=message):
        parse_instance(_two_task_dat(edge))


def test_count_mismatch_rejected():
    text = MINIMAL.replace("ARISTAS_REQ : 1", "ARISTAS_REQ : 2")
    with pytest.raises(InvalidInstanceError, match="ARISTAS_REQ"):
        parse_instance(text)


def test_english_synonyms():
    text = """\
NAME : anglo
VERTICES : 3
ARISTAS_REQ : 1
ARISTAS_NOREQ : 1
CAPACITY : 9
LISTA_ARISTAS_REQ :
( 1 , 2 ) cost 4 demand 2
LISTA_ARISTAS_NOREQ :
( 2 , 3 ) cost 1
DEPOT : 2
"""
    inst = parse_instance(text)
    assert inst.name == "anglo"
    assert inst.depot == 1
    assert inst.capacity == 9
    assert inst.task_count == 1
    assert inst.edges[1].deadheading_cost == 1


def test_unreachable_task_rejected():
    text = """\
NOMBRE : split
VERTICES : 4
ARISTAS_REQ : 2
ARISTAS_NOREQ : 0
CAPACIDAD : 5
LISTA_ARISTAS_REQ :
( 1 , 2 ) coste 1 demanda 1
( 3 , 4 ) coste 1 demanda 1
DEPOSITO : 1
"""
    with pytest.raises(InvalidInstanceError, match="unreachable"):
        parse_instance(text)


def test_dangling_vertex_rejected():
    text = MINIMAL.replace("( 1 , 2 )", "( 1 , 7 )")
    with pytest.raises(InvalidInstanceError, match="dangling"):
        parse_instance(text)


def test_depot_out_of_range_rejected():
    text = MINIMAL.replace("DEPOSITO : 1", "DEPOSITO : 3")
    with pytest.raises(InvalidInstanceError, match="depot"):
        parse_instance(text)


NON_FINITE = pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"]
)


@NON_FINITE
@pytest.mark.parametrize("demand", [0, 1], ids=["optional", "required"])
@pytest.mark.parametrize("field", ["demand", "service_cost", "deadheading_cost"])
def test_non_finite_edge_numbers_rejected(field, demand, value):
    # a NaN demand would drop the task silently, an infinite cost would
    # give an infinite solution that validates
    numbers = {"demand": demand, "service_cost": 1, "deadheading_cost": 1, field: value}
    edges = [Edge(0, 1, 1, 1, 1), Edge(1, 2, **numbers)]
    with pytest.raises(InvalidInstanceError, match=r"edge \(2,3\) needs finite non-negative"):
        Instance("x", 3, edges, 0, 5)


@NON_FINITE
def test_capacity_must_be_positive_and_may_be_infinite(value):
    # a NaN capacity fits no demand, and path scanning would never return
    edges = [Edge(0, 1, 1, 1, 1)]
    if value == math.inf:
        assert Instance("x", 2, edges, 0, value).capacity == math.inf
        return
    with pytest.raises(InvalidInstanceError, match="capacity must be positive"):
        Instance("x", 2, edges, 0, value)


def test_parallel_edges_are_distinct_tasks():
    inst = make_instance(2, [(0, 1, 1, 2, 2), (0, 1, 3, 5, 5)], capacity=10)
    assert inst.task_count == 2
    assert inst.tasks[0].demand == 1 and inst.tasks[1].demand == 3


def test_self_loop_task_accepted():
    inst = make_instance(2, [(0, 0, 2, 3, 3), (0, 1, 1, 1, 1)], capacity=10)
    assert inst.task_count == 2
    dist = inst.distances()
    assert float(dist.matrix[0, 0]) == 0.0


def test_directed_id_structure():
    inst = make_instance(
        3, [(0, 1, 1, 1, 1), (0, 2, 0, 0, 5), (1, 2, 2, 4, 4)], capacity=10
    )
    assert inst.tasks == [e for e in inst.edges if e.required]
    assert [(t.u, t.v) for t in inst.tasks] == [(0, 1), (1, 2)]
    for i, task in enumerate(inst.tasks):
        f = forward_id(i)
        r = inverse_id(f)
        assert r == f + 1 and inverse_id(r) == f
        assert task_index_of(f) == task_index_of(r) == i
        assert inst.id_head[f] == inst.id_tail[r] == task.u
        assert inst.id_tail[f] == inst.id_head[r] == task.v
        assert inst.id_demand[f] == inst.id_demand[r] == task.demand
    # depot dummy
    assert inverse_id(0) == 0
    assert inst.id_head[0] == inst.id_tail[0] == inst.depot
    assert inst.id_demand[0] == inst.id_service[0] == 0


def test_roundtrip_write_parse():
    for seed in range(4):
        inst = generate_instance(14, 9, 20, seed=seed)
        buf = io.StringIO()
        write_instance(inst, buf)
        again = parse_instance(buf.getvalue())
        assert again.vertex_count == inst.vertex_count
        assert again.depot == inst.depot
        assert again.capacity == inst.capacity
        assert [(t.u, t.v, t.demand) for t in again.tasks] == [
            (t.u, t.v, t.demand) for t in inst.tasks
        ]
        assert [(e.u, e.v, e.deadheading_cost) for e in again.edges] == [
            (e.u, e.v, e.deadheading_cost)
            for e in sorted(inst.edges, key=lambda e: not e.required)
        ]


@settings(max_examples=60, deadline=None)
@given(small_instances())
def test_write_parse_round_trip_on_drawn_instances(inst):
    buf = io.StringIO()
    write_instance(inst, buf)
    again = parse_instance(buf.getvalue())
    assert (again.name, again.vertex_count, again.depot, again.capacity) == (
        inst.name, inst.vertex_count, inst.depot, inst.capacity
    )
    assert again.edges == inst.edges


@pytest.mark.parametrize("cost", [2.75, 0.1, 1e-05, 1.5e-07, 3.0, 1e16, 123456789.125])
def test_write_parse_round_trip_of_decimal_costs(cost):
    # repr would write 1e-05 and 1e+16, which the edge lines do not allow
    edges = [Edge(0, 1, 2, cost, cost), Edge(1, 2, 0, 0, cost), Edge(0, 2, 1.0, 7, 7)]
    inst = Instance("decimal", 3, edges, 0, 5.0)
    buf = io.StringIO()
    write_instance(inst, buf)
    again = parse_instance(buf.getvalue())
    assert again.edges == [edges[0], edges[2], edges[1]]  # required edges first
    assert again.capacity == inst.capacity


def test_write_prints_integers_as_before():
    inst = make_instance(3, [(0, 1, 2, 3, 3), (1, 2, 0, 0, 4)], capacity=7, name="ints")
    buf = io.StringIO()
    write_instance(inst, buf)
    assert buf.getvalue() == (
        "NOMBRE : ints\nVERTICES : 3\nARISTAS_REQ : 1\nARISTAS_NOREQ : 1\nVEHICULOS : -1\n"
        "CAPACIDAD : 7\nLISTA_ARISTAS_REQ :\n( 1 , 2 ) coste 3 demanda 2\n"
        "LISTA_ARISTAS_NOREQ :\n( 2 , 3 ) coste 4\nDEPOSITO : 1\n"
    )


@pytest.mark.parametrize("edges, capacity, message", [
    # DAT writes one cost for both on a required edge, and none on another
    ([Edge(0, 1, 2, 5, 3)], 10, r"edge \(1,2\) has service cost 5"),
    ([Edge(0, 1, 2, 1, 1), Edge(1, 2, 0, 4, 1)], 10, r"edge \(2,3\) has service cost 4"),
    ([Edge(0, 1, 2.5, 1, 1)], 10, r"edge \(1,2\) demand 2.5"),
    ([Edge(0, 1, 2, 1, 1)], 10.5, r"capacity 10.5"),
    ([Edge(0, 1, 2, 1, 1)], math.inf, r"capacity inf"),
], ids=["service-cost", "optional-service-cost", "demand", "capacity", "infinite-capacity"])
def test_write_refuses_what_dat_cannot_hold(edges, capacity, message):
    buf = io.StringIO()
    with pytest.raises(ValueError, match=message):
        write_instance(Instance("x", 3, edges, 0, capacity), buf)
    assert buf.getvalue() == ""


def test_load_instance_from_path(tmp_path):
    p = tmp_path / "tiny.dat"
    p.write_text(MINIMAL)
    inst = load_instance(p)
    assert inst.task_count == 1
