"""Random instance generation."""

import io
import time

import pytest

from routecut import load_instance, min_vehicles, parse_instance, write_instance
from routecut.generator import generate_instance, generate_instance_file


def test_generated_instance_validates(tmp_path):
    path = tmp_path / "g.dat"
    generate_instance_file(path, vertices=10, tasks=5, capacity=12, seed=3)
    inst = load_instance(path)
    assert inst.vertex_count == 10
    assert inst.task_count == 5
    assert inst.capacity == 12
    assert all(0 < t.demand <= 12 for t in inst.tasks)
    assert min_vehicles(inst) >= 1


def test_same_seed_same_bytes(tmp_path):
    a, b = tmp_path / "a.dat", tmp_path / "b.dat"
    generate_instance_file(a, vertices=30, tasks=25, capacity=20, seed=11)
    generate_instance_file(b, vertices=30, tasks=25, capacity=20, seed=11)
    assert a.read_bytes() == b.read_bytes()


def test_different_seed_differs(tmp_path):
    a, b = tmp_path / "a.dat", tmp_path / "b.dat"
    generate_instance_file(a, vertices=30, tasks=25, capacity=20, seed=11)
    generate_instance_file(b, vertices=30, tasks=25, capacity=20, seed=12)
    assert a.read_bytes() != b.read_bytes()


def test_demands_track_capacity():
    inst = generate_instance(20, 15, capacity=60, seed=5)
    assert all(1 <= t.demand <= 20 for t in inst.tasks)


@pytest.mark.parametrize(
    "tasks, message",
    [(50, "edges"), (-1, "tasks must be non-negative")],
    ids=["edges", "negative"],
)
def test_infeasible_task_count_rejected(tasks, message):
    with pytest.raises(ValueError, match=message):
        generate_instance(5, tasks, capacity=10, seed=0)


def test_tiny_vertex_counts():
    inst = generate_instance(2, 1, capacity=5, seed=1)
    assert inst.task_count == 1
    inst3 = generate_instance(3, 3, capacity=5, seed=1)
    assert inst3.task_count == 3


def test_city_scale_generation_is_fast(tmp_path):
    t0 = time.monotonic()
    inst = generate_instance(2820, 3584, capacity=9000, seed=42)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    assert inst.vertex_count == 2820
    assert inst.task_count == 3584
    buf = io.StringIO()
    write_instance(inst, buf)
    again = parse_instance(buf.getvalue())
    assert again.task_count == 3584
