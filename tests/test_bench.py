"""Experiment harness and CLI surfaces."""

import csv
import gc
import io
import math
import re
import sys
import weakref
from dataclasses import fields, replace
from pathlib import Path

import pytest

from routecut import build_rank_matrix, load_instance, read_solution, solve, validate
from routecut import bench
from routecut.bench import (
    ExperimentSpec,
    RunRecord,
    parse_experiment_config,
    read_records_csv,
    resolve_budget,
    run_experiment,
    samples_by_cell,
    summarize,
    write_csv,
)
from routecut import cli
from routecut.cli import main
from routecut.generator import generate_instance_file
from routecut.search import (
    PARAMETERS, RANGES, SearchConfig, SearchTrace, build_config, settings,
)
from routecut.solution import Solution, write_solution
from routecut.stats import MIN_SAMPLE


def _quick_config(algorithm, **kw):
    return SearchConfig(
        algorithm=algorithm,
        time_limit=60.0,
        max_iterations=25,
        max_cycles=6,
        virtual_clock=True,
        sub_solver_budget=20_000,
        **kw,
    )


@pytest.fixture
def small_instance_file(tmp_path):
    path = tmp_path / "small.dat"
    generate_instance_file(path, vertices=12, tasks=8, capacity=12, seed=2)
    return path


def test_experiment_grid_and_artifacts(tmp_path, small_instance_file):
    spec = ExperimentSpec(
        instances=[small_instance_file],
        variants=[("sahid-rco", _quick_config("sahid-rco"))],
        runs=3,
        base_seed=100,
    )
    out = tmp_path / "out"
    records = run_experiment(spec, out)
    assert len(records) == 3
    assert [r.seed for r in records] == [100, 101, 102]
    assert all(not r.failed for r in records)

    inst = load_instance(small_instance_file)
    for r in records:
        with open(r.solution_path) as fh:
            sol, stated = read_solution(fh, inst)
        assert validate(sol, inst) == []
        assert sol.total_cost == pytest.approx(r.final_cost)
        assert stated == pytest.approx(r.final_cost)
        trace_lines = Path(r.trace_path).read_text().splitlines()
        assert trace_lines[0] == "elapsed_ms,best_cost"
        costs = [float(ln.split(",")[1]) for ln in trace_lines[1:]]
        assert costs == sorted(costs, reverse=True)

    again = read_records_csv(out / "records.csv")
    assert [(r.instance, r.seed, r.final_cost) for r in again] == [
        (r.instance, r.seed, r.final_cost) for r in records
    ]
    rows = summarize(records)
    assert len(rows) == 1
    assert rows[0].runs == 3
    assert rows[0].mean == pytest.approx(
        sum(r.final_cost for r in records) / 3
    )


def test_identical_variants_identical_costs(tmp_path, small_instance_file):
    spec = ExperimentSpec(
        instances=[small_instance_file],
        variants=[
            ("first", _quick_config("sahid-rco")),
            ("second", _quick_config("sahid-rco")),
        ],
        runs=2,
        base_seed=5,
    )
    records = run_experiment(spec, tmp_path / "out")
    by_variant = samples_by_cell(records)
    assert by_variant[("small", "first")] == by_variant[("small", "second")]


def test_single_run_std_flagged(tmp_path, small_instance_file):
    spec = ExperimentSpec(
        instances=[small_instance_file],
        variants=[("sahid-rco", _quick_config("sahid-rco"))],
        runs=1,
    )
    records = run_experiment(spec, tmp_path / "out")
    row = summarize(records)[0]
    assert row.std == 0.0
    assert "single-run" in row.flag


def test_failures_are_recorded_not_raised(tmp_path, small_instance_file):
    broken = tmp_path / "broken.dat"
    broken.write_text("VERTICES : not-a-number\n")
    spec = ExperimentSpec(
        instances=[broken, small_instance_file],
        variants=[("sahid-rco", _quick_config("sahid-rco"))],
        runs=2,
    )
    out = tmp_path / "out"
    records = run_experiment(spec, out)
    assert len(records) == 4
    failed = [r for r in records if r.failed]
    assert len(failed) == 2
    assert all(r.instance == "broken" for r in failed)
    assert all(math.isnan(r.final_cost) for r in failed)
    good = [r for r in records if not r.failed]
    assert len(good) == 2
    rows = summarize(records)
    flagged = [r for r in rows if r.instance == "broken"]
    assert flagged and "2-failed" in flagged[0].flag
    # the file fails each of its cells, which leaves its traceback
    assert sorted(p.name for p in out.glob("*.err")) == [
        "broken__sahid-rco__s0.err", "broken__sahid-rco__s1.err"
    ]
    for r in failed:
        assert r.error.endswith("VERTICES is not an integer: 'not-a-number'")
        text = (out / f"broken__sahid-rco__s{r.seed}.err").read_text()
        assert text.startswith("Traceback") and "in load_instance" in text


def test_instances_must_have_distinct_stems(tmp_path, small_instance_file, capsys):
    # a cell's files and records are named by the stem alone
    first, second = tmp_path / "a" / "x.dat", tmp_path / "b" / "x.dat"
    variants = [("v", _quick_config("local-only"))]
    with pytest.raises(ValueError, match=f"instances {first} and {second} share the stem 'x'"):
        ExperimentSpec([first, second], variants)
    with pytest.raises(ValueError, match="share the stem 'small'"):
        ExperimentSpec([small_instance_file, small_instance_file], variants)
    for path in (first, second):
        path.parent.mkdir()
        generate_instance_file(path, vertices=12, tasks=8, capacity=12, seed=2)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("instances = a/x.dat, b/x.dat\nvariants = local-only\nruns = 1\n")
    out_dir = tmp_path / "runs"
    assert main(["bench", str(cfg), "--out-dir", str(out_dir)]) == 2
    assert "share the stem 'x'" in capsys.readouterr().err
    assert not out_dir.exists()


def test_variants_must_have_distinct_names(tmp_path, small_instance_file, capsys):
    # a cell's files and records are named by the variant too
    config = _quick_config("sahid-rco")
    with pytest.raises(ValueError, match="variant 'v' is listed twice"):
        ExperimentSpec([small_instance_file], [("v", config), ("w", config), ("v", config)])
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"instances = {small_instance_file}\n"
                   "variants = sahid-rco, sahid-rco\nruns = 3\n")
    out_dir = tmp_path / "runs"
    assert main(["bench", str(cfg), "--out-dir", str(out_dir)]) == 2
    assert "variant 'sahid-rco' is listed twice" in capsys.readouterr().err
    assert not out_dir.exists()


def test_one_worker_parses_each_instance_once(tmp_path, small_instance_file, monkeypatch):
    loads = []

    def counting_load(path):
        loads.append(path)
        return load_instance(path)

    monkeypatch.setattr(bench, "load_instance", counting_load)
    variants = [("sahid-rco", _quick_config("sahid-rco")),
                ("local-only", _quick_config("local-only"))]
    spec = ExperimentSpec([small_instance_file], variants, runs=2, workers=1)
    records = run_experiment(spec, tmp_path / "out")
    assert not any(r.failed for r in records)
    assert loads == [str(small_instance_file)]


def test_each_experiment_reads_its_instance_files_afresh(tmp_path):
    path = tmp_path / "x.dat"
    spec = ExperimentSpec([path], [("v", _quick_config("local-only"))], runs=1)
    for seed, tasks in ((2, 8), (3, 10)):  # the same path, another instance
        generate_instance_file(path, vertices=14, tasks=tasks, capacity=12, seed=seed)
        [record] = run_experiment(spec, tmp_path / f"out{seed}")
        best, _ = solve(load_instance(path), replace(_quick_config("local-only"), seed=0))
        assert record.final_cost == best.total_cost


def test_failed_cell_leaves_full_traceback(tmp_path, small_instance_file, monkeypatch):
    def exploding_solve(instance, config, **kw):
        raise RuntimeError("solver blew up")

    monkeypatch.setattr(bench, "solve", exploding_solve)
    spec = ExperimentSpec([small_instance_file], [("v", _quick_config("sahid-rco"))], runs=1)
    [record] = run_experiment(spec, tmp_path / "out")
    assert record.error == "RuntimeError: solver blew up"
    err = (tmp_path / "out" / f"small__v__s{record.seed}.err").read_text()
    assert err.startswith("Traceback")
    assert "in exploding_solve" in err
    assert 'raise RuntimeError("solver blew up")' in err


def test_samples_compare_shared_seeds_only():
    def rec(variant, seed, cost, error=""):
        return RunRecord("i", variant, seed, cost, 1.0, 1, "", "", error)

    records = [rec("a", s, 10.0 + s) for s in range(4)]
    records += [rec("b", s, 20.0 + s) for s in (0, 2, 3)]
    records.append(rec("b", 1, math.nan, "RuntimeError: boom"))
    assert samples_by_cell(records) == {("i", "a"): [10.0, 12.0, 13.0],
                                        ("i", "b"): [20.0, 22.0, 23.0]}
    records += [rec("c", s, math.nan, "RuntimeError: boom") for s in range(4)]
    assert samples_by_cell(records) == {}  # no seed completed by every variant


def test_budget_modes(small_instance_file):
    inst = load_instance(small_instance_file)
    cfg = _quick_config("sahid-rco")
    spec = ExperimentSpec([small_instance_file], [("v", cfg)], runs=1, budget="fixed:30")
    assert resolve_budget(spec, cfg, inst) == pytest.approx(30.0)
    spec = ExperimentSpec(
        [small_instance_file], [("v", cfg)], runs=1, budget="per-knodes:81"
    )
    assert resolve_budget(spec, cfg, inst) == pytest.approx(81 * 12 / 1000)
    spec = ExperimentSpec(
        [small_instance_file], [("v", cfg)], runs=1,
        budget="fixed:30", time_multiplier=1.5,
    )
    assert resolve_budget(spec, cfg, inst) == pytest.approx(45.0)
    spec = ExperimentSpec([small_instance_file], [("v", cfg)], runs=1)
    assert resolve_budget(spec, cfg, inst) == pytest.approx(cfg.time_limit)
    with pytest.raises(ValueError, match="budget"):
        resolve_budget(
            ExperimentSpec([small_instance_file], [("v", cfg)], runs=1, budget="weekly"),
            cfg, inst,
        )


def test_parse_experiment_config(tmp_path, small_instance_file):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"""
# ablation check
instances = {small_instance_file.name}
variants = sahid-rco, sahid-random
runs = 4
base_seed = 7
budget = fixed:12
lambda = 0.1
theta = 0.5
groups = 3
alpha = 2
scale = 0.2
accept = 1.05
idle = 500
max_cycles = 9
max_iterations = 40
virtual_clock = true
workers = 2
"""
    )
    spec = parse_experiment_config(cfg)
    assert [p.name for p in spec.instances] == [small_instance_file.name]
    assert [name for name, _ in spec.variants] == ["sahid-rco", "sahid-random"]
    first = spec.variants[0][1]
    assert first.lam == 0.1 and first.theta == 0.5
    assert first.group_count == 3 and first.fuzziness == 2.0
    assert first.scale == 0.2
    assert first.accept_threshold == 1.05
    assert first.idle_limit == 500
    assert first.max_cycles == 9
    assert first.max_iterations == 40
    assert first.virtual_clock
    assert spec.runs == 4 and spec.base_seed == 7
    assert spec.budget == "fixed:12"
    assert spec.workers == 2
    # variants only differ in the algorithm
    assert spec.variants[1][1].algorithm == "sahid-random"
    assert spec.variants[1][1] == replace(first, algorithm="sahid-random")


@pytest.mark.parametrize("key, value", [
    ("workers", "0"), ("workers", "-2"),
    ("time_multiplier", "0"), ("time_multiplier", "-1.5"), ("time_multiplier", "nan"),
    ("time_multiplier", "inf"),
    ("budget", "weekly"), ("budget", "weekly:3"), ("budget", "fixed"), ("budget", "fixed:"),
    ("budget", "fixed:soon"), ("budget", "fixed:nan"), ("budget", "fixed:-1"),
    ("budget", "fixed:0"), ("budget", "fixed:inf"), ("budget", "per-knodes:-inf"),
    ("budget", "per-knodes:nan"),
])
def test_parse_config_rejects_bad_spec_values(key, value, tmp_path, small_instance_file):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"instances = {small_instance_file}\nvariants = sahid-rco\n{key} = {value}\n")
    with pytest.raises(ValueError, match=key):
        parse_experiment_config(cfg)


@pytest.mark.parametrize("line, expected", [
    ("groups = 2.5", "groups must be an integer, got '2.5'"),
    ("max_iterations = abc", "max_iterations must be an integer, got 'abc'"),
    ("runs = 2.5", "runs must be an integer, got '2.5'"),
    ("time_multiplier = fast", "time_multiplier must be a number, got 'fast'"),
])
def test_parse_config_names_the_key_of_a_value_that_does_not_parse(line, expected, tmp_path,
                                                                     small_instance_file):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"instances = {small_instance_file}\nvariants = sahid-rco\n{line}\n")
    with pytest.raises(ValueError, match=re.escape(f"{cfg}:3: {expected}")):
        parse_experiment_config(cfg)
    key, _, value = line.partition(" = ")
    if key in PARAMETERS:  # from the library, the message has no line to name
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            build_config({key: value})


_TINY = math.nextafter(0.0, 1.0)
# (just outside, just inside) at each end of each named range, by setting type
_RANGE_EDGES = {
    ("in [0, 1]", float): [(-_TINY, 0.0), (math.nextafter(1.0, 2.0), 1.0)],
    ("in (0, 1)", float): [(0.0, _TINY), (1.0, math.nextafter(1.0, 0.0))],
    ("at least 1", int): [(0, 1)],
    ("at least 1", float): [(math.nextafter(1.0, 0.0), 1.0)],
    ("positive", float): [(0.0, _TINY)],
    ("non-negative", int): [(-1, 0)],
    ("finite and positive", float): [(0.0, _TINY), (math.inf, sys.float_info.max)],
}


def _ranged_settings():
    for cls in (SearchConfig, ExperimentSpec):
        ranges = {f.name: f.metadata.get("range") for f in fields(cls)}
        for key, (name, kind) in settings(cls).items():
            if ranges[name]:
                yield pytest.param(cls, key, name, kind, ranges[name], id=key)


def test_range_edges_cover_every_named_range():
    assert {valid for valid, _ in _RANGE_EDGES} == set(RANGES)


@pytest.mark.parametrize("cls, key, name, kind, valid", list(_ranged_settings()))
def test_every_declared_range(cls, key, name, kind, valid, tmp_path, small_instance_file):
    lists = {"instances": [], "variants": []} if cls is ExperimentSpec else {}
    cfg = tmp_path / "exp.cfg"
    head = f"instances = {small_instance_file}\nvariants = sahid-rco\n"
    edges = _RANGE_EDGES[valid, kind] + ([(math.nan, None)] if kind is float else [])
    for outside, inside in edges:
        with pytest.raises(ValueError) as error:
            cls(**lists, **{name: outside})
        assert str(error.value) == f"{name} must be {valid}"
        cfg.write_text(head + f"{key} = {outside!r}\n")
        with pytest.raises(ValueError) as error:
            parse_experiment_config(cfg)
        assert str(error.value) == f"{key} must be {valid}"
        if cls is SearchConfig:
            with pytest.raises(ValueError) as error:
                build_config({key: outside})
            assert str(error.value) == f"{key} must be {valid}"
        if inside is not None:
            cls(**lists, **{name: inside})
            cfg.write_text(head + f"{key} = {inside!r}\n")
            parse_experiment_config(cfg)


@pytest.mark.parametrize("flag, value, field", [
    ("--workers", "0", "workers"),
    ("--time-multiplier", "0", "time_multiplier"),
    ("--time-multiplier", "nan", "time_multiplier"),
    ("--time-multiplier", "inf", "time_multiplier"),
    ("--budget", "fixed", "budget"),
    ("--budget", "fixed:nan", "budget"),
    ("--budget", "fixed:-1", "budget"),
    ("--budget", "per-knodes:0", "budget"),
])
def test_cli_bench_rejects_bad_overrides(flag, value, field, tmp_path, small_instance_file,
                                         capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"instances = {small_instance_file}\nvariants = sahid-rco\n")
    out_dir = tmp_path / "runs"
    assert main(["bench", str(cfg), "--out-dir", str(out_dir), flag, value]) == 2
    assert field in capsys.readouterr().err
    assert not out_dir.exists()


def test_parse_config_rejects_bad_variant(tmp_path, small_instance_file):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"instances = {small_instance_file}\nvariants = teleport\n")
    with pytest.raises(ValueError, match="teleport"):
        parse_experiment_config(cfg)


def test_parse_config_rejects_unknown_key(tmp_path, small_instance_file):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"instances = {small_instance_file}\nvariants = sahid-rco\nlamda = 0.9\n")
    with pytest.raises(ValueError, match=r"exp\.cfg:3: unknown key 'lamda'"):
        parse_experiment_config(cfg)


def test_parse_config_rejects_repeated_key(tmp_path, small_instance_file):
    # a later line must not silently override an earlier one; keys ignore case
    cfg = tmp_path / "exp.cfg"
    head = f"instances = {small_instance_file}\nvariants = sahid-rco\n"
    cfg.write_text(head + "lambda = 0.3\n# comment\n\nLAMBDA = 0.9\n")
    with pytest.raises(ValueError, match=r"exp\.cfg:6: key 'lambda' repeats line 3"):
        parse_experiment_config(cfg)
    cfg.write_text(head + "variants = sahid-random\n")
    with pytest.raises(ValueError, match=r"exp\.cfg:3: key 'variants' repeats line 2"):
        parse_experiment_config(cfg)


# a non-default value for every parameter, as written on a command line
_NON_DEFAULT = {
    "lambda": "0.3", "theta": "0.4", "groups": "3", "alpha": "2.5", "scale": "0.2",
    "accept": "1.2", "idle": "7", "max_cycles": "4", "max_iterations": "9",
    "time_limit": "12.5", "virtual_clock": None, "sub_solver_budget": "1234",
}


def _cli_config(monkeypatch, instance_file, options):
    seen = []

    def fake_solve(instance, config, trace_sink=None):
        seen.append(config)
        return Solution([], 0.0), SearchTrace()

    monkeypatch.setattr(cli, "solve", fake_solve)
    assert main(["solve", str(instance_file), *options]) == 0
    return seen[0]


def _file_config(tmp_path, instance_file, lines, variant="cluster-rco"):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"instances = {instance_file}\nvariants = {variant}\n" + "".join(lines))
    return parse_experiment_config(cfg).variants[0][1]


def test_parameter_table_is_the_documented_set():
    assert set(PARAMETERS) == set(_NON_DEFAULT)
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| `([\w.]+)` \|", readme, re.MULTILINE)
    assert dict(rows) == {key: path for key, (path, _) in PARAMETERS.items()}
    ranges = re.findall(r"^\| `(\w+)` \| `[\w.]+` \| [^|]+ \| ([^|]+) \|$", readme, re.MULTILINE)
    declared = {f.name: f.metadata.get("range") or "any" for f in fields(SearchConfig)}
    assert dict(ranges) == {key: declared[name] for key, (name, _) in PARAMETERS.items()}


@pytest.mark.parametrize("key", sorted(PARAMETERS))
def test_cli_and_config_file_build_the_same_config(key, tmp_path, small_instance_file,
                                                   monkeypatch):
    value = _NON_DEFAULT[key]
    flag = ["--" + key.replace("_", "-")] + ([] if value is None else [value])
    from_cli = _cli_config(
        monkeypatch, small_instance_file, ["--algorithm", "cluster-rco", "--seed", "0", *flag]
    )
    line = f"{key} = {'true' if value is None else value}\n"
    from_file = _file_config(tmp_path, small_instance_file, [line])
    assert from_cli == from_file
    assert from_cli != SearchConfig(algorithm="cluster-rco")


def test_cli_and_config_file_defaults(tmp_path, small_instance_file, monkeypatch):
    assert _cli_config(monkeypatch, small_instance_file, []) == SearchConfig()
    assert _file_config(tmp_path, small_instance_file, [], "sahid-rco") == SearchConfig()


def test_zero_iterations_means_no_cap(tmp_path, small_instance_file, monkeypatch):
    from_cli = _cli_config(monkeypatch, small_instance_file, ["--max-iters", "0"])
    from_file = _file_config(tmp_path, small_instance_file, ["max_iterations = 0\n"])
    assert from_cli.max_iterations is None and from_file.max_iterations is None


@pytest.mark.parametrize("text, want", [
    ("1", True), ("yes", True), ("TRUE", True), ("0", False), ("no", False), ("false", False),
    # anything else is refused, not read as false
    ("ture", None), ("on", None), ("off", None), ("2", None), ("", None),
])
def test_config_file_booleans(tmp_path, small_instance_file, text, want):
    line = f"virtual_clock = {text}\n"
    if want is None:
        with pytest.raises(ValueError, match="virtual_clock"):
            _file_config(tmp_path, small_instance_file, [line])
        return
    assert _file_config(tmp_path, small_instance_file, [line]).virtual_clock is want


def test_cells_build_each_rank_matrix_once_per_instance(tmp_path, monkeypatch):
    paths = []
    for seed in (2, 3):
        path = tmp_path / f"inst{seed}.dat"
        generate_instance_file(path, vertices=12, tasks=8, capacity=12, seed=seed)
        paths.append(path)
    built = []

    def counting_build(instance, dist):
        built.append(instance)
        return build_rank_matrix(instance, dist)

    monkeypatch.setattr(bench, "build_rank_matrix", counting_build)
    variants = [("sahid-rco", _quick_config("sahid-rco")),
                ("cluster-rco", _quick_config("cluster-rco"))]
    spec = ExperimentSpec(paths, variants, runs=2, base_seed=4, workers=1)
    records = run_experiment(spec, tmp_path / "out")
    assert len(records) == 8 and not any(r.failed for r in records)
    assert len(built) == 2 and built[0] is not built[1]
    for r in records:
        instance = load_instance(tmp_path / f"{r.instance}.dat")
        best, _ = solve(instance, replace(dict(variants)[r.variant], seed=r.seed))
        text = io.StringIO()
        write_solution(best, instance, text)
        assert r.final_cost == best.total_cost
        assert Path(r.solution_path).read_text() == text.getvalue()


def test_a_worker_keeps_one_instance_alive(tmp_path, monkeypatch):
    # each instance holds its distance table and rows: a worker that kept
    # every one it loaded would grow with the experiment
    paths = []
    for seed in (2, 3, 4):
        path = tmp_path / f"inst{seed}.dat"
        generate_instance_file(path, vertices=12, tasks=8, capacity=12, seed=seed)
        paths.append(path)
    loaded = []

    def recording_load(path):
        instance = load_instance(path)
        loaded.append(weakref.ref(instance))
        return instance

    monkeypatch.setattr(bench, "load_instance", recording_load)
    spec = ExperimentSpec(paths, [("v", _quick_config("sahid-rco"))], runs=2, workers=1)
    records = run_experiment(spec, tmp_path / "out")
    assert len(records) == 6 and not any(r.failed for r in records)
    gc.collect()
    assert len(loaded) >= 3
    assert sum(ref() is not None for ref in loaded) <= 1


def test_failed_rank_matrix_lands_in_the_cell(tmp_path, small_instance_file, monkeypatch):
    def exploding_build(instance, dist):
        raise RuntimeError("ranking blew up")

    monkeypatch.setattr(bench, "build_rank_matrix", exploding_build)
    spec = ExperimentSpec([small_instance_file], [("v", _quick_config("sahid-rco"))], runs=1,
                          base_seed=11)
    [record] = run_experiment(spec, tmp_path / "out")
    assert record.error == "RuntimeError: ranking blew up"
    err = (tmp_path / "out" / "small__v__s11.err").read_text()
    assert "in exploding_build" in err


def test_failed_cell_keeps_its_streamed_trace(tmp_path, small_instance_file, monkeypatch):
    def failing_validate(solution, instance):
        raise RuntimeError("validation blew up")

    monkeypatch.setattr(bench, "validate", failing_validate)
    spec = ExperimentSpec([small_instance_file], [("v", _quick_config("sahid-rco"))], runs=1,
                          base_seed=11)
    [record] = run_experiment(spec, tmp_path / "out")
    assert record.error == "RuntimeError: validation blew up"
    _, trace = solve(load_instance(small_instance_file), replace(_quick_config("sahid-rco"),
                                                                 seed=11))
    lines = Path(record.trace_path).read_text().splitlines()
    assert lines[0] == "elapsed_ms,best_cost"
    assert len(lines) == 1 + len(trace.samples)


def _half_solve(instance, config, trace_sink, **kw):
    trace_sink.write("elapsed_ms,best_cost\n")
    raise RuntimeError("solver blew up")


def _failing_validate(solution, instance):
    raise RuntimeError("validation blew up")


# where a cell fails, and the files it wrote by then: none when the instance
# does not load, a partial trace when solve fails, a whole one when validation does
@pytest.mark.parametrize("fails_in, written", [
    ("load_instance", set()), ("solve", {"trace"}), ("validate", {"trace"}),
])
def test_failed_cell_records_only_files_it_wrote(tmp_path, small_instance_file, monkeypatch,
                                                fails_in, written):
    if fails_in == "load_instance":
        small_instance_file.write_text("VERTICES : not-a-number\n")
    else:
        failing = {"solve": _half_solve, "validate": _failing_validate}[fails_in]
        monkeypatch.setattr(bench, fails_in, failing)
    out = tmp_path / "out"
    out.mkdir()
    stale = {"trace": out / "small__v__s0.trace.csv", "solution": out / "small__v__s0.sol"}
    for path in stale.values():  # left by an earlier run at the same paths
        path.write_text("stale\n")
    spec = ExperimentSpec([small_instance_file], [("v", _quick_config("sahid-rco"))], runs=1)
    [record] = run_experiment(spec, out)
    assert record.failed
    [again] = read_records_csv(out / "records.csv")
    for r in (record, again):
        assert r.trace_path == (str(stale["trace"]) if "trace" in written else "")
        assert r.solution_path == ""
    assert {kind for kind, path in stale.items() if path.exists()} == written
    if written:
        assert stale["trace"].read_text().startswith("elapsed_ms,best_cost\n")


def test_parallel_workers_match_sequential(tmp_path, small_instance_file):
    base = dict(
        instances=[small_instance_file],
        variants=[("sahid-rco", _quick_config("sahid-rco"))],
        runs=2,
        base_seed=3,
    )
    seq = run_experiment(ExperimentSpec(**base, workers=1), tmp_path / "seq")
    par = run_experiment(ExperimentSpec(**base, workers=2), tmp_path / "par")
    assert [r.final_cost for r in seq] == [r.final_cost for r in par]
    assert [Path(r.trace_path).read_text() for r in seq] == [
        Path(r.trace_path).read_text() for r in par
    ]


# --- CLI ------------------------------------------------------------------


def test_cli_gen_solve_validate(tmp_path, capsys):
    inst_path = tmp_path / "i.dat"
    sol_path = tmp_path / "i.sol"
    trace_path = tmp_path / "i.trace.csv"
    assert main(["gen", "--vertices", "12", "--tasks", "8", "--capacity", "12",
                 "--seed", "2", "--out", str(inst_path)]) == 0
    assert main([
        "solve", str(inst_path), "--algorithm", "sahid-rco", "--seed", "1",
        "--time-limit", "30", "--max-iters", "20", "--virtual-clock",
        "--trace", str(trace_path), "--out", str(sol_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "cost" in out
    assert trace_path.read_text().startswith("elapsed_ms,best_cost")
    assert main(["validate", str(inst_path), str(sol_path)]) == 0
    assert "feasible" in capsys.readouterr().out


def test_cli_solve_rejects_a_nan_time_limit(small_instance_file, capsys):
    assert main(["solve", str(small_instance_file), "--time-limit", "nan"]) == 2
    assert "time_limit" in capsys.readouterr().err


def test_cli_validate_rejects_bad_solution(tmp_path, capsys):
    inst_path = tmp_path / "i.dat"
    generate_instance_file(inst_path, vertices=10, tasks=4, capacity=12, seed=4)
    inst = load_instance(inst_path)
    t = inst.tasks[0]
    bad = tmp_path / "bad.sol"
    bad.write_text(f"cost 1\nroute 1: ({t.u + 1},{t.v + 1})\n")
    assert main(["validate", str(inst_path), str(bad)]) == 1
    assert "missing-task" in capsys.readouterr().out


def test_cli_bench_and_stats(tmp_path, capsys):
    inst_path = tmp_path / "i.dat"
    generate_instance_file(inst_path, vertices=12, tasks=8, capacity=12, seed=2)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"""
instances = i.dat
variants = sahid-rco, sahid-random
runs = 3
base_seed = 9
time_limit = 30
max_iterations = 15
virtual_clock = true
"""
    )
    out_dir = tmp_path / "runs"
    assert main(["bench", str(cfg), "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "records.csv").exists()
    assert (out_dir / "summary.csv").exists()
    summary = (out_dir / "summary.csv").read_bytes()
    bench_out = capsys.readouterr().out.splitlines()
    assert main(["stats", str(out_dir), "--reference", "sahid-rco",
                 "--alpha", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "reference: sahid-rco" in out
    assert [line for line in bench_out + out.splitlines() if line.endswith(" ")] == []
    # the same summary table, from the records in memory and as read back
    assert out.splitlines()[:3] == bench_out[1:] and bench_out[1].startswith("instance ")
    assert (out_dir / "summary.csv").read_bytes() == summary
    assert (out_dir / "wdl.csv").exists()
    assert (out_dir / "comparisons.csv").exists()
    assert main(["stats", str(out_dir), "--reference", "sahid-rco", "--alpha", "nan"]) == 2
    assert "alpha" in capsys.readouterr().err


def test_cli_stats_quotes_commas_in_names(tmp_path):
    # names from the API: a config file splits its lists on commas
    inst_path = tmp_path / "a,b.dat"
    generate_instance_file(inst_path, vertices=12, tasks=8, capacity=12, seed=2)
    spec = ExperimentSpec(
        instances=[inst_path],
        variants=[(v, _quick_config("sahid-rco")) for v in ("ref", "other,x")],
        runs=3,
    )
    out_dir = tmp_path / "runs"
    run_experiment(spec, out_dir)
    assert main(["stats", str(out_dir), "--reference", "ref"]) == 0
    tables = {}
    for name in ("wdl.csv", "comparisons.csv"):
        with open(out_dir / name, newline="") as fh:
            tables[name] = list(csv.DictReader(fh))
    assert [row["variant"] for row in tables["wdl.csv"]] == ["other,x"]
    assert [(row["instance"], row["variant"], row["outcome"])
            for row in tables["comparisons.csv"]] == [("a,b", "other,x", "D")]
    assert all(None not in row for rows in tables.values() for row in rows)


def test_cli_stats_survives_a_failed_run(tmp_path, capsys):
    records = [
        RunRecord("i", variant, seed, base + seed, 1.0, 1, "", "")
        for variant, base in (("a", 10.0), ("b", 30.0))
        for seed in range(5)
    ]
    records[-1] = RunRecord("i", "b", 4, math.nan, 0.0, 0, "", "", "RuntimeError: boom")
    # two runs per variant are too few for the rank-sum test
    records += [RunRecord("j", v, seed, 1.0, 1.0, 1, "", "") for v in "ab" for seed in (0, 1)]
    write_csv(tmp_path / "records.csv", RunRecord, records)
    assert main(["stats", str(tmp_path), "--reference", "a"]) == 0
    out = capsys.readouterr().out
    assert "dropped 6 of 14 runs" in out
    assert "reference: a" in out
    assert (tmp_path / "wdl.csv").read_text().splitlines()[1] == "b,1,0,0"


def test_records_csv_round_trips_every_value(tmp_path):
    records = [
        RunRecord("a,b", 'say "x"', 3, 0.1 + 0.2, 1e-7, 2, "t,1.csv", "s.sol"),
        RunRecord("i", "v", 4, math.nan, 0.0, 0, "", "", "RuntimeError: boom, twice"),
        RunRecord("i", "v", 5, math.inf, 12.5, 1, "", ""),
    ]
    path = tmp_path / "records.csv"
    write_csv(path, RunRecord, records)
    assert path.read_text().splitlines() == [
        "instance,variant,seed,final_cost,elapsed_sec,route_count,trace_path,solution_path,error",
        '"a,b","say ""x""",3,0.30000000000000004,1e-07,2,"t,1.csv",s.sol,',
        'i,v,4,nan,0.0,0,,,"RuntimeError: boom, twice"',
        "i,v,5,inf,12.5,1,,,",
    ]
    again = read_records_csv(path)
    assert [repr(r) for r in again] == [repr(r) for r in records]
    assert {type(getattr(r, name)) for r in again for name in ("seed", "route_count")} == {int}
    # a file without the error column reads as records of cells that did not fail
    path.write_text("instance,variant,seed,final_cost,elapsed_sec,route_count,trace_path,"
                    "solution_path\ni,v,1,2.5,0.5,1,t.csv,s.sol\n")
    assert read_records_csv(path) == [RunRecord("i", "v", 1, 2.5, 0.5, 1, "t.csv", "s.sol")]


def test_records_csv_must_hold_every_column_without_a_default(tmp_path, capsys):
    (tmp_path / "records.csv").write_text("instance,variant,final_cost\ni,v,1.0\n")
    columns = "seed, elapsed_sec, route_count, trace_path, solution_path"
    with pytest.raises(ValueError, match=f"lacks the column\\(s\\) {columns}$"):
        read_records_csv(tmp_path / "records.csv")
    assert main(["stats", str(tmp_path), "--reference", "v"]) == 2
    assert f"error: {tmp_path / 'records.csv'} lacks the column(s) {columns}" in (
        capsys.readouterr().err
    )


RECORDS_HEADER = "instance,variant,seed,final_cost,elapsed_sec,route_count,trace_path,solution_path"


@pytest.mark.parametrize("row, expected", [
    ("i,v,1,2.0", "the row has fewer fields than the header's 8"),
    # csv.DictReader files the extra fields under the key None
    ("i,v,1,2.0,0.5,1,,,oops,more", "the row has more fields than the header's 8"),
    ("i,v,abc,2.0,0.5,1,,", "seed must be an integer, got 'abc'"),
    ("i,v,1,cheap,0.5,1,,", "final_cost must be a number, got 'cheap'"),
])
def test_records_csv_names_the_line_of_a_bad_row(row, expected, tmp_path, capsys):
    path = tmp_path / "records.csv"
    path.write_text(f"{RECORDS_HEADER}\ni,v,1,2.5,0.5,1,,\n{row}\n")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:3: {expected}')}$"):
        read_records_csv(path)
    assert main(["stats", str(tmp_path), "--reference", "v"]) == 2
    assert f"error: {path}:3: {expected}" in capsys.readouterr().err


def test_cli_stats_says_when_no_instance_has_enough_seeds(tmp_path, capsys):
    records = [RunRecord("i", v, seed, 1.0 + seed, 1.0, 1, "", "")
               for v in ("a", "b") for seed in range(5)]
    # seeds 2..4 failed for b, so every variant completed two seeds only
    records[7:] = [replace(r, final_cost=math.nan, error="RuntimeError: boom")
                   for r in records[7:]]
    write_csv(tmp_path / "records.csv", RunRecord, records)
    assert main(["stats", str(tmp_path), "--reference", "a"]) == 2
    err = capsys.readouterr().err
    assert f"no instance has {MIN_SAMPLE} seeds that every variant completed" in err
    assert "has no samples" not in err
    assert not (tmp_path / "wdl.csv").exists()


def test_cli_clean_errors(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nope.dat")]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["stats", str(tmp_path), "--reference", "x"]) == 2
    assert "error:" in capsys.readouterr().err
    inst_path = tmp_path / "i.dat"
    generate_instance_file(inst_path, vertices=10, tasks=4, capacity=12, seed=4)
    (tmp_path / "bad.sol").write_text("cost 1\nroute 1 (1,2)\n")
    assert main(["validate", str(inst_path), str(tmp_path / "bad.sol")]) == 2
    assert "error: unexpected line" in capsys.readouterr().err
    (tmp_path / "junk.sol").write_text("cost 1\nroute 1: (1,2) junk\n")
    assert main(["validate", str(inst_path), str(tmp_path / "junk.sol")]) == 2
    assert "error: unexpected line in solution file: 'route 1: (1,2) junk'" in (
        capsys.readouterr().err
    )
