"""Tests of the benchmark itself: inputs, answer checker, tracer, contract.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import multmon  # noqa: E402
from multmon import cli, multiplicity_associativity, multiplicity_ps, parse_ideal  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _call(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _texts(plan, prefix="a") -> list[str]:
    return [" ".join(case.argv(prefix)) for case in plan]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(workload):
    first = _texts(workloads.make_plan(workload, 7, 5))
    assert first == _texts(workloads.make_plan(workload, 7, 5))
    assert first != _texts(workloads.make_plan(workload, 8, 5))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_no_two_inputs_are_equal_ideals(workload):
    plan = workloads.make_plan(workload, 3, 5)
    ideals = [parse_ideal(case.argv("a")[2]) for case in plan]
    assert len(set(ideals)) == len(ideals)
    # Each repeat renames every variable, so repeats are new ideals too.
    assert not set(ideals) & {parse_ideal(case.argv("b")[2]) for case in plan}


def test_generated_ideals_are_minimal_as_written():
    for workload in workloads.WORKLOADS:
        for case in workloads.make_plan(workload, 5, 5):
            parsed = multmon.parse_ideal_detailed(case.argv("a")[2])
            assert not parsed.notices
            assert parsed.ideal.q == len(case.ideal)


@pytest.mark.parametrize("q", range(3, 13))
def test_cycle_closed_form_matches_both_routes(q):
    ideal, expect = workloads.cycle_ideal(random.Random(q), q)
    parsed = parse_ideal(workloads.render(ideal, "a"))
    assert multiplicity_ps(parsed) == multiplicity_associativity(parsed) == expect[1]


@pytest.mark.parametrize(
    "make, sizes",
    [
        (workloads.codim1_ideal, range(2, 7)),
        (workloads.ci_ideal, range(2, 6)),
        (workloads.stem_ideal, range(2, 6)),
        (workloads.aci_ideal, range(3, 7)),
        (workloads.split_ideal, range(3, 6)),
        (workloads.quadratic_ideal, range(2, 7)),
        (lambda r, q: workloads.box_ideal(r, 400, 3, 2, 0.5), range(1)),
        (lambda r, q: workloads.box_ideal(r, 600, 4, 4, 0.25), range(1)),
    ],
)
def test_closed_forms_match_the_program(make, sizes):
    rng = random.Random(11)
    for q in sizes:
        for _ in range(4):
            ideal, expect = make(rng, q)
            assert expect[0] == "value"
            parsed = parse_ideal(workloads.render(ideal, "a"))
            assert multiplicity_ps(parsed) == multiplicity_associativity(parsed) == expect[1]


def test_checker_accepts_right_answers_and_flags_a_doctored_multiplicity():
    case = workloads.Case("multiplicity", *workloads.cycle_ideal(random.Random(1), 7))
    code, output = _call(case.argv("a"))
    assert workloads.check(case, code, output) is None

    doc = json.loads(output)
    doc["result"]["multiplicity"] += 1
    assert "routes" in workloads.check(case, code, json.dumps(doc))
    doc = json.loads(output)
    for field in [doc["result"]] + doc["checks"]:
        field["multiplicity" if "multiplicity" in field else "value"] = 8
    assert "expected" in workloads.check(case, code, json.dumps(doc))


def test_checker_flags_disagreement_and_nonzero_exit():
    case = workloads.Case("verify", *workloads.unstructured_ideal(random.Random(2), 5, 4))
    code, output = _call(case.argv("a"))
    assert workloads.check(case, code, output) is None
    assert workloads.check(case, 5, output) == "exit code 5"
    doc = json.loads(output)
    doc["agreement"] = False
    assert workloads.check(case, code, json.dumps(doc)) == "routes disagree"
    doc["agreement"] = True
    doc["checks"] = doc["checks"][:1]
    assert "fewer than two" in workloads.check(case, code, json.dumps(doc))


def test_checker_flags_wrong_ranks():
    for command in ("betti", "taylor"):
        case = workloads.Case(command, *workloads.dominant_ideal(random.Random(3), 5))
        code, output = _call(case.argv("a"))
        assert workloads.check(case, code, output) is None
        doc = json.loads(output)
        doc["result"]["ranks"][2] += 1
        assert "ranks" in workloads.check(case, code, json.dumps(doc))


def test_tracer_leaves_no_unwrapped_reference_and_restores():
    originals = {
        id(getattr(sys.modules[f"multmon.{layer}"], name))
        for layer, names in tracer.TRACED.items()
        for name in names
    }
    modules = [m for n, m in sys.modules.items() if n == "multmon" or n.startswith("multmon.")]
    before = {(m.__name__, a): v for m in modules for a, v in vars(m).items() if id(v) in originals}
    assert ("multmon.formulas", "codim") in before  # imported by name elsewhere

    t = tracer.Tracer()
    t.install()
    try:
        for module in modules:
            for attr, value in vars(module).items():
                assert id(value) not in originals, f"{module.__name__}.{attr} is unwrapped"
        code, _ = _call(["multiplicity", "--ideal", "tq1*tq2, tq2*tq3, tq3*tq4, tq4*tq1", "--check"])
    finally:
        t.uninstall()
    assert code == 0
    assert {(m.__name__, a): v for m in modules for a, v in vars(m).items() if id(v) in originals} == before

    times = t.self_times()
    assert times["cli.main"][0] == 1
    assert times["invariants.codim"][0] > 1
    total = sum(span[tracer.END] - span[tracer.START] for span in t.spans if span[tracer.PARENT] < 0)
    assert math.isclose(sum(s for _, s in times.values()), total, rel_tol=1e-9)
    metrics = tracer.layer_metrics(t, 1, 100, 0.0)
    assert list(metrics) == list(tracer.LAYER_METRICS)
    assert metrics["taylor.faces"] == 16  # one degree table over 2^4 faces
    assert metrics["oracle.covers"] == 2 and metrics["oracle.cover_candidates"] == 6
    assert metrics["oracle.grid_points"] == 2 and metrics["oracle.colength_yield"] == 1.0


def test_grid_points_follow_the_oracle_definition():
    ideal = parse_ideal("x^3, y^4, x*y, x^2*y^5")
    assert tracer.grid_points(ideal, frozenset(range(2))) == 12


def test_tail_has_ten_samples_beyond():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0, 10)
    assert run.tail([3.0, 1.0]) == (3.0, 100.0, 0)


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.LAYER_METRICS
    assert spec["run_seconds"] == workloads.NOMINAL_SECONDS
