"""Tests of the benchmark harness: tracing must not change what the program
prints, must leave no wrapper behind and must count deterministically;
set-up must depend on the seed alone; the output checks must reject wrong
answers."""

from __future__ import annotations

import json
import re
import signal
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import forbidposet  # noqa: E402
import forbidposet.cli  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402

# The cheap operations of each workload; together they cross every layer.
CHEAP = {
    "search": ("j_config_n4",),
    "check": ("kt_pair_mid12_2", "diamond4_sub10_4"),
    "audit": ("lubell_random0", "exact_lubell_mid16_4", "weighted_mid16_4", "slemma_kt8",
              "alpha_kt8", "bound_kt", "bound_glu_diamond"),
}
DETERMINISTIC = ("search.nodes", "search.prunes", "search.addable_calls",
                 "detector.search_calls", "audits.trials")
WALL_TIME = re.compile(r'"wall_time": [-+0-9.e]+')


@pytest.fixture(scope="module")
def plans(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    return {w: workloads.setup(w, 7, root / w, forbidposet) for w in workloads.WORKLOADS}


@pytest.fixture(scope="module")
def cheap_ops(plans):
    ops = [op for w, plan in plans.items() for op in plan.ops if op.label in CHEAP[w]]
    assert len(ops) == sum(len(v) for v in CHEAP.values())
    return ops


@pytest.fixture(scope="module")
def runs(cheap_ops):
    """One untraced pass (sampling the reference loop, as measured runs do)
    and two traced passes over the cheap operations."""
    main = forbidposet.cli.main
    untraced = [harness.run_op(main, op, sample_reference=True) for op in cheap_ops]
    traced = [[harness.run_op(main, op, harness.Tracer()) for op in cheap_ops] for _ in range(2)]
    return untraced, traced


def test_setup_checks_pass(plans):
    for plan in plans.values():
        assert [check() for check in plan.checks] == [None] * len(plan.checks)


def test_outputs_identical_with_and_without_tracing(runs):
    untraced, traced = runs
    for plain, with_trace in zip(untraced, traced[0]):
        assert plain.error is None, (plain.op.label, plain.error)
        assert plain.ref_wall > 0 and plain.ref_cpu > 0
        assert with_trace.error is None, (with_trace.op.label, with_trace.error)
        assert WALL_TIME.sub("", plain.stdout) == WALL_TIME.sub("", with_trace.stdout)


def test_deterministic_counters_repeat(runs):
    _, traced = runs
    first, second = (
        harness.layer_metrics(rnd, workloads.SEARCH_LABELS, workloads.CHECK_LABELS) for rnd in traced
    )
    for name in DETERMINISTIC:
        assert first[name] == second[name] > 0, name


def _current(boundary):
    module_name, _, path = boundary.target.partition(":")
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner.__dict__[attr]


def test_wrappers_removed_after_traced_run(runs):
    before = [_current(b) for b in harness.BOUNDARIES]
    assert all(getattr(fn, "__func__", fn).__module__.startswith("forbidposet.") for fn in before)

    def crash(argv):
        raise RuntimeError("boom")

    rc, _, err = harness.call_cli(crash, ["x"], harness.Tracer())
    assert rc == -1 and "boom" in err
    assert [_current(b) for b in harness.BOUNDARIES] == before


def test_tracer_sees_every_layer(runs):
    _, traced = runs
    names = {name for r in traced[0] for name, _ in r.stats}
    for layer in ("cli", "search", "detector", "lattice", "configs", "audits", "bounds"):
        assert any(n.startswith(layer + ".") for n in names), layer


def test_setup_depends_only_on_seed(tmp_path):
    def files(seed, sub):
        workloads.setup("check", seed, tmp_path / sub, forbidposet)
        workloads.setup("audit", seed, tmp_path / sub, forbidposet)
        return {p.name: p.read_bytes() for p in (tmp_path / sub).iterdir()}

    first, again, other = files(3, "a"), files(3, "b"), files(4, "c")
    assert first == again
    for name in ("sub10_4.txt", "sub12_2.txt", "random0.txt"):
        assert first[name] != other[name], name


def test_verifiers_reject_wrong_answers(plans, runs):
    untraced, _ = runs
    good = {r.op.label: (r.op, r.output) for r in untraced}

    op, out = good["j_config_n4"]
    assert op.verify(dict(out, best_size=out["best_size"] - 1)) is not None
    assert op.verify(dict(out, status="lower-bound-only")) is not None
    op, out = good["kt_pair_mid12_2"]
    assert op.verify(dict(out, avoiding=True, violation=None)) is not None
    bad = dict(out["violation"], assignment=out["violation"]["assignment"][::-1])
    assert op.verify(dict(out, violation=bad)) is not None
    op, out = good["lubell_random0"]
    assert op.verify(dict(out, exact_target="1/3")) is not None
    assert op.verify(dict(out, within_5_sigma=False)) is not None
    op, out = good["bound_kt"]
    assert op.verify(dict(out, value=str(int(out["value"]) + 1))) is not None


def test_declared_metrics_match_harness_and_design(runs):
    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    design = json.loads((root / "benchmarks" / "design.json").read_text())
    declared = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert sorted(declared) == sorted(design["metrics"])
    _, traced = runs
    computed = harness.layer_metrics(traced[0], workloads.SEARCH_LABELS, workloads.CHECK_LABELS)
    run_level = {"constructions.build_s", "trace.overhead_s"}
    assert set(computed) | run_level == {m["name"] for m in spec["per_layer"]}


def test_end_to_end_takes_per_operation_medians_in_reference_units():
    def result(label, argv, wall, ref):
        op = harness.Op(label, argv, lambda out: None)
        return harness.OpResult(op, "", wall, wall / 2, None, None, None, ref_wall=ref, ref_cpu=ref / 2)

    lubell = ("audit", "lubell", "--trials", "1000")
    rounds = [
        [result("a", ("bound",), 1.0, 0.01), result("b", lubell, 2.0, 0.01)],
        [result("a", ("bound",), 3.0, 0.03), result("b", lubell, 4.0, 0.01)],
        [result("a", ("bound",), 2.0, 0.01), result("b", lubell, 6.0, 0.03)],
    ]
    m = harness.end_to_end(rounds)
    assert m["wall_s"] == pytest.approx(2.0 + 4.0)
    assert m["cpu_s"] == pytest.approx(1.0 + 2.0)
    assert m["wall_ref"] == pytest.approx(100.0 + 200.0)
    assert m["cpu_ref"] == pytest.approx(100.0 + 200.0)
    assert m["lubell_trials_per_s"] == pytest.approx(1000 / 4.0)


def test_reference_sampler_leaves_no_timer(runs):
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) in (signal.SIG_DFL, None)
