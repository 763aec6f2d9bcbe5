"""Measurement core of the benchmark.

Every operation is one in-process call of ``forbidposet.cli.main(argv)``
with stdout captured; its output is parsed and checked after the timed span
ends.  The loop is closed: one client issues one operation, waits for its
result, checks it, then issues the next.

The per-layer breakdown comes from a ``Tracer`` that replaces the public
entry points of each layer, at the module attribute its caller looks up,
with timing wrappers for the length of one operation.  Nothing in the
package itself changes, and the wrappers are gone again when the operation
returns.

Untraced operations are also timed against a fixed reference loop (see
``ReferenceSampler``), which yields costs that the host's speed drift
cancels out of.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import signal
import sys
import time
import traceback
from dataclasses import dataclass
from operator import attrgetter
from statistics import fmean, median
from typing import Callable

PACKAGE = "forbidposet"


def fresh_import():
    """Import the package from scratch, as a new CLI process would."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.import_module(PACKAGE + ".cli")
    return sys.modules[PACKAGE]


# -- tracing -----------------------------------------------------------------


@dataclass(frozen=True)
class Boundary:
    """One wrapped entry point.  ``target`` is "module:attr" or
    "module:Class.attr"; several targets may share a span name.  A hot
    boundary is only aggregated (count and summed time), never recorded as
    individual spans.  ``tally`` maps a call's result to a number that is
    summed per span name, e.g. the sets a parse returned."""

    target: str
    name: str
    hot: bool = False
    tally: Callable | None = None


# Each entry point is wrapped where its caller looks it up, so the span sits
# on the boundary between the two layers.
BOUNDARIES = (
    Boundary("forbidposet.cli:exact_max_family", "search.exact_max_family"),
    Boundary("forbidposet.search:_hits_with_member", "detector.hits_with_member", hot=True, tally=bool),
    Boundary("forbidposet.search:is_avoiding", "detector.is_avoiding"),
    Boundary("forbidposet.audits:is_avoiding", "detector.is_avoiding"),
    Boundary("forbidposet.cli:find_violation", "detector.find_violation"),
    Boundary("forbidposet.detector:_search", "detector._search", hot=True),
    Boundary("forbidposet.lattice:Family.loads", "lattice.family_load", tally=len),
    Boundary("forbidposet.cli:lubell", "lattice.lubell"),
    Boundary("forbidposet.audits:lubell", "lattice.lubell"),
    Boundary("forbidposet.cli:load_config", "configs.load"),
    Boundary("forbidposet.cli:parse_config_id", "configs.load"),
    Boundary("forbidposet.cli:build_named", "configs.load"),
    Boundary("forbidposet.cli:kt_construction", "constructions.build"),
    Boundary("forbidposet.cli:middle_levels", "constructions.build"),
    Boundary("forbidposet.cli:diamond_levels", "constructions.build"),
    Boundary("forbidposet.cli:complement_family", "constructions.build"),
    Boundary("forbidposet.cli:estimate_lubell", "audits.estimate_lubell", tally=attrgetter("trials")),
    Boundary("forbidposet.cli:weighted_chain_average", "audits.exact"),
    Boundary("forbidposet.cli:audit_S_lemma", "audits.exact"),
    Boundary("forbidposet.cli:alpha_audit", "audits.exact"),
    Boundary("forbidposet.cli:audit_fork_lambda", "audits.exact"),
    Boundary("forbidposet.cli:evaluate_bound", "bounds.evaluate"),
)

ROOT_SPAN = "cli.main"

# Per-call statistics: [calls, seconds, seconds in child spans, tally].
Stats = dict[tuple[str, str | None], list]


class Tracer:
    """Span recorder for the boundaries above.

    Statistics are keyed by (span name, parent span name) and collected per
    operation (``take``).  Spans of non-hot boundaries are also kept in
    memory as (operation, name, parent, start, end) and written out by the
    caller when the run ends.  Self time is a span minus its children.
    """

    def __init__(self):
        self.stats: Stats = {}
        self.spans: list[tuple] = []
        self.op: str | None = None
        self._stack: list[list] = []
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn, hot: bool = False, tally=None):
        stack, stats, spans, clock = self._stack, self.stats, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                if parent is not None:
                    parent[1] += dt
                key = (name, parent[0] if parent is not None else None)
                entry = stats.get(key)
                if entry is None:
                    entry = stats[key] = [0, 0.0, 0.0, 0]
                entry[0] += 1
                entry[1] += dt
                entry[2] += frame[1]
                if not hot:
                    spans.append((self.op, name, key[1], t0, t1))
            if tally is not None:
                entry[3] += tally(result)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for b in BOUNDARIES:
            module_name, _, path = b.target.partition(":")
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(b.name, raw.__func__, b.hot, b.tally))
            else:
                wrapped = self._wrap(b.name, raw, b.hot, b.tally)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def call(self, fn, *args):
        """Run ``fn`` as the root span of one operation."""
        return self._wrap(ROOT_SPAN, fn)(*args)

    def take(self) -> Stats:
        """Statistics since the last ``take``."""
        stats = dict(self.stats)
        self.stats.clear()
        return stats


_ANY = object()


def stat_sum(stats_list, name: str, field: int, parent=_ANY) -> float:
    """Sum one field of a span name over several operations' statistics,
    optionally only under one parent span name."""
    total = 0
    for stats in stats_list:
        for (n, p), entry in stats.items():
            if n == name and (parent is _ANY or p == parent):
                total += entry[field]
    return total


CALLS, SECONDS, CHILD, TALLY = range(4)


def self_seconds(stats_list, name: str) -> float:
    return stat_sum(stats_list, name, SECONDS) - stat_sum(stats_list, name, CHILD)


# -- reference loop ----------------------------------------------------------

# The host's speed drifts by tens of percent over seconds to minutes (other
# tenants share the cores).  A fixed pure-Python loop, timed just before and
# just after each untraced operation and every SAMPLE_PERIOD seconds while it
# runs, measures that speed; the operation's time divided by the loop's mean
# time is a cost from which the drift cancels.  The loop runs no forbidposet
# code, so no change to the package can move it.
_REFERENCE_SET = frozenset(range(0, 4096, 3))
SAMPLE_PERIOD = 0.1
BRACKET_PASSES = 2


def _reference_loop() -> int:
    hits, sizes = 0, []
    for m in range(4096):
        if m & (m >> 1) and m in _REFERENCE_SET:
            hits += 1
            sizes.append(m.bit_count())
    return hits + len(sizes)


class ReferenceSampler:
    """Reference-loop timings around and during one operation.  Passes taken
    during it (from a SIGALRM handler) are summed in ``spent_*`` so the
    caller can take them out of the operation's own times."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.spent_wall = self.spent_cpu = 0.0

    def _pass(self) -> tuple[float, float]:
        t0, c0 = time.perf_counter(), time.process_time()
        _reference_loop()
        sample = (time.perf_counter() - t0, time.process_time() - c0)
        self.samples.append(sample)
        return sample

    def _on_alarm(self, signum, frame) -> None:
        wall, cpu = self._pass()
        self.spent_wall += wall
        self.spent_cpu += cpu

    @contextlib.contextmanager
    def running(self):
        for _ in range(BRACKET_PASSES):
            self._pass()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            for _ in range(BRACKET_PASSES):
                self._pass()

    def speed(self) -> tuple[float, float]:
        """Mean (wall, cpu) seconds of one pass, leaving out passes slowed
        more than threefold, which were preempted."""
        cutoff = 3 * median(w for w, _ in self.samples)
        kept = [s for s in self.samples if s[0] <= cutoff]
        return fmean(w for w, _ in kept), fmean(c for _, c in kept)


# -- operations --------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One CLI operation.  ``label`` names the instance in per-instance
    metrics; ``verify`` returns an error message for a wrong output, or None."""

    label: str
    argv: tuple[str, ...]
    verify: Callable[[dict], str | None]


@dataclass
class OpResult:
    op: Op
    stdout: str
    wall: float
    cpu: float
    output: dict | None
    error: str | None
    stats: Stats | None
    ref_wall: float = 0.0  # seconds per reference-loop pass during the operation
    ref_cpu: float = 0.0


def call_cli(main, argv, tracer: Tracer | None = None) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process CLI call; a crash is
    exit code -1 with the traceback as stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if tracer is None:
                rc = main(list(argv))
            else:
                with tracer.installed():
                    rc = tracer.call(main, list(argv))
        except Exception:  # a crashing operation is counted as failed; the run goes on
            traceback.print_exc()
            rc = -1
    return rc, out.getvalue(), err.getvalue()


def run_op(main, op: Op, tracer: Tracer | None = None, sample_reference: bool = False) -> OpResult:
    """Run, time and check one operation; the check is outside the timed
    span.  With ``sample_reference`` the result also carries the reference
    loop's speed over the operation."""
    if tracer is not None:
        tracer.op = op.label
    sampler = ReferenceSampler()
    with sampler.running() if sample_reference else contextlib.nullcontext():
        t0, c0 = time.perf_counter(), time.process_time()
        rc, stdout, stderr = call_cli(main, op.argv, tracer)
        wall = time.perf_counter() - t0 - sampler.spent_wall
        cpu = time.process_time() - c0 - sampler.spent_cpu
    ref_wall, ref_cpu = sampler.speed() if sample_reference else (0.0, 0.0)
    stats = tracer.take() if tracer is not None else None
    output = error = None
    if rc != 0:
        error = f"exit code {rc}: {stderr.strip()[-800:]}"
    else:
        try:
            output = json.loads(stdout)
        except ValueError:
            error = "stdout is not one JSON object"
        else:
            try:
                error = op.verify(output)
            except (KeyError, TypeError, ValueError) as exc:
                error = f"malformed output: {exc!r}"
    return OpResult(op, stdout, wall, cpu, output, error, stats, ref_wall, ref_cpu)


def measure(main, ops, seconds: float, tracer: Tracer | None = None):
    """Closed-loop rounds over ``ops`` until the next round would end past
    ``seconds``; at least one round.  Untraced operations sample the
    reference loop.  With a tracer, every untraced round is followed by a
    traced one.  Returns (untraced rounds, traced rounds)."""
    untraced: list[list[OpResult]] = []
    traced: list[list[OpResult]] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        untraced.append([run_op(main, op, sample_reference=True) for op in ops])
        if tracer is not None:
            traced.append([run_op(main, op, tracer) for op in ops])
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return untraced, traced


# -- metrics -----------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def typical(rounds: list[list[OpResult]], value) -> float:
    """A typical round: the sum over its operations of each one's median
    ``value`` across rounds."""
    return sum(median(value(r) for r in col) for col in zip(*rounds))


def end_to_end(rounds: list[list[OpResult]]) -> dict[str, float]:
    """End-to-end figures of the untraced rounds: raw seconds, and the same
    in reference-loop units (``*_ref``)."""
    m = {
        "wall_s": typical(rounds, lambda r: r.wall),
        "cpu_s": typical(rounds, lambda r: r.cpu),
        "wall_ref": typical(rounds, lambda r: r.wall / r.ref_wall),
        "cpu_ref": typical(rounds, lambda r: r.cpu / r.ref_cpu),
    }
    lubell = [col for col in zip(*rounds) if col[0].op.argv[:2] == ("audit", "lubell")]
    if lubell:
        trials = sum(int(col[0].op.argv[col[0].op.argv.index("--trials") + 1]) for col in lubell)
        m["lubell_trials_per_s"] = trials / sum(median(r.wall for r in col) for col in lubell)
    return m


def layer_metrics(results: list[OpResult], search_labels, check_labels) -> dict[str, float]:
    """Per-layer figures of one traced round.  Every name is present for
    every workload; a layer the workload does not run reads 0."""
    all_stats = [r.stats for r in results]
    searches = [r for r in results if r.op.argv[0] == "search" and r.output]
    nodes = sum(r.output["nodes"] for r in searches)
    prunes = sum(r.output["prunes"] for r in searches)
    search_s = stat_sum(all_stats, "search.exact_max_family", SECONDS)
    addable = stat_sum(all_stats, "detector.hits_with_member", CALLS)
    detector_calls = stat_sum(all_stats, "detector._search", CALLS)
    trials = stat_sum(all_stats, "audits.estimate_lubell", TALLY)
    bound_calls = stat_sum(all_stats, "bounds.evaluate", CALLS)
    m = {
        "search.nodes": nodes,
        "search.prunes": prunes,
        "search.prune_ratio": _ratio(prunes, nodes),
        "search.addable_calls": addable,
        "search.addable_reject_ratio": _ratio(
            stat_sum(all_stats, "detector.hits_with_member", TALLY), addable
        ),
        "search.self_s": self_seconds(all_stats, "search.exact_max_family"),
        "search.detector_s": stat_sum(all_stats, "search.exact_max_family", CHILD),
        "search.nodes_per_s": _ratio(nodes, search_s),
        "detector.search_calls": detector_calls,
        "detector.us_per_call": 1e6 * _ratio(
            stat_sum(all_stats, "detector._search", SECONDS), detector_calls
        ),
        "detector.calls_per_addable": _ratio(
            stat_sum(all_stats, "detector._search", CALLS, "detector.hits_with_member"), addable
        ),
        "lattice.family_load_s": stat_sum(all_stats, "lattice.family_load", SECONDS),
        "lattice.sets_loaded": stat_sum(all_stats, "lattice.family_load", TALLY),
        "lattice.lubell_exact_s": stat_sum(all_stats, "lattice.lubell", SECONDS),
        "configs.load_s": stat_sum(all_stats, "configs.load", SECONDS),
        "audits.trials": trials,
        "audits.trials_per_s": _ratio(trials, self_seconds(all_stats, "audits.estimate_lubell")),
        "audits.exact_s": stat_sum(all_stats, "audits.exact", SECONDS),
        "bounds.us_per_eval": 1e6 * _ratio(stat_sum(all_stats, "bounds.evaluate", SECONDS), bound_calls),
        "cli.overhead_s": self_seconds(all_stats, ROOT_SPAN),
    }
    by_label = {r.op.label: r for r in results}
    for label in search_labels:
        r = by_label.get(label)
        stats = [r.stats] if r else []
        m[f"search.{label}_s"] = stat_sum(stats, "search.exact_max_family", SECONDS)
        m[f"search.{label}_nodes"] = r.output["nodes"] if r and r.output else 0
        m[f"search.{label}_prunes"] = r.output["prunes"] if r and r.output else 0
        m[f"search.{label}_addable_calls"] = stat_sum(stats, "detector.hits_with_member", CALLS)
    for label in check_labels:
        r = by_label.get(label)
        m[f"detector.{label}_s"] = stat_sum([r.stats] if r else [], "detector.find_violation", SECONDS)
    return m


def medians(per_round: list[dict[str, float]]) -> dict[str, float]:
    return {key: median(d[key] for d in per_round) for key in per_round[0]}
