"""Per-layer tracing from outside the program.

The tracer replaces the public functions of each sinkgames module with
wrappers that record a span per call. Callers look these names up in their
own module (``from .valuation import solve_values`` copies the reference),
so every module attribute that holds the original function is patched, and
methods are patched on their class. Spans nest on one stack: a span's self
time is its duration minus the time of the spans called inside it.

Observers read counts off arguments and results, such as iterations from
a ``SolveResult``. A target that no longer exists, or an observer that can
no longer read its result, makes the metrics built on it ``missing``.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

Observer = Callable[[dict[str, float], tuple, dict, Any], None]


def _solve_counts(counts: dict[str, float], args: tuple, kwargs: dict, result: Any) -> None:
    records = result.trace.iterations
    counts["solvers.iterations"] += result.iterations
    counts["solvers.passes"] += len(records)
    counts["solvers.improving_edges"] += sum(r.improving_sigma + r.improving_tau for r in records)
    counts["solvers.candidates"] += sum(r.candidates for r in records)
    counts["solvers.switches"] += sum(len(r.switches) for r in records)


def _select_counts(counts: dict[str, float], args: tuple, kwargs: dict, result: Any) -> None:
    counts["rules.select.offered"] += len(args[0])
    counts["rules.select.chosen"] += len(result)


def _code_bits(counts: dict[str, float], args: tuple, kwargs: dict, result: Any) -> None:
    codec = args[0]
    counts["playvalues.code_bits"] = max(counts["playvalues.code_bits"], codec.pos_code.bit_length())


def _nodes_out(counts: dict[str, float], args: tuple, kwargs: dict, result: Any) -> None:
    counts["reduction.reduce_game.nodes_out"] += result[0].num_nodes


def _text_in(key: str) -> Observer:
    def observe(counts: dict[str, float], args: tuple, kwargs: dict, result: Any) -> None:
        counts[key] += len(args[0].encode())

    return observe


def _text_out(key: str) -> Observer:
    def observe(counts: dict[str, float], args: tuple, kwargs: dict, result: Any) -> None:
        counts[key] += len(result.encode())

    return observe


@dataclass(frozen=True)
class Point:
    """A wrapped name: ``attr`` is a module attribute or ``Class.method``.
    With ``rule_factory`` the wrapped call builds an ``ImprovementRule`` and
    the span goes around the rule's ``select``."""

    span: str
    module: str
    attr: str
    observe: Observer | None = None
    rule_factory: bool = False


POINTS = (
    Point("valuation.solve_values", "sinkgames.valuation", "solve_values"),
    Point("valuation.counter_choices", "sinkgames.valuation", "counter_choices"),
    Point("valuation.valuate", "sinkgames.valuation", "valuate"),
    Point("valuation.valuation_from_codes", "sinkgames.valuation", "valuation_from_codes"),
    Point("valuation.game_index", "sinkgames.valuation", "game_index"),
    Point("valuation.game_index.build", "sinkgames.valuation", "GameIndex.__init__"),
    Point("playvalues.decode", "sinkgames.playvalues", "ValueCodec.decode"),
    Point("playvalues.codec", "sinkgames.playvalues", "ValueCodec.__init__", _code_bits),
    Point("solvers.run", "sinkgames.solvers", "run_si", _solve_counts),
    Point("solvers.run", "sinkgames.solvers", "run_ssi", _solve_counts),
    Point("solvers.run", "sinkgames.solvers", "run_gssi", _solve_counts),
    Point("solvers.verify_optimal", "sinkgames.solvers", "verify_optimal"),
    Point("rules.select", "sinkgames.rules", "switch_all_rule", _select_counts, True),
    Point("rules.select", "sinkgames.rules", "single_lowest_rule", _select_counts, True),
    Point("rules.select", "sinkgames.rules", "random_subset_rule", _select_counts, True),
    Point("reduction.reduce_game", "sinkgames.reduction", "reduce_game", _nodes_out),
    Point("reduction.extract_winners", "sinkgames.reduction", "extract_winners"),
    Point("pgsolver.parse", "sinkgames.pgsolver", "parse_pgsolver", _text_in("pgsolver.parse.bytes")),
    Point("pgsolver.write", "sinkgames.pgsolver", "write_pgsolver", _text_out("pgsolver.write.bytes")),
    Point("traces.certificate_status", "sinkgames.traces", "certificate_status"),
    Point("traces.serialize", "sinkgames.traces", "to_csv", _text_out("traces.serialize.bytes")),
    Point("traces.serialize", "sinkgames.traces", "to_json", _text_out("traces.serialize.bytes")),
    Point("families.generate", "sinkgames.families", "generate"),
    Point("cli.main", "sinkgames.cli", "main"),
)


def _calls(span: str) -> Callable[[dict], float]:
    return lambda job: job["calls"][span]


def _total(span: str) -> Callable[[dict], float]:
    return lambda job: job["total"][span]


def _self(span: str) -> Callable[[dict], float]:
    return lambda job: job["self"][span]


def _count(key: str) -> Callable[[dict], float]:
    return lambda job: job["counts"][key]


# name -> (unit, spans it needs, per-job value); a ratio's base is listed too
METRICS: dict[str, tuple[str, tuple[str, ...], Callable[[dict], float]]] = {
    "valuation.solve_values.calls": ("count", ("valuation.solve_values",), _calls("valuation.solve_values")),
    "valuation.solve_values.total_s": ("s", ("valuation.solve_values",), _total("valuation.solve_values")),
    "valuation.counter_choices.calls": ("count", ("valuation.counter_choices",), _calls("valuation.counter_choices")),
    "valuation.counter_choices.total_s": ("s", ("valuation.counter_choices",), _total("valuation.counter_choices")),
    "valuation.valuate.calls": ("count", ("valuation.valuate",), _calls("valuation.valuate")),
    "valuation.valuate.self_s": ("s", ("valuation.valuate",), _self("valuation.valuate")),
    "valuation.valuation_from_codes.total_s": (
        "s", ("valuation.valuation_from_codes",), _total("valuation.valuation_from_codes")),
    "valuation.game_index.calls": ("count", ("valuation.game_index",), _calls("valuation.game_index")),
    "valuation.game_index.builds": ("count", ("valuation.game_index.build",), _calls("valuation.game_index.build")),
    "valuation.game_index.build_s": ("s", ("valuation.game_index.build",), _total("valuation.game_index.build")),
    "playvalues.decode.calls": ("count", ("playvalues.decode",), _calls("playvalues.decode")),
    "playvalues.decode.total_s": ("s", ("playvalues.decode",), _total("playvalues.decode")),
    "playvalues.code_bits": ("bits", ("playvalues.codec",), _count("playvalues.code_bits")),
    "solvers.run.calls": ("count", ("solvers.run",), _calls("solvers.run")),
    "solvers.run.self_s": ("s", ("solvers.run",), _self("solvers.run")),
    "solvers.verify_optimal.calls": ("count", ("solvers.verify_optimal",), _calls("solvers.verify_optimal")),
    "solvers.verify_optimal.self_s": ("s", ("solvers.verify_optimal",), _self("solvers.verify_optimal")),
    "solvers.iterations": ("count", ("solvers.run",), _count("solvers.iterations")),
    "solvers.passes": ("count", ("solvers.run",), _count("solvers.passes")),
    "solvers.improving_edges": ("count", ("solvers.run",), _count("solvers.improving_edges")),
    "solvers.candidates": ("count", ("solvers.run",), _count("solvers.candidates")),
    "solvers.switches": ("count", ("solvers.run",), _count("solvers.switches")),
    "rules.select.calls": ("count", ("rules.select",), _calls("rules.select")),
    "rules.select.total_s": ("s", ("rules.select",), _total("rules.select")),
    "rules.select.offered": ("count", ("rules.select",), _count("rules.select.offered")),
    "rules.select.chosen": ("count", ("rules.select",), _count("rules.select.chosen")),
    "reduction.reduce_game.total_s": ("s", ("reduction.reduce_game",), _total("reduction.reduce_game")),
    "reduction.reduce_game.nodes_out": ("count", ("reduction.reduce_game",), _count("reduction.reduce_game.nodes_out")),
    "reduction.extract_winners.self_s": ("s", ("reduction.extract_winners",), _self("reduction.extract_winners")),
    "pgsolver.parse.total_s": ("s", ("pgsolver.parse",), _total("pgsolver.parse")),
    "pgsolver.parse.bytes": ("bytes", ("pgsolver.parse",), _count("pgsolver.parse.bytes")),
    "pgsolver.write.total_s": ("s", ("pgsolver.write",), _total("pgsolver.write")),
    "pgsolver.write.bytes": ("bytes", ("pgsolver.write",), _count("pgsolver.write.bytes")),
    "traces.certificate_status.total_s": (
        "s", ("traces.certificate_status",), _total("traces.certificate_status")),
    "traces.serialize.total_s": ("s", ("traces.serialize",), _total("traces.serialize")),
    "traces.serialize.bytes": ("bytes", ("traces.serialize",), _count("traces.serialize.bytes")),
    "families.generate.total_s": ("s", ("families.generate",), _total("families.generate")),
    "cli.main.self_s": ("s", ("cli.main",), _self("cli.main")),
}

# name -> (unit, numerator, denominator), both summed over the traced jobs
RATIOS = {
    "solvers.filter_keep_ratio": ("ratio", "solvers.candidates", "solvers.improving_edges"),
    "rules.select.chosen_ratio": ("ratio", "rules.select.chosen", "rules.select.offered"),
}


def _resolve(point: Point) -> tuple[Any, str, Any] | None:
    """(owner object, attribute name, current value) of a point, or None
    when the module, class or attribute does not exist."""
    owner = sys.modules.get(point.module)
    *path, name = point.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or not callable(getattr(owner, name, None)):
        return None
    return owner, name, getattr(owner, name)


class Tracer:
    """Installs the span wrappers and collects one record per job."""

    def __init__(self, points: tuple[Point, ...] = POINTS):
        self.points = points
        self.missing: set[str] = set()
        self._patched: list[tuple[Any, str, Any]] = []
        self._stack: list[list[float]] = []
        self._job = self._empty()

    @staticmethod
    def _empty() -> dict[str, dict[str, float]]:
        return {key: defaultdict(float) for key in ("calls", "total", "self", "counts")}

    def _span(self, span: str, fn: Callable, observe: Observer | None) -> Callable:
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                job = self._job
                job["calls"][span] += 1
                job["total"][span] += duration
                job["self"][span] += duration - frame[0]
            if observe is not None and span not in self.missing:
                try:
                    observe(job["counts"], args, kwargs, result)
                except (AttributeError, TypeError, IndexError):
                    self.missing.add(span)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _rule_factory(self, point: Point, factory: Callable) -> Callable:
        def make(*args, **kwargs):
            rule = factory(*args, **kwargs)
            try:
                select = self._span(point.span, rule.select, point.observe)
                return dataclasses.replace(rule, select=select)
            except (AttributeError, TypeError):
                self.missing.add(point.span)
                return rule

        return make

    def install(self) -> None:
        for point in self.points:
            found = _resolve(point)
            if found is None:
                self.missing.add(point.span)
                continue
            owner, name, original = found
            if point.rule_factory:
                wrapper = self._rule_factory(point, original)
            else:
                wrapper = self._span(point.span, original, point.observe)
            if isinstance(owner, type):
                self._patch(owner, name, original, wrapper)
                continue
            # every module that imported the function holds its own reference
            for mod_name, module in list(sys.modules.items()):
                if mod_name == "sinkgames" or mod_name.startswith("sinkgames."):
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, original, wrapper)

    def _patch(self, owner: Any, name: str, original: Any, wrapper: Callable) -> None:
        self._patched.append((owner, name, original))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def take_job(self) -> dict[str, dict[str, float]]:
        """The record of the spans since the last call, which ends a job."""
        job, self._job = self._job, self._empty()
        return job


def layer_metrics(jobs: list[dict], missing: set[str]) -> dict[str, dict]:
    """Per-job means of every layer metric over the traced jobs; ratios are
    of sums. A metric whose span is missing has value None."""
    out: dict[str, dict] = {}
    for name, (unit, spans, value) in METRICS.items():
        if missing.intersection(spans):
            out[name] = {"value": None, "unit": unit, "missing": True}
        else:
            out[name] = {"value": sum(value(job) for job in jobs) / len(jobs), "unit": unit}
    for name, (unit, num, den) in RATIOS.items():
        if out[num]["value"] is None or out[den]["value"] is None:
            out[name] = {"value": None, "unit": unit, "missing": True}
        else:
            base = out[den]["value"]
            out[name] = {"value": out[num]["value"] / base if base else 0.0, "unit": unit}
    return out


# per-job values that must repeat exactly on every job of one input
EXACT = tuple(name for name, (unit, _, _) in METRICS.items() if unit in ("count", "bits", "bytes"))


def exact_counts(job: dict, missing: set[str]) -> tuple:
    return tuple(
        None if missing.intersection(METRICS[name][1]) else METRICS[name][2](job) for name in EXACT
    )
