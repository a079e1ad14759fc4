"""Span tracing of swnopt from the outside.

:class:`Tracer` replaces public functions of the ``swnopt`` modules with
wrappers that record one span per call (name, start, end, parent span, and a
few facts read from the arguments or the result).  Because the package binds
names with ``from .x import y``, each function is replaced in every swnopt
module that holds it, and put back when :meth:`Tracer.installed` exits.  A target
that no longer exists is skipped with a note, so a later refactor that
removes a name yields zero calls instead of a crash.

Spans stay in memory; :func:`layer_metrics` folds them into per-layer
totals, self times and counts.
"""

import statistics
import sys
import time
from contextlib import contextmanager

LAYERS = ("cli", "pnml", "logs", "nets", "semantics", "unfolding", "distances", "optimize")


def _unfold_facts(args, kwargs, result):
    return {"levels": result.levels_explored, "dropped": result.dropped_mass}


def _language_facts(args, kwargs, result):
    return {"traces": len(result.probs), "residual": result.residual}


def _rg_facts(args, kwargs, result):
    return {"states": result.n_states, "arcs": result.n_arcs}


def _cost_facts(args, kwargs, result):
    return {"cells": len(result.rows) * len(result.cols)}


def _lp_facts(args, kwargs, result):
    options = kwargs.get("options") or {}
    return {"vars": len(args[0]), "fallback": options.get("presolve") is False}


def _minimize_facts(args, kwargs, result):
    return {"iterations": result.iterations}


#: (module, attribute, span name, facts extractor)
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("cli", "cmd_discover", "cli.discover", None),
    ("cli", "cmd_evaluate", "cli.evaluate", None),
    ("pnml", "parse_pnml", "pnml.parse", None),
    ("pnml", "write_pnml", "pnml.write", None),
    ("logs", "parse_xes", "logs.parse", None),
    ("logs", "log_language", "logs.language", None),
    ("nets", "validate_workflow", "nets.validate", None),
    ("semantics", "build_rg", "semantics.build_rg", _rg_facts),
    ("semantics", "annotate", "semantics.annotate", None),
    ("unfolding", "trace_probabilities", "unfolding.restricted", _unfold_facts),
    ("unfolding", "unfold_language", "unfolding.language", _language_facts),
    ("distances", "levenshtein_cost_matrix", "distances.cost_matrix", _cost_facts),
    ("distances", "linprog", "distances.lp", _lp_facts),
    ("distances", "log_likelihood_divergence", "distances.lh", None),
    ("distances", "restricted_emd", "distances.remd", None),
    ("distances", "truncated_emd", "distances.temd", None),
    ("optimize", "evaluate_objective", "optimize.eval", None),
    ("optimize", "select_start", "optimize.select_start", None),
    ("optimize", "minimize", "optimize.minimize", _minimize_facts),
    ("optimize", "optimized_weights", "optimize.optimized_weights", None),
)


class Tracer:
    """Records spans while installed and not paused.

    Each span is ``[name, start, end, parent index, facts]``; ``facts`` holds
    the extractor's output, or ``{"raised": <exception class name>}``.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self.notes: list[str] = []
        self._stack: list[int] = []
        self._paused = False

    @contextmanager
    def installed(self):
        """Wrap the targets for the duration of the block, then restore them."""
        modules = [m for name, m in list(sys.modules.items()) if name == "swnopt" or name.startswith("swnopt.")]
        saved = []
        for module_name, attr, span_name, facts in self.targets:
            original = getattr(sys.modules.get(f"swnopt.{module_name}"), attr, None)
            if original is None:
                self.notes.append(f"swnopt.{module_name}.{attr} not found; {span_name} reports no calls")
                continue
            wrapper = self._wrap(original, span_name, facts)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        saved.append((module, name, original))
                        setattr(module, name, wrapper)
        try:
            yield self
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)

    @contextmanager
    def paused(self):
        """Calls made inside run untraced (used around correctness checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _wrap(self, fn, span_name, facts):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = time.perf_counter()
                span[4] = {"raised": type(exc).__name__}
                raise
            finally:
                stack.pop()
            span[2] = time.perf_counter()
            if facts is not None:
                try:
                    span[4] = facts(args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError) as exc:
                    # the traced program's result changed shape; keep running it
                    note = f"{span_name}: facts unavailable ({exc!r})"
                    if note not in self.notes:
                        self.notes.append(note)
            return result

        traced.__wrapped__ = fn
        return traced


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals, self times and counts, plus the named layer facts."""
    n = len(spans)
    child_time = [0.0] * n
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def outermost_in_layer(i: int) -> bool:
        layer = _layer(spans[i][0])
        parent = spans[i][3]
        while parent >= 0:
            if _layer(spans[parent][0]) == layer:
                return False
            parent = spans[parent][3]
        return True

    def has_ancestor(i: int, name: str) -> bool:
        parent = spans[i][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = 0
        m[f"{layer}.total_s"] = 0.0
        m[f"{layer}.self_s"] = 0.0
    by_name: dict[str, list[int]] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        layer = _layer(name)
        m[f"{layer}.calls"] += 1
        m[f"{layer}.self_s"] += (end - start) - child_time[i]
        if outermost_in_layer(i):
            m[f"{layer}.total_s"] += end - start
        by_name.setdefault(name, []).append(i)

    def calls(name):
        return by_name.get(name, [])

    def total(name):
        return sum(spans[i][2] - spans[i][1] for i in calls(name))

    def facts(name, key):
        return [spans[i][4][key] for i in calls(name) if spans[i][4] and key in spans[i][4]]

    def fact_max(name, key):
        return max(facts(name, key), default=0)

    # unfolding
    m["unfolding.restricted_calls"] = len(calls("unfolding.restricted"))
    m["unfolding.restricted_s"] = total("unfolding.restricted")
    m["unfolding.levels_max"] = fact_max("unfolding.restricted", "levels")
    m["unfolding.dropped_mass_max"] = fact_max("unfolding.restricted", "dropped")
    m["unfolding.language_calls"] = len(calls("unfolding.language"))
    m["unfolding.language_s"] = total("unfolding.language")
    m["unfolding.language_traces"] = fact_max("unfolding.language", "traces")
    m["unfolding.residual_max"] = fact_max("unfolding.language", "residual")

    # optimize
    evals = calls("optimize.eval")
    eval_times = [spans[i][2] - spans[i][1] for i in evals]
    m["optimize.evals"] = len(evals)
    m["optimize.evals_start"] = sum(1 for i in evals if has_ancestor(i, "optimize.select_start"))
    m["optimize.evals_local"] = sum(1 for i in evals if has_ancestor(i, "optimize.minimize"))
    m["optimize.iterations"] = sum(facts("optimize.minimize", "iterations"))
    m["optimize.invalid_points"] = sum(
        1 for i in evals if spans[i][4] and spans[i][4].get("raised") == "ZeroModelMass"
    )
    m["optimize.eval_s"] = sum(eval_times)
    m["optimize.eval_ms_p50"] = statistics.median(eval_times) * 1e3 if eval_times else 0.0
    # p99 has at least ten evaluations beyond it once there are 1000
    m["optimize.eval_ms_p99"] = statistics.quantiles(eval_times, n=100)[98] * 1e3 if len(eval_times) >= 1000 else 0.0
    m["optimize.select_start_s"] = total("optimize.select_start")
    m["optimize.minimize_s"] = total("optimize.minimize")
    m["optimize.self_s"] = m["optimize.total_s"] - m["optimize.eval_s"]

    # distances
    m["distances.cost_matrix_calls"] = len(calls("distances.cost_matrix"))
    m["distances.cost_matrix_cells"] = sum(facts("distances.cost_matrix", "cells"))
    m["distances.cost_matrix_s"] = total("distances.cost_matrix")
    m["distances.lp_calls"] = len(calls("distances.lp"))
    m["distances.lp_s"] = total("distances.lp")
    m["distances.lp_fallbacks"] = sum(facts("distances.lp", "fallback"))
    m["distances.lp_vars_max"] = fact_max("distances.lp", "vars")
    m["distances.remd_calls"] = len(calls("distances.remd"))
    m["distances.remd_self_s"] = sum((spans[i][2] - spans[i][1]) - child_time[i] for i in calls("distances.remd"))
    m["distances.lh_s"] = total("distances.lh")
    m["distances.temd_s"] = total("distances.temd")

    # semantics, parsing, validation
    m["semantics.build_rg_s"] = total("semantics.build_rg")
    m["semantics.rg_states"] = fact_max("semantics.build_rg", "states")
    m["semantics.rg_arcs"] = fact_max("semantics.build_rg", "arcs")
    m["semantics.annotate_calls"] = len(calls("semantics.annotate"))
    m["semantics.annotate_s"] = total("semantics.annotate")
    m["pnml.parse_s"] = total("pnml.parse")
    m["pnml.write_s"] = total("pnml.write")
    m["logs.parse_s"] = total("logs.parse")
    m["logs.language_s"] = total("logs.language")
    m["nets.validate_s"] = total("nets.validate")

    # cli: the uniform-weight probe is the unfolding/distance work a command
    # does itself, outside the optimizer
    m["cli.discover_s"] = total("cli.discover")
    m["cli.evaluate_s"] = total("cli.evaluate")
    m["cli.probe_s"] = sum(
        spans[i][2] - spans[i][1]
        for i, (name, _, _, parent, _) in enumerate(spans)
        if parent >= 0 and spans[parent][0] == "cli.discover" and _layer(name) in ("unfolding", "distances")
    )
    return m
