"""Per-layer tracing from outside the program.

The tracer replaces the public functions at each layer boundary of `epmu`
with wrappers that record a span (name, start, end, parent span, query id)
and, where the layer has one, a work count taken from the call's arguments
or result.  A function is replaced under every name it is bound to in any
loaded `epmu` module, so a call from a module that imported it by name is
traced too.  A function that no longer exists is reported as absent with a
reason instead of failing the run.

The per-node evaluators (`eval_closed`, `eval_region`) are not wrapped: they
run millions of times on parity games and their time shows as the self time
of the enclosing span instead.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# span name -> the (module, qualified name) pairs it wraps
LAYERS = {
    "system.parse": [("epmu.system", "parse_system"), ("epmu.translate", "parse_parity_game")],
    "system.construct": [("epmu.system", "MultiAgentSystem.__init__")],
    "system.pullback": [("epmu.system", "InSplitting.pullback")],
    "formula.parse": [("epmu.formula", "parse_formula")],
    "formula.positive_form": [("epmu.formula", "to_positive_form")],
    "syntree.build": [("epmu.syntree", "build_syntree")],
    "syntree.gate": [("epmu.syntree", "check_non_mixing")],
    "translate.encode": [("epmu.translate", "parity_encoding")],
    "translate.compile": [
        ("epmu.translate", "compile_modal"),
        ("epmu.translate", "CompiledModal.compile_formula"),
    ],
    "checker.check": [("epmu.checker", "check")],
    "checker.kleene": [("epmu.checker", "kleene")],
    "checker.modal": [("epmu.checker", "ax_f"), ("epmu.checker", "ex_f")],
    "distinction": [("epmu.distinction", "distinction")],
    "distinction.refine": [("epmu.distinction", "refine_for_agents")],
    "gamma.compute": [("epmu.distinction", "compute_gamma")],
    "gamma.closed_form": [("epmu.distinction", "closed_form_gamma")],
    "knowledge_op": [("epmu.distinction", "know_op"), ("epmu.distinction", "poss_op")],
}

# Spans under which a subset construction serves a fixpoint region rather
# than a closed K/P node.
REGION_PARENTS = ("distinction.refine", "gamma.compute")


def _self(key):
    return lambda self_s, counts: self_s.get(key, 0.0)


def _count(key):
    return lambda self_s, counts: counts.get(key, 0.0)


def _noop_ratio(self_s, counts):
    calls = counts.get("distinction.calls", 0.0)
    return counts.get("distinction.noop", 0.0) / calls if calls else 0.0


# per-layer metric -> (unit, spans it needs, whether it reads the counter
# taken on the first span's return, value from (self times, counts)).
# Times are self times summed over a pass, counts are totals over a pass.
METRICS = {
    "distinction.s": ("s", ("distinction",), False, _self("distinction")),
    "distinction.calls": ("count", ("distinction",), False, _count("distinction.calls")),
    "distinction.states_in": ("count", ("distinction",), True, _count("distinction.states_in")),
    "distinction.states_out": ("count", ("distinction",), True, _count("distinction.states_out")),
    "distinction.max_states": ("count", ("distinction",), True, _count("distinction.max_states")),
    "distinction.noop_ratio": ("ratio", ("distinction",), True, _noop_ratio),
    "distinction.closed_s": ("s", ("distinction",) + REGION_PARENTS, False, _self("distinction@closed")),
    "distinction.region_s": ("s", ("distinction",) + REGION_PARENTS, False, _self("distinction@region")),
    "gamma.compute_s": ("s", ("gamma.compute",), False, _self("gamma.compute")),
    "gamma.compute_calls": ("count", ("gamma.compute",), False, _count("gamma.compute.calls")),
    "gamma.closed_form_s": ("s", ("gamma.closed_form",), False, _self("gamma.closed_form")),
    "gamma.pairs": ("count", ("gamma.compute", "gamma.closed_form"), True, _count("gamma.pairs")),
    "knowledge_op.s": ("s", ("knowledge_op",), False, _self("knowledge_op")),
    "knowledge_op.calls": ("count", ("knowledge_op",), False, _count("knowledge_op.calls")),
    "checker.kleene_s": ("s", ("checker.kleene",), False, _self("checker.kleene")),
    "checker.kleene_calls": ("count", ("checker.kleene",), False, _count("checker.kleene.calls")),
    "checker.kleene_iterations": ("count", ("checker.kleene",), True, _count("checker.kleene_iterations")),
    "checker.region_states": ("count", ("checker.kleene",), True, _count("checker.region_states")),
    "checker.modal_s": ("s", ("checker.modal",), False, _self("checker.modal")),
    "checker.modal_calls": ("count", ("checker.modal",), False, _count("checker.modal.calls")),
    "checker.eval_s": ("s", ("checker.check",), False, _self("checker.check")),
    "checker.chain_length": ("count", ("checker.check",), True, _count("checker.chain_length")),
    "checker.final_states": ("count", ("checker.check",), True, _count("checker.final_states")),
    "system.construct_s": ("s", ("system.construct",), False, _self("system.construct")),
    "system.constructs": ("count", ("system.construct",), False, _count("system.construct.calls")),
    "system.pullback_s": ("s", ("system.pullback",), False, _self("system.pullback")),
    "system.pullback_calls": ("count", ("system.pullback",), False, _count("system.pullback.calls")),
    "system.parse_s": ("s", ("system.parse",), False, _self("system.parse")),
    "formula.parse_s": ("s", ("formula.parse",), False, _self("formula.parse")),
    "formula.positive_form_s": ("s", ("formula.positive_form",), False, _self("formula.positive_form")),
    "syntree.build_s": ("s", ("syntree.build",), False, _self("syntree.build")),
    "syntree.nodes": ("count", ("syntree.build",), True, _count("syntree.nodes")),
    "syntree.gate_s": ("s", ("syntree.gate",), False, _self("syntree.gate")),
    "translate.encode_s": ("s", ("translate.encode",), False, _self("translate.encode")),
    "translate.compile_s": ("s", ("translate.compile",), False, _self("translate.compile")),
    "translate.compiled_states": ("count", ("translate.compile",), True, _count("translate.compiled_states")),
}


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _distinction_counts(c, args, kwargs, res):
    n_in, n_out = len(_arg(args, kwargs, 0, "m")), len(res)
    c["distinction.states_in"] += n_in
    c["distinction.states_out"] += n_out
    c["distinction.max_states"] = max(c["distinction.max_states"], n_out)
    c["distinction.noop"] += n_in == n_out


def _gamma_counts(c, args, kwargs, res):
    c["gamma.pairs"] += len(res.pairs)


def _kleene_counts(c, args, kwargs, res):
    c["checker.kleene_iterations"] += res[1]
    c["checker.region_states"] += _arg(args, kwargs, 2, "bound")


def _check_counts(c, args, kwargs, res):
    c["checker.chain_length"] += len(res.refinement_sizes)
    c["checker.final_states"] += res.refinement_sizes[-1]


def _syntree_counts(c, args, kwargs, res):
    c["syntree.nodes"] += sum(1 for _ in res)


def _compile_counts(c, args, kwargs, res):
    if hasattr(res, "system"):  # compile_modal, not compile_formula
        c["translate.compiled_states"] += len(res.system)


COUNTERS = {
    "distinction": _distinction_counts,
    "gamma.compute": _gamma_counts,
    "gamma.closed_form": _gamma_counts,
    "checker.kleene": _kleene_counts,
    "checker.check": _check_counts,
    "syntree.build": _syntree_counts,
    "translate.compile": _compile_counts,
}


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, query id]
        self.stack = []
        self.counts = defaultdict(float)
        self.hook_s = defaultdict(float)  # counter time charged to no layer
        self.qid = None
        self.absent = {}  # span name -> reason
        self.failed_counters = {}  # span name -> reason

    def reset(self):
        """Forget the spans and counts of the previous pass; the installed
        wrappers hold these containers, so they are cleared in place."""
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self.hook_s.clear()

    def span(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        counter = COUNTERS.get(name)
        calls_key = name + ".calls"
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.qid]
            idx = len(spans)
            spans.append(rec)
            stack.append(idx)
            t0 = perf()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                rec[1] = t0
                rec[2] = t1
            counts[calls_key] += 1
            if counter is not None and name not in tracer.failed_counters:
                try:
                    counter(counts, args, kwargs, res)
                except Exception as e:  # a refactor changed the signature
                    tracer.failed_counters[name] = f"{type(e).__name__}: {e}"
                tracer.hook_s[rec[3]] += perf() - t1
            return res

        wrapper.__wrapped__ = fn
        return wrapper

    def root(self, qid):
        """Open the benchmark's own span around one query."""
        self.qid = qid
        rec = ["query", time.perf_counter(), 0.0, -1, qid]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec):
        rec[2] = time.perf_counter()
        self.stack.pop()

    def install(self):
        """Wrap every layer function that exists; return an undo function."""
        undo = []
        modules = [m for n, m in list(sys.modules.items()) if n == "epmu" or n.startswith("epmu.")]
        for name, targets in LAYERS.items():
            found = 0
            for modname, qual in targets:
                try:
                    mod = importlib.import_module(modname)
                except ImportError as e:
                    self.absent.setdefault(name, f"{modname}: {e}")
                    continue
                owner, attr = mod, qual
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    owner = getattr(mod, cls_name, None)
                if owner is None or attr not in vars(owner):
                    self.absent.setdefault(name, f"{modname}.{qual} not found")
                    continue
                fn = vars(owner)[attr]
                wrapped = self.span(name, fn)
                found += 1
                holders = [owner] if owner is not mod else modules
                for holder in holders:
                    for key, val in list(vars(holder).items()):
                        if val is fn:
                            setattr(holder, key, wrapped)
                            undo.append((holder, key, fn))
            if found:
                self.absent.pop(name, None)

        def uninstall():
            for holder, key, fn in reversed(undo):
                setattr(holder, key, fn)

        return uninstall

    def self_times(self):
        """Self time per span name: duration minus direct children's
        durations and the counting done on their return."""
        spans = self.spans
        child = [0.0] * len(spans)
        for i, (_, t0, t1, parent, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += t1 - t0
        for parent, dt in self.hook_s.items():
            if parent >= 0:
                child[parent] += dt
        out = defaultdict(float)
        closed = region = 0.0
        for i, (name, t0, t1, parent, _) in enumerate(spans):
            own = t1 - t0 - child[i]
            out[name] += own
            if name == "distinction":
                if parent >= 0 and spans[parent][0] in REGION_PARENTS:
                    region += own
                else:
                    closed += own
        out["distinction@closed"] = closed
        out["distinction@region"] = region
        return out


def layer_metrics(self_s, counts, absent, failed_counters):
    """Per-layer metric values of one pass, plus the reason for each metric
    that could not be measured (its value is then reported as 0)."""
    values, missing = {}, {}
    for metric, (_, spans, counted, value) in METRICS.items():
        reasons = [absent[n] for n in spans if n in absent]
        if counted and spans[0] in failed_counters:
            reasons.append(failed_counters[spans[0]])
        if reasons:
            missing[metric] = "; ".join(dict.fromkeys(reasons))
            values[metric] = 0.0
        else:
            values[metric] = value(self_s, counts)
    return values, missing
