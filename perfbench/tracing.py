"""Spans around safsec's public functions, installed from outside the program.

`install` replaces each target function at its module attribute and at every
other safsec module attribute that holds the same object (so names imported
elsewhere, such as ``process.apply_security_links`` or ``parser.tokenize``,
are traced too).  Every CLI command callback gets a ``cli`` span; click's
parsing and dispatch outside the callbacks stay untraced.
Each span records its request id, its parent, start and end; self time is
the span's duration minus the time its child spans cover.  Spans stay in
memory until `dump` writes them out.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import statistics
import sys
import time
from collections import defaultdict


def _goals(model) -> int:
    return sum(1 for n in model.nodes if n.kind.value == "goal")


def _gsn_nodes(document) -> int:
    return sum(len(b.nodes) for b in document.blocks if hasattr(b, "nodes"))


def _adt_size(node) -> int:
    return 1 + sum(_adt_size(c) for c in node.children) + (
        _adt_size(node.counter) if node.counter is not None else 0
    )


# (layer, module, function, size of a call for growth fits, counts from a call)
TARGETS = [
    ("modelfile.lexer.tokenize", "safsec.modelfile.lexer", "tokenize", None, None),
    ("modelfile.parser.parse", "safsec.modelfile.parser", "parse",
     lambda text: len(text.encode("utf-8")),
     lambda args, r: {"modelfile.parser.bytes": len(args[0].encode("utf-8"))}),
    ("modelfile.printer.print_document", "safsec.modelfile.printer", "print_document", None,
     lambda args, r: {"modelfile.printer.bytes": len(r.encode("utf-8"))}),
    ("validate.validate_model", "safsec.validate", "validate_model", _gsn_nodes,
     lambda args, r: {"validate.diagnostics": len(r)}),
    ("confidence.aggregate_gsn", "safsec.confidence", "aggregate_gsn", _goals, None),
    ("confidence.apply_security_links", "safsec.confidence", "apply_security_links", None, None),
    ("process.run_process", "safsec.process", "run_process", None,
     lambda args, r: {"process.rounds": len(r.entries)}),
    ("derive.derive_adt", "safsec.derive", "derive_adt", None,
     lambda args, r: {"derive.derived_nodes": _adt_size(r.root)}),
    ("adteval.evaluate", "safsec.adteval", "evaluate", None,
     lambda args, r: {"adteval.nodes_evaluated": len(r)}),
    ("fmea.ranked_rows", "safsec.fmea", "ranked_rows", None, None),
    ("dot", "safsec.dot", "gsn_to_dot", None, None),
    ("dot", "safsec.dot", "adt_to_dot", None, None),
    ("dot", "safsec.dot", "fta_to_dot", None, None),
    ("fta.cut_sets", "safsec.fta", "cut_sets", None, lambda args, r: {"fta.raw_sets": len(r)}),
    ("fta.minimal_cut_sets", "safsec.fta", "minimal_cut_sets", None, None),
    ("fta.minimize", "safsec.fta", "minimize", len,
     lambda args, r: {"fta.minimize_input": len(args[0]), "fta.minimal_sets": len(r)}),
    ("fta.canonical_order", "safsec.fta", "canonical_order", None, None),
    ("conflicts.find_contradictions", "safsec.conflicts", "find_contradictions",
     lambda rules: 2 ** len(rules.inputs),
     lambda args, r: {"conflicts.assignments": 2 ** len(args[0].inputs),
                      "conflicts.witnesses": len(r)}),
    ("conflicts.forward_chain", "safsec.conflicts", "forward_chain", None, None),
]
LAYERS = sorted({t[0] for t in TARGETS} | {"cli"})
# Growth exponents: layer -> what its size is measured in.
EXPONENTS = {
    "confidence.aggregate_gsn": "goals",
    "validate.validate_model": "gsn nodes",
    "modelfile.parser.parse": "bytes",
    "fta.minimize": "input sets",
    "conflicts.find_contradictions": "assignments",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (request, span, parent, layer, start, end, self)
        self.stack: list[list] = []  # [span id, layer, start, child time]
        self.request = 0
        self.next_id = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.sizes: dict[str, list] = defaultdict(list)
        self._undo: list[tuple] = []

    def begin(self, layer: str) -> list:
        self.next_id += 1
        frame = [self.next_id, layer, time.perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def end(self, frame: list) -> float:
        end = time.perf_counter()
        while self.stack and self.stack.pop() is not frame:
            pass  # a span left open by an exception unwinding past it
        sid, layer, start, child = frame
        dur = end - start
        own = dur - child
        parent = self.stack[-1][0] if self.stack else 0
        if self.stack:
            self.stack[-1][3] += dur
        self.spans.append((self.request, sid, parent, layer, start, end, own))
        self.calls[layer] += 1
        self.self_s[layer] += own
        return dur

    def wrap(self, layer: str, fn, size=None, observe=None):
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator(*args, **kwargs):
                frame = tracer.begin(layer)
                n = 0
                try:
                    for item in fn(*args, **kwargs):
                        n += 1
                        yield item
                finally:
                    tracer.end(frame)
                    tracer.counts["modelfile.lexer.tokens"] += n

            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            n = size(*args) if size is not None else None
            frame = tracer.begin(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer.end(frame)
            if observe is not None:
                for key, n_items in observe(args, result).items():
                    tracer.counts[key] += n_items
            if n is not None:
                tracer.sizes[layer].append((n, dur))
            return result

        return wrapper

    def install(self) -> None:
        import click

        import safsec.cli

        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "safsec" or name.startswith("safsec."))]
        for layer, modname, attr, size, observe in TARGETS:
            original = getattr(sys.modules[modname], attr)
            wrapped = self.wrap(layer, original, size, observe)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapped)
                        self._undo.append((module, name, original))

        def commands(group):
            for cmd in group.commands.values():
                if isinstance(cmd, click.Group):
                    yield from commands(cmd)
                else:
                    yield cmd

        for cmd in commands(safsec.cli.main):
            self._undo.append((cmd, "callback", cmd.callback))
            cmd.callback = self.wrap("cli", cmd.callback)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["request", "span", "parent", "layer", "start_s", "end_s", "self_s"],
                       "spans": self.spans}, handle)


def exponent(pairs) -> float:
    """Least-squares slope of log(median duration) against log(size)."""
    by_size: dict[float, list] = defaultdict(list)
    for size, dur in pairs:
        if size > 0 and dur > 0:
            by_size[size].append(dur)
    if len(by_size) < 2:
        return 0.0
    xs = [math.log(s) for s in by_size]
    ys = [math.log(statistics.median(d)) for d in by_size.values()]
    return statistics.linear_regression(xs, ys).slope
