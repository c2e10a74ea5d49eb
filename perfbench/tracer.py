"""Layer tracing for the benchmark's traced run, installed from outside.

The tracer wraps the public functions and methods of each packbound module
and rebinds every name that refers to them: functions imported by name into
other modules (``min_bins`` in ``knownopt``, ``clcbp`` and ``cli``) and
class aliases (``Exact.__radd__ = __add__``) included.  Nothing in the
package changes; ``uninstall`` puts the originals back.

Every wrapped call is a span with a parent.  Calls into the ``exact`` layer
made while an ``exact`` span is open (``sign`` inside ``<``, ``+`` inside
``-``) are folded into the outer span, so ``exact.*.calls`` count the
operations other layers ask for.  Spans of the other layers are kept in
memory; ``exact`` spans, which number in the millions, are kept as
per-(parent, name) totals.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from fractions import Fraction

EXACT = "exact"

# (module, attribute path, span name); the layer is the span name's first part
TARGETS = (
    ("packbound.exact", "Exact.__lt__", "exact.compare"),
    ("packbound.exact", "Exact.__le__", "exact.compare"),
    ("packbound.exact", "Exact.__gt__", "exact.compare"),
    ("packbound.exact", "Exact.__ge__", "exact.compare"),
    ("packbound.exact", "Exact.__eq__", "exact.compare"),
    ("packbound.exact", "Exact.sign", "exact.compare"),
    ("packbound.exact", "Exact.__add__", "exact.add"),
    ("packbound.exact", "Exact.__sub__", "exact.add"),
    ("packbound.exact", "Exact.__rsub__", "exact.add"),
    ("packbound.exact", "Exact.from_terms", "exact.add"),
    ("packbound.algorithms", "AlgorithmSession.place", "algorithms.place"),
    ("packbound.algorithms", "fork_replay", "algorithms.replay"),
    ("packbound.model", "Packing.add_item", "model.add_item"),
    ("packbound.model", "validate_packing", "model.validate"),
    ("packbound.model", "squares_disjoint", "model.squares_disjoint"),
    ("packbound.knownopt", "run_full", "knownopt.run_full"),
    ("packbound.squares", "run_full", "squares.run_full"),
    ("packbound.clcbp", "run_full", "clcbp.run_full"),
    ("packbound.squares", "l_strip_layout", "squares.layout"),
    ("packbound.squares", "corner_court_layout", "squares.layout"),
    ("packbound.squares", "block_court_layout", "squares.layout"),
    ("packbound.squares", "grid_layout", "squares.layout"),
    ("packbound.oracle", "AdaptiveOracle.next_value", "oracle.next_value"),
    ("packbound.oracle", "AdaptiveOracle.observe", "oracle.observe"),
    ("packbound.oracle", "AdaptiveOracle.stop_check", "oracle.stop_check"),
    ("packbound.oracle", "AdaptiveOracle.separator", "oracle.separator"),
    ("packbound.oracle", "AdaptiveOracle.trace", "oracle.trace"),
    ("packbound.optoracle", "min_bins", "optoracle.min_bins"),
    ("packbound.mathprog", "feasible_at", "mathprog.feasible_at"),
    ("packbound.mathprog", "solve_min_r_exact", "mathprog.solve_min_r_exact"),
    ("packbound.mathprog", "bisect_min_r", "mathprog.bisect_min_r"),
    ("packbound.mathprog", "check_certificate", "mathprog.check_certificate"),
    ("packbound.reports", "report_to_json", "reports.to_json"),
    ("packbound.cli", "main", "cli"),
)

# kept spans beyond this many are still counted in the totals, not listed
_KEPT_SPANS_LIMIT = 200_000


def _target_function(module_name, path):
    owner = sys.modules[module_name]
    *parents, leaf = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return _unwrap(vars(owner)[leaf])


def _unwrap(value):
    return value.__func__ if isinstance(value, staticmethod) else value


def _binding_owners():
    """Every packbound module and every class defined in one."""
    owners = [m for name, m in sorted(sys.modules.items())
              if name == "packbound" or name.startswith("packbound.")]
    for module in list(owners):
        owners.extend(v for v in vars(module).values()
                      if isinstance(v, type) and v.__module__.startswith("packbound"))
    return list({id(o): o for o in owners}.values())


class Tracer:
    def __init__(self):
        self.stack = []  # open frames: [name, child_ns, span_id, is_exact]
        self.stats = defaultdict(lambda: [0, 0, 0])  # name -> [calls, total_ns, self_ns]
        self.edges = defaultdict(int)  # (parent name, name) -> calls
        self.counters = defaultdict(int)
        self.spans = []  # (span_id, parent_id, name, start_ns, duration_ns)
        self._next_id = 1
        self._targets = []  # (label, original function)
        self._originals = {}  # id(original function) -> (original, wrapper)
        self._rebound = []  # (owner, attribute, original value)

    # -- wrapping -------------------------------------------------------

    def _wrapper(self, fn, name, before=None, after=None):
        stack, edges, spans = self.stack, self.edges, self.spans
        stats = self.stats[name]
        now = time.perf_counter_ns
        fold = name.startswith(EXACT + ".")

        def wrapper(*args, **kwargs):
            if fold and stack and stack[-1][3]:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            parent = stack[-1] if stack else None
            if fold:
                span_id = parent[2] if parent else 0
            else:
                span_id = self._next_id
                self._next_id += 1
            frame = [name, 0, span_id, fold]
            stack.append(frame)
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = now() - start
                stack.pop()
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                edges[(parent[0] if parent else None, name)] += 1
                if not fold and len(spans) < _KEPT_SPANS_LIMIT:
                    spans.append((span_id, parent[2] if parent else 0, name, start, duration))
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _hooks(self, name):
        counters = self.counters
        if name == "exact.compare":
            from packbound.exact import Exact

            def classify(args, kwargs):
                a = args[0]
                b = args[1] if len(args) > 1 else Fraction(0)
                b_terms = b.terms if isinstance(b, Exact) else ()
                b_rat = b.rational_part if isinstance(b, Exact) else b
                if a.terms == b_terms:
                    counters["exact.compare.path.rational"] += 1
                elif a.rational_part != b_rat:
                    counters["exact.compare.path.dominance"] += 1
                else:
                    counters["exact.compare.path.terms"] += 1
            return classify, None
        if name == "algorithms.replay":
            def prefix_items(args, kwargs):
                prefix = args[2] if len(args) > 2 else kwargs["prefix"]
                counters["algorithms.replay.items"] += len(prefix)
            return prefix_items, None
        if name == "optoracle.min_bins":
            def search_result(args, kwargs, result):
                counters["optoracle.nodes"] += result.nodes
                counters["optoracle.proven"] += bool(result.proven)
            return None, search_result
        if name == "reports.to_json":
            def text_bytes(args, kwargs, result):
                counters["reports.bytes"] += len(result.encode())
            return None, text_bytes
        return None, None

    def install(self) -> None:
        """Wrap every target and rebind every name that refers to one."""
        for module_name, path, name in TARGETS:
            fn = _target_function(module_name, path)
            before, after = self._hooks(name)
            if path.endswith(".__eq__"):
                before = None  # `==` is structural: counted, not a sign path
            self._targets.append((f"{module_name}.{path}", fn))
            self._originals[id(fn)] = (fn, self._wrapper(fn, name, before, after))
        for owner in _binding_owners():
            for attr, value in list(vars(owner).items()):
                entry = self._originals.get(id(_unwrap(value)))
                if entry is None or _unwrap(value) is not entry[0]:
                    continue
                wrapped = entry[1]
                if isinstance(value, staticmethod):
                    wrapped = staticmethod(wrapped)
                self._rebound.append((owner, attr, value))
                setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._rebound):
            setattr(owner, attr, value)
        self._rebound.clear()

    def coverage_problems(self) -> list[str]:
        """Targets never rebound, and names that still hold an original."""
        rebound = {id(_unwrap(value)) for _, _, value in self._rebound}
        problems = [f"{label}: no binding was wrapped"
                    for label, fn in self._targets if id(fn) not in rebound]
        for owner in _binding_owners():
            for attr, value in vars(owner).items():
                entry = self._originals.get(id(_unwrap(value)))
                if entry is not None and _unwrap(value) is entry[0]:
                    problems.append(f"{owner.__name__}.{attr} still holds the unwrapped function")
        return problems

    # -- results --------------------------------------------------------

    def total(self, name, field):
        """Seconds of `name`: field 1 is total time, field 2 self time."""
        return self.stats[name][field] / 1e9 if name in self.stats else 0.0

    def calls(self, name):
        return self.stats[name][0] if name in self.stats else 0

    def layer_self_s(self, prefix):
        return sum(s[2] for n, s in self.stats.items()
                   if n == prefix or n.startswith(prefix + ".")) / 1e9

    def dump(self) -> dict:
        return {
            "stats": {n: {"calls": s[0], "total_s": s[1] / 1e9, "self_s": s[2] / 1e9}
                      for n, s in sorted(self.stats.items())},
            "edges": [{"parent": p, "name": n, "calls": c}
                      for (p, n), c in sorted(self.edges.items(), key=lambda e: str(e[0]))],
            "counters": dict(sorted(self.counters.items())),
            "spans": [{"id": i, "parent": p, "name": n, "start_ns": s, "duration_ns": d}
                      for i, p, n, s, d in self.spans],
            "spans_dropped": max(0, self._next_id - 1 - len(self.spans)),
        }

