"""Span tracing of the ``tropmeas`` layers from outside the package.

:meth:`Tracer.install` rebinds each traced public name, in every
``tropmeas`` module namespace that holds it, to a wrapper that records a
span: an id, the id of the enclosing span, the id of the outermost span
(the operation it belongs to), a name, a start and an end.  Spans stay in
compact in-memory arrays until :meth:`Tracer.dump` writes them out;
per-name call counts, self times (span time minus the time covered by
child spans) and work counters accumulate as the spans close.
:meth:`Tracer.uninstall` restores the original bindings.  Nothing under
``src/`` changes.
"""

import sys
from array import array
from time import perf_counter

import numpy as np


def _lift_count(stats, args, result):
    stats["spaces.lift.inputs"] += len(args[1])
    stats["spaces.lift.points"] += len(result)
    stats["spaces.lift.pairs"] += len(result) * (len(result) - 1) // 2


def _lift_extend_count(stats, args, result):
    old, new = len(args[0]), len(result)
    stats["spaces.lift_extend.pairs"] += (new * (new - 1) - old * (old - 1)) // 2


def _cells(stats, args, result):
    stats["transport.bottleneck_distance.cells"] += args[0].support_size * args[1].support_size


def _masks(stats, args, result):
    stats["transport.bottleneck_distance_bruteforce.masks"] += (
        (1 << args[0].support_size * args[1].support_size) - 1)


def _scan(stats, args, result):
    stats["spaces.index_of_measure.scanned"] += result + 1


#: (module, public name, span name, work counter)
TRACED = (
    ("transport", "bottleneck_distance", "transport.bottleneck_distance", _cells),
    ("transport", "measure_distance", "transport.measure_distance", None),
    ("transport", "bottleneck_distance_bruteforce",
     "transport.bottleneck_distance_bruteforce", _masks),
    ("transport", "distance_to_diracs", "transport.distance_to_diracs", None),
    ("spaces", "FiniteMetricSpace", "spaces.FiniteMetricSpace", None),
    ("spaces", "lift", "spaces.lift", _lift_count),
    ("spaces", "lift_extend", "spaces.lift_extend", _lift_extend_count),
    ("spaces", "index_of_measure", "spaces.index_of_measure", _scan),
    ("measures", "make_measure", "measures.make_measure", None),
    ("measures", "measures_close", "measures.measures_close", None),
    ("monad", "flatten", "monad.flatten", None),
    ("monad", "unit", "monad.unit", None),
    ("monad", "map_unit", "monad.map_unit", None),
    ("monad", "sample_flatten_preimage", "monad.sample_flatten_preimage", None),
    ("verify", "gen_space", "verify.gen", None),
    ("verify", "gen_measure", "verify.gen", None),
    ("verify", "run_oracle_equivalence", "verify.run_oracle_equivalence", None),
    ("verify", "run_axioms", "verify.run_axioms", None),
    ("verify", "run_lemma1", "verify.run_lemma1", None),
    ("verify", "run_lemma2", "verify.run_lemma2", None),
    ("verify", "run_lemma3", "verify.run_lemma3", None),
    ("cli", "parse_document", "cli.parse_document", None),
    ("cli", "main", "cli.command", None),
)

#: Counted without a span: called on every kernel call, so a span would
#: cost more than the call.
COUNTED = (("defects", "enabled", "defects.enabled.calls"),)


class Tracer:
    def __init__(self):
        self.names = sorted({span for _, _, span, _ in TRACED})
        self._index = {n: i for i, n in enumerate(self.names)}
        self.parent = array("i")
        self.root = array("i")
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.total_s = [0.0] * len(self.names)
        self.stats = dict.fromkeys(
            ("spaces.lift.inputs", "spaces.lift.points", "spaces.lift.pairs",
             "spaces.lift_extend.pairs", "transport.bottleneck_distance.cells",
             "transport.bottleneck_distance_bruteforce.masks",
             "spaces.index_of_measure.scanned", "defects.enabled.calls"), 0)
        self._stack = []           # [span id, time covered by children]
        self._bound = []           # (module, attribute, original)

    def _span(self, span_name, fn, counter):
        idx = self._index[span_name]
        stack, stats = self._stack, self.stats
        parent, root, name, start, end = self.parent, self.root, self.name, self.start, self.end
        calls, self_s, total_s = self.calls, self.self_s, self.total_s

        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1][0] if stack else -1)
            root.append(stack[0][0] if stack else sid)
            name.append(idx)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            start.append(t0)
            end.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                end[sid] = t1
                dur = t1 - t0
                calls[idx] += 1
                total_s[idx] += dur
                self_s[idx] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if counter is not None:
                counter(stats, args, result)
            return result

        return traced

    def _counted(self, key, fn):
        stats = self.stats

        def counted(*args, **kwargs):
            stats[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrapper(self, original, span_name, counter):
        if isinstance(original, type):
            # A subclass keeps isinstance checks and the class's own methods.
            return type(original.__name__, (original,), {
                "__slots__": (),
                "__init__": self._span(span_name, original.__init__, counter),
            })
        return self._span(span_name, original, counter)

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "tropmeas" or n.startswith("tropmeas.")]
        plan = [(mod, attr, span, counter, False) for mod, attr, span, counter in TRACED]
        plan += [(mod, attr, key, None, True) for mod, attr, key in COUNTED]
        for mod, attr, key, counter, count_only in plan:
            original = getattr(sys.modules[f"tropmeas.{mod}"], attr)
            wrapper = (self._counted(key, original) if count_only
                       else self._wrapper(original, key, counter))
            for m in modules:
                if getattr(m, attr, None) is original:
                    setattr(m, attr, wrapper)
                    self._bound.append((m, attr, original))

    def uninstall(self):
        for m, attr, original in reversed(self._bound):
            setattr(m, attr, original)
        self._bound.clear()

    # results ------------------------------------------------------------

    def metric(self, span_name: str, field: str) -> float:
        i = self._index[span_name]
        return {"calls": self.calls[i], "self_s": self.self_s[i],
                "wall_s": self.total_s[i]}[field]

    def layer_self_s(self) -> dict:
        """Self time summed per module, the layer a span name starts with."""
        out = {}
        for n, s in zip(self.names, self.self_s):
            layer = n.split(".")[0]
            out[layer] = out.get(layer, 0.0) + s
        return out

    def dump(self, path):
        np.savez(path, names=np.array(self.names), parent=np.frombuffer(self.parent, np.int32),
                 root=np.frombuffer(self.root, np.int32),
                 name=np.frombuffer(self.name, np.uint16),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))
