"""Spans around the program's layers, recorded from outside the program.

The traced run wraps every public function of the layer modules, in every
module namespace of the package that refers to it, so calls between layers
and inside a layer are both seen.  Each call records one span
``(label, start, end, parent, op)``; spans stay in memory and are written
out when the run ends.  A few work counts are taken at the same boundaries.
"""

import functools
import inspect
import sys
import time

LAYERS = ("forms", "witt", "_mat", "discriminant", "knots", "diophantine",
          "cli")


def layer_name(module_name):
    """Metric prefix of a layer module: ``wittlink._mat`` -> ``mat``."""
    return module_name.rsplit(".", 1)[-1].lstrip("_")


def _bits_of_square_class(counters, args):
    a = args[0]
    v = getattr(a, "numerator", a) * getattr(a, "denominator", 1)
    counters["witt.factored_bits"] += abs(v).bit_length()


def _bits_of_factorize(counters, args):
    counters["witt.factored_bits"] += abs(args[0]).bit_length()


def _gauss_elements(counters, result):
    counters["discriminant.gauss_sum.elements"] += result.total_count()


# Work counts: label -> hook on the arguments (before) or the result (after).
BEFORE = {"witt.square_free_part": _bits_of_square_class,
          "witt.factorize": _bits_of_factorize}
AFTER = {"discriminant.gauss_sum": _gauss_elements}


class Tracer:
    def __init__(self):
        self.labels = []
        self.spans = []
        self.stack = []
        self.op = -1
        self.ticks = []
        self.counters = {"witt.factored_bits": 0,
                         "discriminant.gauss_sum.elements": 0}

    def install(self, package):
        """Replace each public layer function by a recording wrapper."""
        prefix = package.__name__
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == prefix or name.startswith(prefix + ".")]
        for layer in LAYERS:
            module = sys.modules[f"{prefix}.{layer}"]
            for name, obj in sorted(vars(module).items()):
                if (name.startswith("_") or inspect.isclass(obj)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                wrapper = self._wrap(f"{layer_name(module.__name__)}.{name}", obj)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is obj:
                            setattr(ns, attr, wrapper)

    def _wrap(self, label, fn):
        label_id = len(self.labels)
        self.labels.append(label)
        spans, stack, counters = self.spans, self.stack, self.counters
        clock = time.perf_counter
        before, after = BEFORE.get(label), AFTER.get(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before:
                before(counters, args)
            parent = stack[-1] if stack else -1
            me = len(spans)
            spans.append(None)
            stack.append(me)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (label_id, start, end, parent, self.op)
            if after:
                after(counters, result)
            return result

        return traced


def self_times(spans, ticks=()):
    """Per span, its duration minus the durations of its direct children
    and of the reference-loop ticks (span index, seconds) charged to it."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    for span, took in ticks:
        own[span] -= took
    return own
