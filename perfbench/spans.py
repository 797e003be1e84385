"""Span and count recording around the public functions of each fincat module.

The tracer wraps functions from outside the package: every loaded ``fincat``
module attribute that is the original function object is replaced by a
wrapper, and methods are replaced on their class. The program's source is
not changed. Each call made while the tracer is active records a span (id,
parent id, name, start, end) and updates per-name aggregates on the fly:
calls, inclusive seconds (outermost span of a name only, so recursion is not
counted twice) and self seconds (the span minus its direct children).

Aggregates are kept per phase (set-up and each round), so that a report can
say "set-up plus one round" whatever the number of rounds a run made. Spans
are kept in memory up to a cap and written out when the run ends.
"""

import importlib
import json
import statistics
import sys
import time

# (module, attribute path) of every wrapped callable, in report order.
TARGETS = (
    ("corpus", "generate_corpus"),
    ("corpus", "generate_functor_corpus"),
    ("finset", "pullback"),
    ("finset", "compose"),
    ("finset", "ChosenLimit.mediate"),
    ("internal", "validate_category"),
    ("internal", "validate_functor"),
    ("internal", "simplicial_map"),
    ("ends", "end_families"),
    ("ends", "check_family"),
    ("limits", "product_cat"),
    ("limits", "power_by_two"),
    ("limits", "internal_hom"),
    ("limits", "InternalHom.curry"),
    ("limits", "enumerate_functors"),
    ("limits", "hom_category"),
    ("naive", "oracle_functors"),
    ("naive", "oracle_hom_category"),
    ("factorisation", "factor_internal"),
    ("factorisation", "lift_square"),
    ("classifiers", "classify_full_mono"),
    ("classifiers", "section_of_ff_epi"),
    ("classifiers", "categorified_choice_audit"),
    ("audit", "run_audit"),
    ("audit", "two_well_pointed_check"),
    ("audit", "refute_finite_nno"),
    ("serialize", "serialize_report"),
    ("cli", "main"),
)

# Per-layer metrics printed by a traced run: (name, unit, better).
PER_LAYER = (
    ("ends.end_families.k0.s", "s", "lower"),
    ("ends.end_families.k1.s", "s", "lower"),
    ("ends.end_families.k2.s", "s", "lower"),
    ("ends.end_families.k0.families", "count", "lower"),
    ("ends.end_families.k1.families", "count", "lower"),
    ("ends.end_families.k2.families", "count", "lower"),
    ("ends.end_families.bounded", "count", "lower"),
    ("ends.end_families.bounded_s", "s", "lower"),
    ("ends.check_family.calls", "count", "lower"),
    ("ends.check_family.s", "s", "lower"),
    ("internal.simplicial_map.calls", "count", "lower"),
    ("internal.simplicial_map.s", "s", "lower"),
    ("internal.validate_category.calls", "count", "lower"),
    ("internal.validate_category.s", "s", "lower"),
    ("internal.validate_functor.calls", "count", "lower"),
    ("internal.validate_functor.s", "s", "lower"),
    ("limits.internal_hom.calls", "count", "lower"),
    ("limits.internal_hom.s", "s", "lower"),
    ("limits.internal_hom.self_s", "s", "lower"),
    ("limits.InternalHom.curry.calls", "count", "lower"),
    ("limits.InternalHom.curry.s", "s", "lower"),
    ("limits.enumerate_functors.calls", "count", "lower"),
    ("limits.enumerate_functors.s", "s", "lower"),
    ("limits.enumerate_functors.functors", "count", "lower"),
    ("limits.hom_category.calls", "count", "lower"),
    ("limits.hom_category.s", "s", "lower"),
    ("limits.hom_category.cells", "count", "lower"),
    ("limits.product_cat.calls", "count", "lower"),
    ("limits.product_cat.s", "s", "lower"),
    ("limits.power_by_two.calls", "count", "lower"),
    ("limits.power_by_two.s", "s", "lower"),
    ("naive.oracle_hom_category.calls", "count", "lower"),
    ("naive.oracle_hom_category.s", "s", "lower"),
    ("naive.oracle_hom_category.cells", "count", "lower"),
    ("naive.oracle_functors.calls", "count", "lower"),
    ("naive.oracle_functors.s", "s", "lower"),
    ("finset.pullback.calls", "count", "lower"),
    ("finset.pullback.s", "s", "lower"),
    ("finset.ChosenLimit.mediate.calls", "count", "lower"),
    ("finset.ChosenLimit.mediate.s", "s", "lower"),
    ("finset.compose.calls", "count", "lower"),
    ("finset.compose.s", "s", "lower"),
    ("factorisation.factor_internal.calls", "count", "lower"),
    ("factorisation.factor_internal.s", "s", "lower"),
    ("factorisation.lift_square.calls", "count", "lower"),
    ("factorisation.lift_square.s", "s", "lower"),
    ("classifiers.classify_full_mono.s", "s", "lower"),
    ("classifiers.section_of_ff_epi.s", "s", "lower"),
    ("classifiers.categorified_choice_audit.s", "s", "lower"),
    ("audit.run_audit.calls", "count", "lower"),
    ("audit.run_audit.s", "s", "lower"),
    ("audit.run_audit.self_s", "s", "lower"),
    ("audit.two_well_pointed_check.s", "s", "lower"),
    ("audit.refute_finite_nno.s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.s", "s", "lower"),
    ("serialize.serialize_report.s", "s", "lower"),
    ("corpus.generate_corpus.s", "s", "lower"),
    ("corpus.generate_functor_corpus.s", "s", "lower"),
)

MAX_SPANS = 200_000


def _size_of_result(name, result):
    """The work count a layer reports besides its calls, or None."""
    if name == "limits.enumerate_functors":
        return "functors", len(result)
    if name == "limits.hom_category":
        return "cells", len(result.arrows)
    if name == "naive.oracle_hom_category":
        return "cells", len(result[1])
    if name == "ends.end_families":
        return "families", len(result)
    return None


class Tracer:
    """Collects spans and per-phase aggregates; inactive until `phase` is set."""

    def __init__(self):
        self.refused = ()               # exception types counted as bounded
        self.phase = None               # None means: record nothing
        self.phases = {}                # phase -> {metric: value}
        self.spans = []
        self.dropped = 0
        self.names = []
        self._name_ids = {}
        self._stack = []                # [span id, start, child seconds]
        self._open = {}                 # name -> open span count
        self._next_id = 0
        self._restore = []

    # -- installation ------------------------------------------------------

    def install(self, package):
        """Wrap every target in the package's loaded modules."""
        targets = [(importlib.import_module(f"{package}.{module_name}"),
                    f"{module_name}.{path}", path) for module_name, path in TARGETS]
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == package or n.startswith(package + "."))]
        for module, name, path in targets:
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                wrapper = self._wrap(name, original)
                setattr(owner, attr, wrapper)
                self._restore.append((owner, attr, original))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, name, fn):
        tracer = self
        is_ends = name == "ends.end_families"

        def wrapper(*args, **kwargs):
            if tracer.phase is None:
                return fn(*args, **kwargs)
            label = name
            if is_ends:
                k = args[2] if len(args) > 2 else kwargs["k"]
                label = f"{name}.k{k}"
            frame = tracer._enter(name)
            refused = False
            try:
                result = fn(*args, **kwargs)
            except tracer.refused:
                refused = True
                raise
            finally:
                dur = tracer._exit(frame, name, label)
                if refused and is_ends:
                    tracer._add("ends.end_families.bounded", 1)
                    tracer._add("ends.end_families.bounded_s", dur)
            extra = _size_of_result(name, result)
            if extra is not None:
                tracer._add(f"{label}.{extra[0]}", extra[1])
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    # -- recording ---------------------------------------------------------

    def _add(self, metric, value):
        bucket = self.phases.setdefault(self.phase, {})
        bucket[metric] = bucket.get(metric, 0) + value

    def _enter(self, name):
        span_id = self._next_id
        self._next_id += 1
        self._open[name] = self._open.get(name, 0) + 1
        frame = [span_id, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame, name, label):
        end = time.perf_counter()
        self._stack.pop()
        span_id, start, child = frame
        dur = end - start
        self._open[name] -= 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        self._add(f"{name}.calls", 1)
        self._add(f"{name}.self_s", dur - child)
        if not self._open[name]:
            self._add(f"{label}.s", dur)
        if len(self.spans) < MAX_SPANS:
            name_id = self._name_ids.get(label)
            if name_id is None:
                name_id = self._name_ids[label] = len(self.names)
                self.names.append(label)
            self.spans.append((span_id, parent[0] if parent else -1, name_id,
                               start, end))
        else:
            self.dropped += 1
        return dur

    # -- reporting ---------------------------------------------------------

    def per_layer(self, setup_phase, round_phases):
        """Every PER_LAYER metric: the set-up value plus the median round."""
        setup = self.phases.get(setup_phase, {})
        rounds = [self.phases.get(p, {}) for p in round_phases]
        out = {}
        for metric, unit, _better in PER_LAYER:
            middle = statistics.median_low if unit == "count" else statistics.median
            value = setup.get(metric, 0) + middle([r.get(metric, 0) for r in rounds])
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path, meta):
        doc = dict(meta)
        doc["names"] = self.names
        doc["span_fields"] = ["id", "parent", "name", "start", "end"]
        doc["spans"] = self.spans
        doc["spans_dropped"] = self.dropped
        doc["phases"] = {str(k): v for k, v in self.phases.items()}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
