"""Span tracing of the public functions of each nilaut layer.

The tracer wraps every listed function in every ``nilaut.*`` namespace that
binds it (and on the class, for methods), keeps one span per call in memory
(name, start, end, parent) and restores the original bindings afterwards.
It is only installed in the traced run; timed passes merely check, after
their clock stops, that no wrapper is bound.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

LAYERS = {
    "nilgroup": ("GroupContext.get", "multiply", "invert", "commutator", "collect"),
    "automorphisms": ("apply", "compose", "invert_automorphism", "k_depth", "in_K", "inner"),
    "sigma": (
        "necessity_check",
        "sigma_sequence",
        "find_nontrivial_witness",
        "matrix_sigma_sequence",
    ),
    "glz": (
        "IntMatrix.inverse_unimodular",
        "classify_involution2",
        "noncentral_sigma_walk",
        "noncentral_walk_certificate",
        "order3_falsifier",
        "random_unimodular",
        "hermite_form",
        "smith_normal_form",
    ),
    "interpret": (
        "t_plus_minus_classify",
        "build_structure_M",
        "factor_inner_as_symmetries",
        "encode_endomorphism_as_summand",
        "semantic_graph_compose",
    ),
    "sampling": ("random_automorphism", "conjugated_symmetry", "random_k_member", "symmetry_sample"),
    "harness": ("run_suite",),
}

# Functions whose repeated arguments a memo could skip.
REPEAT_TRACKED = ("automorphisms.compose", "automorphisms.apply", "automorphisms.invert_automorphism")

TRACED = tuple("%s.%s" % (layer, fn) for layer, fns in LAYERS.items() for fn in fns)


class CoverageError(RuntimeError):
    """A listed function is missing, or a namespace still binds it unwrapped."""


def _nilaut_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "nilaut" or name.startswith("nilaut."))]


class Tracer:
    def __init__(self):
        self.names = list(TRACED)
        self.spans = []
        self._stack = []
        self._patches = []  # (owner, attribute, original)
        self._originals = {}  # traced name -> original function or descriptor
        self.context_args = set()
        self._seen = {name: set() for name in REPEAT_TRACKED}
        self.repeats = {name: 0 for name in REPEAT_TRACKED}

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, index, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        name = self.names[index]
        seen = self._seen.get(name)

        def traced(*args, **kwargs):
            if seen is not None:
                # equal arguments hash equally (public __eq__/__hash__); a
                # hash is kept instead of the arguments so nothing stays alive
                key = hash(args)
                if key in seen:
                    self.repeats[name] += 1
                else:
                    seen.add(key)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (index, start, end, parent)

        traced.__wrapped__ = fn
        traced.__perfbench_traced__ = name
        return traced

    def _record_context(self, fn):
        def get(cls, *args):
            self.context_args.add(args)
            return fn(cls, *args)

        return get

    def install(self):
        """Wrap every listed function; raise CoverageError naming a missing
        one, or an unwrapped binding, after undoing what was wrapped."""
        try:
            self._install()
            self.verify()
        except CoverageError:
            self.restore()
            raise

    def _install(self):
        importlib.import_module("nilaut")
        for index, name in enumerate(self.names):
            layer, qual = name.split(".", 1)
            module = importlib.import_module("nilaut." + layer)
            if "." in qual:
                cls_name, attr = qual.split(".")
                owner = getattr(module, cls_name, None)
                raw = vars(owner).get(attr) if isinstance(owner, type) else None
                if raw is None:
                    raise CoverageError("traced method %s no longer exists" % name)
                if isinstance(raw, classmethod):
                    fn = raw.__func__
                    if name == "nilgroup.GroupContext.get":
                        fn = self._record_context(fn)
                    wrapped = classmethod(self._wrap(index, fn))
                else:
                    wrapped = self._wrap(index, raw)
                self._originals[name] = raw
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            original = getattr(module, qual, None)
            if not callable(original) or isinstance(original, type):
                raise CoverageError("traced function %s no longer exists" % name)
            self._originals[name] = original
            wrapped = self._wrap(index, original)
            for mod in _nilaut_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def verify(self):
        """Raise CoverageError if any nilaut namespace binds a listed function unwrapped."""
        # the originals stay referenced by self._originals, so ids are stable
        originals = {id(fn): name for name, fn in self._originals.items()}
        unwrapped = []
        for mod in _nilaut_modules():
            for key, value in vars(mod).items():
                if id(value) in originals:
                    unwrapped.append("%s.%s (%s)" % (mod.__name__, key, originals[id(value)]))
                if isinstance(value, type):
                    for attr, raw in vars(value).items():
                        if id(raw) in originals:
                            unwrapped.append("%s.%s.%s (%s)" % (mod.__name__, key, attr, originals[id(raw)]))
        if unwrapped:
            raise CoverageError("unwrapped bindings: " + ", ".join(sorted(set(unwrapped))))

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if count_traced_bindings():
            raise CoverageError("traced wrappers remain after restore")

    # -- results ------------------------------------------------------------

    def summary(self):
        """Per-function calls, inclusive and self seconds, and repeat ratios."""
        n = len(self.names)
        calls = [0] * n
        total = [0.0] * n
        child = [0.0] * len(self.spans)
        for index, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_time = [0.0] * n
        for sid, (index, start, end, parent) in enumerate(self.spans):
            calls[index] += 1
            total[index] += end - start
            self_time[index] += end - start - child[sid]
        out = {}
        for i, name in enumerate(self.names):
            out[name + ".calls"] = calls[i]
            out[name + ".s"] = total[i]
            out[name + ".self_s"] = self_time[i]
        for layer in LAYERS:
            out[layer + ".self_s"] = sum(
                self_time[i] for i, name in enumerate(self.names) if name.split(".", 1)[0] == layer
            )
        for name in REPEAT_TRACKED:
            base = calls[self.names.index(name)]
            out[name + ".repeat_ratio"] = self.repeats[name] / base if base else 0.0
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def count_traced_bindings():
    """Number of tracer wrappers bound anywhere in the nilaut namespaces."""
    found = 0
    for mod in _nilaut_modules():
        for value in vars(mod).values():
            if hasattr(value, "__perfbench_traced__"):
                found += 1
            if isinstance(value, type) and value.__module__.startswith("nilaut"):
                for raw in vars(value).values():
                    fn = getattr(raw, "__func__", raw)
                    if hasattr(fn, "__perfbench_traced__"):
                        found += 1
    return found
