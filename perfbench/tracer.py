"""Spans and counters installed around the package's functions from the
outside, so per-layer numbers need no change to the package.

A span records name, start, end, parent span and a group id; spans of one
census class, one corpus request or one census run share the group id.
Spans are kept in memory in flat arrays and written out when the traced
run ends.  Hot functions (scalar arithmetic, ``bracket``, ``echelonize``)
get counters only, and generators get a count of the items they yield.

A wrapper replaces a function on every module that bound its name (so
``census.is_quasi_ideal`` is wrapped as well as ``quasi.is_quasi_ideal``);
a method is replaced on its class.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# layer name -> package module
LAYERS = {
    "fields": "quasileib.fields",
    "linalg": "quasileib.linalg",
    "algebra": "quasileib.algebra",
    "quasi": "quasileib.quasi",
    "families": "quasileib.families",
    "census": "quasileib.census",
    "gf2sweep": "quasileib._gf2sweep",
    "cli": "quasileib.cli",
}

# (layer, function) pairs that get a span
SPANS = {
    "gf2sweep": ("_tables", "survivors_for_r2", "canonicalize", "run"),
    "census": (
        "sweep_tables",
        "_generic_exhaustive",
        "_sampled_sweep",
        "canonical_table_key",
        "_analyze_class",
        "classify_q_member",
        "in_class_q",
        "lemma_harness",
        "_harness_one",
    ),
    "algebra": (
        "table_from_json",
        "validate",
        "subalgebras",
        "squares_ideal",
        "center",
        "series",
        "subalgebra_closure",
        "quotient",
    ),
    "quasi": (
        "is_quasi_ideal",
        "is_quasi_ideal_oracle",
        "quasi_ideals",
        "lemma_suite",
        "subquasi_chain",
        "is_engel_algebra",
        "core",
    ),
    "linalg": ("rref",),
    "families": (
        "is_anisotropic",
        "build",
        "abelian",
        "almost_abelian_lie",
        "k2",
        "non_lie_almost_abelian",
        "two_dim_nilpotent_cyclic",
        "two_dim_solvable_cyclic",
        "extraspecial_sum",
        "char2_nonperfect",
        "char2_nonperfect_minimal",
    ),
    "cli": ("run", "_emit"),
}

# spans that open a group, with the position of the argument that names
# it: the analysis and the lemma harness of one census class share the
# class's algebra, so they share a group
NEW_GROUP = {"census._analyze_class": 1, "census._harness_one": 1}

FAMILY_BUILDERS = tuple(
    f"families.{name}" for name in SPANS["families"] if name != "is_anisotropic"
)

# functions that get a counter only, and generators whose yields are counted;
# the methods that get counters are listed in Tracer.install
COUNTED_FUNCTIONS = {
    "linalg": ("echelonize",),
    "quasi": ("is_quasi_ideal_in", "_decide_quasi_in"),
}
YIELD_COUNTED = {"linalg": ("enumerate_subspaces", "projective_points")}
SCALAR_DUNDERS = (
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__rtruediv__",
    "__neg__",
    "__pow__",
    "__eq__",
    "__bool__",
)
RAW_OPS = ("raw_add", "raw_neg", "raw_mul", "raw_inv", "raw_is_square", "raw_sqrt")
FIELD_CLASSES = ("Field", "PrimeField", "RationalField", "FunctionField")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_group = array("i")
        self.span_outer = array("b")  # no enclosing span of the same name
        self.stack = []
        self.groups = [0]
        self._group_ids = {}
        self._active = []
        self.counts = {}

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._ids[name]

    def counter(self, name):
        return self.counts.setdefault(name, [0])

    def reset_counts(self):
        """Zero every counter, so that counts cover only what follows."""
        for cell in self.counts.values():
            cell[0] = 0

    # -- wrappers ----------------------------------------------------------

    def span(self, name, fn, group_arg=None, observe=None):
        """Wrap fn in a span; ``observe(result)`` runs after the span ends.

        With ``group_arg`` set, the span and everything under it get the
        group id of that positional argument (one id per distinct object);
        other spans inherit the enclosing group, 0 outside any."""
        nid = self._id(name)
        if group_arg is None:
            group_arg = NEW_GROUP.get(name)
        group_ids = self._group_ids
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, groups, outer = self.span_parent, self.span_group, self.span_outer
        stack, gstack, active = self.stack, self.groups, self._active
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            if group_arg is not None:
                key = id(args[group_arg])
                gstack.append(group_ids.setdefault(key, len(group_ids) + 1))
            groups.append(gstack[-1])
            outer.append(active[nid] == 0)
            active[nid] += 1
            stack.append(idx)
            ends.append(0)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                active[nid] -= 1
                if group_arg is not None:
                    gstack.pop()
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def count(self, name, fn, arity=None):
        cell = self.counter(name)
        if arity == 1:

            def wrapper(a):
                cell[0] += 1
                return fn(a)

        elif arity == 2:

            def wrapper(a, b):
                cell[0] += 1
                return fn(a, b)

        else:

            def wrapper(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    def count_yields(self, name, fn):
        cell = self.counter(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                cell[0] += 1
                yield item

        return wrapper

    # -- installation ------------------------------------------------------

    def replace_function(self, module, attr, make):
        """Replace ``module.attr`` by ``make(original)`` on every loaded
        module of the package, and on the benchmark's own modules, that
        bound the same object."""
        original = getattr(module, attr)
        wrapper = make(original)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if not (name.startswith("quasileib") or name == "corpus"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def replace_method(self, cls, attr, make):
        if attr in cls.__dict__:
            setattr(cls, attr, make(cls.__dict__[attr]))

    def install(self):
        """Wrap every layer whose module is loaded.  Functions, methods and
        modules the package no longer has are skipped, so their metrics
        read 0."""
        for layer, modname in LAYERS.items():
            module = sys.modules.get(modname)
            if module is None:
                continue
            for fname in SPANS.get(layer, ()):
                if not hasattr(module, fname):
                    continue
                name = f"{layer}.{fname}"
                self.replace_function(
                    module,
                    fname,
                    lambda fn, name=name: self.span(name, fn, observe=self._observer(name)),
                )
            for fname in COUNTED_FUNCTIONS.get(layer, ()):
                if hasattr(module, fname):
                    name = f"{layer}.{fname}"
                    self.replace_function(
                        module, fname, lambda fn, name=name: self.count(name, fn)
                    )
            for fname in YIELD_COUNTED.get(layer, ()):
                if hasattr(module, fname):
                    name = f"{layer}.{fname}"
                    self.replace_function(
                        module, fname, lambda fn, name=name: self.count_yields(name, fn)
                    )
        algebra = sys.modules.get(LAYERS["algebra"])
        if hasattr(algebra, "LeibnizAlgebra"):
            self.replace_method(
                algebra.LeibnizAlgebra,
                "bracket",
                lambda fn: self.count("algebra.bracket", fn),
            )
        fields = sys.modules.get(LAYERS["fields"])
        if hasattr(fields, "Scalar"):
            for dunder in SCALAR_DUNDERS:
                arity = 1 if dunder in ("__neg__", "__bool__") else 2
                self.replace_method(
                    fields.Scalar,
                    dunder,
                    lambda fn, arity=arity: self.count("fields.scalar_ops", fn, arity),
                )
            for clsname in FIELD_CLASSES:
                cls = getattr(fields, clsname, None)
                if cls is None:
                    continue
                for raw in RAW_OPS:
                    self.replace_method(
                        cls, raw, lambda fn: self.count("fields.raw_ops", fn)
                    )
                if clsname != "Field":
                    self.replace_method(
                        cls, "__eq__", lambda fn: self.count("fields.field_eq", fn, 2)
                    )

    def _observer(self, name):
        if name == "algebra.validate":
            ok = self.counter("algebra.validate.ok")
            return lambda result: ok.__setitem__(0, ok[0] + bool(result.ok))
        if name == "algebra.subalgebras":
            yielded = self.counter("algebra.subalgebras.yielded")
            return lambda result: yielded.__setitem__(0, yielded[0] + len(result))
        if name == "gf2sweep.run":
            survivors = self.counter("gf2sweep.survivors")
            classes = self.counter("gf2sweep.classes")

            def observe(result):
                survivors[0] += result[1]
                classes[0] += len(result[2])

            return observe
        return None

    # -- results -----------------------------------------------------------

    def spans(self):
        """Per-span (name, duration ns, self ns, outer, root) rows; spans
        are stored in start order, so parents come first."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0] * n
        root = [0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
                root[i] = root[p]
            else:
                root[i] = i
        return [
            (
                self.names[self.span_name[i]],
                dur[i],
                dur[i] - child[i],
                bool(self.span_outer[i]),
                root[i],
            )
            for i in range(n)
        ]

    def dump(self, path):
        """Write every span and counter as JSON."""
        t0 = self.span_start[0] if self.span_start else 0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.span_name.tolist(),
                    "start_ns": [s - t0 for s in self.span_start],
                    "end_ns": [e - t0 for e in self.span_end],
                    "parent": self.span_parent.tolist(),
                    "group": self.span_group.tolist(),
                    "counts": {k: v[0] for k, v in self.counts.items()},
                },
                fh,
            )


def layer_metrics(tracer, op_root_name):
    """Per-layer metrics over the spans under the top-level span named
    ``op_root_name``; family constructor time is taken from every span."""
    rows = tracer.spans()
    roots = {i for i, row in enumerate(rows) if row[0] == op_root_name and row[4] == i}
    calls, total, self_ns = {}, {}, {}
    # fields has counters only, so no self time of its own
    layer_self = {layer: 0 for layer in LAYERS if layer != "fields"}
    layer_self["bench"] = 0
    build_ns = 0
    for name, dur, own, outer, root in rows:
        if name in FAMILY_BUILDERS and outer:
            build_ns += dur
        if root not in roots:
            continue
        calls[name] = calls.get(name, 0) + 1
        if outer:
            total[name] = total.get(name, 0) + dur
        self_ns[name] = self_ns.get(name, 0) + own
        if name != op_root_name:
            layer_self[name.split(".", 1)[0]] += own
    counts = {k: v[0] for k, v in tracer.counts.items()}
    s = lambda ns: ns / 1e9
    t = lambda name: s(total.get(name, 0))
    c = lambda name: calls.get(name, 0)
    ratio = lambda num, den: num / den if den else 0.0
    m = {
        "gf2sweep.tables_s": t("gf2sweep._tables"),
        "gf2sweep.filter_s": s(self_ns.get("gf2sweep.survivors_for_r2", 0)),
        "gf2sweep.filter.calls": c("gf2sweep.survivors_for_r2"),
        "gf2sweep.survivors": counts.get("gf2sweep.survivors", 0),
        "gf2sweep.canon_s": s(self_ns.get("gf2sweep.canonicalize", 0)),
        "gf2sweep.classes": counts.get("gf2sweep.classes", 0),
        "gf2sweep.run_s": t("gf2sweep.run"),
        "census.generate_s": t("census._generic_exhaustive") + t("census._sampled_sweep"),
        "census.canonical_key.calls": c("census.canonical_table_key"),
        "census.canonical_key_s": t("census.canonical_table_key"),
        "census.analyze_class.calls": c("census._analyze_class"),
        "census.analyze_class_s": t("census._analyze_class"),
        "census.classify_s": t("census.classify_q_member"),
        "census.in_class_q_s": t("census.in_class_q"),
        "census.lemma_harness_s": t("census.lemma_harness"),
        "algebra.validate.calls": c("algebra.validate"),
        "algebra.validate_s": t("algebra.validate"),
        "algebra.valid_ratio": ratio(
            counts.get("algebra.validate.ok", 0), c("algebra.validate")
        ),
        "algebra.bracket.calls": counts.get("algebra.bracket", 0),
        "algebra.subalgebras.calls": c("algebra.subalgebras"),
        "algebra.subalgebras_s": t("algebra.subalgebras"),
        "algebra.subalgebras.yielded": counts.get("algebra.subalgebras.yielded", 0),
        "algebra.table_from_json_s": t("algebra.table_from_json"),
        "quasi.is_quasi_ideal.calls": c("quasi.is_quasi_ideal"),
        "quasi.is_quasi_ideal_s": t("quasi.is_quasi_ideal"),
        "quasi.cache_hit_ratio": 1.0
        - ratio(counts.get("quasi._decide_quasi_in", 0), counts.get("quasi.is_quasi_ideal_in", 0))
        if counts.get("quasi.is_quasi_ideal_in")
        else 0.0,
        "quasi.oracle.calls": c("quasi.is_quasi_ideal_oracle"),
        "quasi.oracle_s": t("quasi.is_quasi_ideal_oracle"),
        "quasi.quasi_ideals_s": t("quasi.quasi_ideals"),
        "quasi.lemma_suite_s": t("quasi.lemma_suite"),
        "quasi.subquasi_chain_s": t("quasi.subquasi_chain"),
        "quasi.engel_s": t("quasi.is_engel_algebra"),
        "quasi.core_s": t("quasi.core"),
        "linalg.rref.calls": c("linalg.rref"),
        "linalg.rref_s": t("linalg.rref"),
        "linalg.echelonize.calls": counts.get("linalg.echelonize", 0),
        "linalg.enumerate_subspaces.yielded": counts.get("linalg.enumerate_subspaces", 0),
        "linalg.projective_points.yielded": counts.get("linalg.projective_points", 0),
        "fields.scalar_ops": counts.get("fields.scalar_ops", 0),
        "fields.raw_ops": counts.get("fields.raw_ops", 0),
        "fields.field_eq.calls": counts.get("fields.field_eq", 0),
        "families.build_s": s(build_ns),
        "families.is_anisotropic.calls": c("families.is_anisotropic"),
        "families.is_anisotropic_s": t("families.is_anisotropic"),
        "cli.run_s": t("cli.run"),
        "cli.emit_s": t("cli._emit"),
    }
    for layer, ns in layer_self.items():
        m[f"{layer}.self_s"] = s(ns)
    # the benchmark's own loop inside the run: garbage collection and
    # output checks between requests
    m["bench.loop_s"] = s(self_ns.get(op_root_name, 0))
    return m
