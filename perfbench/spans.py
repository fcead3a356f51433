"""Span tracing of symprs from outside the package.

A ``Tracer`` wraps the public functions and methods of each symprs module
(the names in ``FUNCTIONS``, ``METHODS`` and ``CACHED``), records one span
per call in flat in-memory arrays, and keeps per-function call counts and
self times (duration minus the time covered by child spans). Nothing under
``src/`` knows about it: ``install`` rebinds every ``symprs.*`` module
attribute that is the very function object being wrapped (this catches the
names bound by ``from .gf2 import ...``), the class attributes of wrapped
methods, and the function behind each wrapped ``cached_property``.
``restore`` puts every original back.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# (module, attribute, span name)
FUNCTIONS = [
    ("gf2", "row_reduce", "gf2.row_reduce"),
    ("gf2", "inverse", "gf2.inverse"),
    ("gf2", "solve", "gf2.solve"),
    ("gf2", "kernel_basis", "gf2.kernel_basis"),
    ("gf2", "echelon_basis", "gf2.echelon_basis"),
    ("symplectic", "mixed_completion", "symplectic.mixed_completion"),
    ("symplectic", "default_completion_choices", "symplectic.default_completion_choices"),
    ("srs", "minimal_srs", "srs.minimal_srs"),
    ("srs", "quotient", "srs.quotient"),
    ("srs", "restrict", "srs.restrict"),
    ("srs", "enumerate_quotients", "srs.enumerate_quotients"),
    ("srs", "srs_isomorphic", "srs.srs_isomorphic"),
    ("srs", "srs_to_json", "srs.to_json"),
    ("srs", "srs_from_json", "srs.from_json"),
    ("extend", "extend_minimal", "extend.extend_minimal"),
    ("extend", "build_by_extension", "extend.build_by_extension"),
    ("graph", "graph_classes", "graph.graph_classes"),
    ("graph", "is_isomorphic", "graph.is_isomorphic"),
    ("graph", "automorphisms", "graph.automorphisms"),
    ("graph", "max_coclique", "graph.max_coclique"),
    ("graph", "parse_graph", "graph.parse_graph"),
    ("cartan", "group_order", "cartan.group_order"),
    ("cartan", "weyl_rep", "cartan.weyl_rep"),
    ("cartan", "roots", "cartan.roots"),
    ("cartan", "weyl_orbit", "cartan.weyl_orbit"),
    ("grp2", "make_group", "grp2.make_group"),
]

# (module, class, method, span name); BitMat.__matmul__ is split by operand
METHODS = [
    ("symplectic", "SympSpace", "form", "symplectic.form"),
    ("srs", "SRS", "__post_init__", "srs.validate"),
    ("grp2", "CocycleGroup", "multiply", "grp2.multiply"),
    ("grp2", "CocycleGroup", "commutator", "grp2.commutator"),
    ("grp2", "CocycleGroup", "cocycle", "grp2.cocycle"),
    ("grp2", "CocycleGroup", "closure", "grp2.closure"),
]
MATMUL = ("gf2.matvec", "gf2.matmat")

# (module, class, cached_property, span name)
CACHED = [
    ("symplectic", "SympSpace", "basis", "symplectic.basis"),
    ("symplectic", "SympSpace", "radical", "symplectic.radical"),
]

CLI_VERBS = ("type", "minimal", "extend", "verify", "quotients", "weyl", "group", "ade")

LAYERS = ("gf2", "symplectic", "srs", "extend", "graph", "cartan", "grp2", "cli")

SPAN_NAMES = (
    [name for _, _, name in FUNCTIONS]
    + [name for *_, name in METHODS]
    + list(MATMUL)
    + [name for *_, name in CACHED]
    + [f"cli.{verb}" for verb in CLI_VERBS]
)

MARK = "_perfbench_span"


def _symprs_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "symprs" or name.startswith("symprs."))]


class Tracer:
    """Spans of one traced run: start, end, name and parent, kept in memory.

    ``enabled`` can be cleared so that the benchmark's own output checks,
    which call the same library functions, leave no spans.
    """

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self.index = {name: i for i, name in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.starts = array("d")
        self.ends = array("d")
        self.name_ix = array("i")
        self.parents = array("i")
        self.iso_true = 0
        self.enabled = True
        self._stack: list[list] = []  # [span index, time covered by children]
        self._undo: list[tuple] = []

    def wrap(self, fn, name: str):
        """A function that calls ``fn`` inside a span named ``name``."""
        k = self.index[name]
        starts, ends, name_ix, parents = self.starts, self.ends, self.name_ix, self.parents
        stack, calls, self_s = self._stack, self.calls, self.self_s
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(name_ix)
            name_ix.append(k)
            parents.append(stack[-1][0] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                dur = t1 - t0
                calls[k] += 1
                self_s[k] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        setattr(traced, MARK, name)
        return traced

    def exclude(self, seconds: float):
        """Count ``seconds`` spent outside symprs as covered, not self time,
        for the innermost open span."""
        if self._stack:
            self._stack[-1][1] += seconds

    def _rebind(self, original, replacement):
        for mod in _symprs_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def install(self):
        import symprs.cli  # noqa: F401  (with symprs, loads every submodule)
        from symprs import gf2

        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in _symprs_modules()}
        for mod, attr, name in FUNCTIONS:
            original = getattr(mods[mod], attr)
            inner = self._count_hits(original) if attr == "is_isomorphic" else original
            self._rebind(original, self.wrap(inner, name))
        for mod, cls_name, attr, name in METHODS:
            cls = getattr(mods[mod], cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(original, name))
            self._undo.append((cls, attr, original))
        matmul = gf2.BitMat.__dict__["__matmul__"]
        vec, mat = self.wrap(matmul, MATMUL[0]), self.wrap(matmul, MATMUL[1])
        bitvec = gf2.BitVec

        def split_matmul(a, b):
            return vec(a, b) if isinstance(b, bitvec) else mat(a, b)

        setattr(split_matmul, MARK, "gf2.matmul")
        gf2.BitMat.__matmul__ = split_matmul
        self._undo.append((gf2.BitMat, "__matmul__", matmul))
        for mod, cls_name, attr, name in CACHED:
            prop = getattr(mods[mod], cls_name).__dict__[attr]
            self._undo.append((prop, "func", prop.func))
            prop.func = self.wrap(prop.func, name)
        main = mods["cli"].main
        by_verb = {verb: self.wrap(main, f"cli.{verb}") for verb in CLI_VERBS}

        def cli_main(argv):
            return by_verb[argv[0]](argv)

        setattr(cli_main, MARK, "cli.main")
        self._rebind(main, cli_main)

    def _count_hits(self, fn):
        tracer = self

        def counted(g, h):
            found = fn(g, h)
            if found and tracer.enabled:
                tracer.iso_true += 1
            return found

        return counted

    def restore(self):
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)

    def metrics(self) -> dict[str, float]:
        """Per-function calls and self seconds, per-layer self seconds and
        the share of isomorphism tests that found an isomorphism."""
        out: dict[str, float] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[k]
            out[f"{name}.self_s"] = self.self_s[k]
            layer_self[name.split(".", 1)[0]] += self.self_s[k]
        for layer, seconds in layer_self.items():
            out[f"{layer}.self_s"] = seconds
        iso_calls = self.calls[self.index["graph.is_isomorphic"]]
        out["graph.iso_hit_ratio"] = self.iso_true / iso_calls if iso_calls else 0.0
        return out

    def write(self, path: str):
        """Write every span, in call order: a JSON header line, then the
        four arrays (parent is a span index, -1 at top level)."""
        with open(path, "wb") as handle:
            header = {"names": self.names, "count": len(self.name_ix),
                      "arrays": ["start_s", "end_s", "name", "parent"], "typecodes": "ddii"}
            handle.write(json.dumps(header).encode() + b"\n")
            self.starts.tofile(handle)
            self.ends.tofile(handle)
            self.name_ix.tofile(handle)
            self.parents.tofile(handle)


def installed() -> list[str]:
    """Every wrapper currently bound anywhere in symprs (empty when untraced)."""
    found = []
    for mod in _symprs_modules():
        for attr, value in vars(mod).items():
            if hasattr(value, MARK):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for cattr, cvalue in vars(value).items():
                    target = getattr(cvalue, "func", cvalue)
                    if hasattr(target, MARK):
                        found.append(f"{mod.__name__}.{attr}.{cattr}")
    return found
