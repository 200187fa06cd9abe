"""Per-layer tracing installed from outside the qlax package.

``Tracer.install`` wraps the public functions of each layer of ``src/qlax``
(see ``TARGETS``).  A wrapper records one span per call: its name, start,
end and the span that was open when it began (its parent).  Spans live in
flat arrays until the run ends; ``Tracer.metrics`` then computes each
span's self time as its duration minus the time its child spans cover, and
sums self time and calls per name.  Size peaks and work counts are read off
the returned objects as they pass through the wrappers; the time spent
doing so is recorded as a ``trace.bookkeeping`` child span, so it is not
charged to the layer that called the wrapped function.

Names a module imports by value (``from .laxflow import lax_solve``) are
patched wherever they are bound in a ``qlax`` module, not only in their
home module; otherwise calls through those names would escape the trace.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from fractions import Fraction
from typing import Any, Callable, Dict, List, Tuple

# (module, attribute, span name).  "Class.method" attributes are patched on
# the class.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("qlax.cli", "main", "cli.main"),
    ("qlax.problemfile", "load_problem_file", "problemfile.load_problem_file"),
    ("qlax.expr", "parse_operator", "expr.parse_operator"),
    ("qlax.render", "json_value", "render.json_value"),
    ("qlax.render", "residual_report", "render.residual_report"),
    ("qlax.render", "convergence_json", "render.convergence_json"),
    ("qlax.render", "dumps", "render.dumps"),
    ("qlax.laxflow", "lax_solve", "laxflow.lax_solve"),
    ("qlax.laxflow", "iterated_integrals", "laxflow.iterated_integrals"),
    ("qlax.laxflow", "texp", "laxflow.texp"),
    ("qlax.laxflow", "lax_residual", "laxflow.lax_residual"),
    ("qlax.qseries", "QSeries.__mul__", "qseries.mul"),
    ("qlax.qseries", "QSeries.invert_unipotent", "qseries.invert_unipotent"),
    ("qlax.algebra", "TPoly.__mul__", "algebra.tpoly_mul"),
    ("qlax.algebra", "TPoly.__add__", "algebra.tpoly_add"),
    ("qlax.matrix", "RatMatrix.__mul__", "matrix.mul"),
    ("qlax.matrix", "RatMatrix.__add__", "matrix.add"),
    ("qlax.matrix", "convergence_study", "matrix.convergence_study"),
    ("qlax.symops", "transport", "symops.transport"),
    ("qlax.symops", "BiOp.__mul__", "symops.biop_mul"),
    ("qlax.symops", "BiOp.of", "symops.biop_of"),
    ("qlax.symops", "BiOp.apply", "symops.biop_apply"),
    ("qlax.symops", "residual_vanishes", "symops.residual_vanishes"),
    ("qlax.symops", "apply_series", "symops.apply_series"),
    ("qlax.symops", "transported_solution_check", "symops.transported_solution_check"),
    ("qlax.psdo", "compose", "psdo.compose"),
    ("qlax.diffpoly", "DiffPoly.__mul__", "diffpoly.mul"),
    ("qlax.diffpoly", "DiffPoly.dx", "diffpoly.dx"),
    ("qlax.diffpoly", "DiffPoly.of", "diffpoly.of"),
)

BOOKKEEPING = "trace.bookkeeping"


def fraction_bits(x: Any) -> int:
    """Largest numerator-plus-denominator bit length of a Fraction inside x
    (a qlax value: series, polynomial, matrix, BiOp, symbol or DiffPoly)."""
    if isinstance(x, Fraction):
        return x.numerator.bit_length() + x.denominator.bit_length()
    if isinstance(x, (tuple, list)):
        return max((fraction_bits(y) for y in x), default=0)
    for attr in ("coeffs", "entries", "terms"):
        inner = getattr(x, attr, None)
        if inner is not None:
            return fraction_bits(inner)
    return 0


class Tracer:
    """Span recorder; create one per traced pass."""

    # Spans whose returned objects ``_after`` reads sizes and counts from.
    HOOKED = ("symops.biop_of", "diffpoly.of", "psdo.compose", "laxflow.lax_solve", "symops.transport")

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.peaks: Counter = Counter()
        self._undo: List[Callable[[], None]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- size and work bookkeeping on returned objects ---------------------------

    def _peak(self, key: str, value: int) -> None:
        if value > self.peaks[key]:
            self.peaks[key] = value

    def _after(self, name: str, args: tuple, result: Any) -> None:
        if name == "symops.biop_of":
            self.counts["symops.biop_of.pairs_in"] += len(args[1])
            self.counts["symops.biop_of.pairs_out"] += len(result.terms)
            self._peak("size.biop_terms_peak", len(result.terms))
        elif name == "diffpoly.of":
            self._peak("size.diffpoly_monomials_peak", len(result.terms))
        elif name == "psdo.compose":
            self.counts["psdo.compose.out_terms"] += sum(len(dp.terms) for _, dp in result.terms)
            self._peak("size.fraction_bits_peak", fraction_bits(result))
        elif name == "laxflow.lax_solve":
            self._peak("size.fraction_bits_peak", max(fraction_bits(result.w), fraction_bits(result.lq)))
        elif name == "symops.transport":
            self._peak("size.fraction_bits_peak", fraction_bits(result))

    def _wrap(self, fn: Callable, name: str) -> Callable:
        nid = self._id(name)
        bk = self._id(BOOKKEEPING)
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter
        hooked = name in self.HOOKED
        after = self._after
        materialize = name == "symops.biop_of"

        def traced(*args, **kwargs):
            if materialize:  # BiOp.of(alg, pairs): count the pairs it is given
                args = (args[0], tuple(args[1])) + args[2:]
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hooked:
                t0 = ends[idx]
                after(name, args, result)
                names.append(bk)
                parents.append(stack[-1])
                starts.append(t0)
                ends.append(clock())
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing and removing the wrappers -----------------------------------------

    def install(self) -> None:
        qlax_modules = [m for n, m in sys.modules.items() if n == "qlax" or n.startswith("qlax.")]
        for module_name, attr, name in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    setattr(cls, meth, staticmethod(self._wrap(raw.__func__, name)))
                else:
                    setattr(cls, meth, self._wrap(raw, name))
                self._undo.append(lambda cls=cls, meth=meth, raw=raw: setattr(cls, meth, raw))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, name)
            for mod in qlax_modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._undo.append(lambda mod=mod, key=key, value=value: setattr(mod, key, value))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results ---------------------------------------------------------------

    def self_times(self) -> Tuple[Dict[str, float], Dict[str, int], float]:
        """Per-name self time and calls, and the summed duration of the
        top-level spans."""
        n = len(self.span_start)
        starts, ends, parents, names = self.span_start, self.span_end, self.span_parent, self.span_name
        covered = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        top = 0.0
        for i in range(n):
            dur = ends[i] - starts[i]
            self_s[names[i]] += dur - covered[i]
            calls[names[i]] += 1
            if parents[i] < 0:
                top += dur
        return dict(zip(self.names, self_s)), dict(zip(self.names, calls)), top

    def metrics(self, wall_s: float) -> Dict[str, float]:
        """The layer metrics of a traced pass that took ``wall_s`` seconds."""
        self_s, calls, top = self.self_times()
        out: Dict[str, float] = {}
        for _, _, name in TARGETS:
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out["render.self_s"] = sum(v for k, v in self_s.items() if k.startswith("render."))
        out["trace.bookkeeping_s"] = self_s.get(BOOKKEEPING, 0.0)
        out["other.self_s"] = wall_s - top
        pairs_in = self.counts["symops.biop_of.pairs_in"]
        out["symops.biop_of.kept_ratio"] = self.counts["symops.biop_of.pairs_out"] / pairs_in if pairs_in else 0.0
        out["psdo.compose.out_terms"] = self.counts["psdo.compose.out_terms"]
        for key in ("size.biop_terms_peak", "size.diffpoly_monomials_peak", "size.fraction_bits_peak"):
            out[key] = self.peaks[key]
        return out
