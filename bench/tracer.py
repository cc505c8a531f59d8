"""Per-layer tracing of walgebra from outside the package.

The tracer wraps named public functions and methods of each walgebra module
and rebinds every module-level alias of them (``pbw`` and ``structure``
import ``kernel_basis``, ``solve`` and ``bracket`` by name), so a call is
traced however it is reached.  A name that no longer exists raises at
install time instead of reporting zero calls, and ``uninstall`` puts every
original back.

Spans are reduced as they close: per span name the tracer keeps the call
count, the self time (the span's duration minus the durations of the spans
it caused) and a few work counters.  Updating the counters is timed apart
(``count_s``) and charged to no span, so the self times of all spans, the
counter time and the time outside every span add up to the traced wall
time.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field
from time import perf_counter

# (span name, module, qualified name); a qualified name with a dot is a
# method of a class in that module.  Two targets may share a span name.
SPANS: tuple[tuple[str, str, str], ...] = (
    ("linalg.kernel_basis", "linalg", "kernel_basis"),
    ("linalg.solve", "linalg", "solve"),
    ("linalg.rank", "linalg", "rank"),
    ("linalg.echelon", "linalg", "Echelon.insert"),
    ("linalg.echelon", "linalg", "Echelon.contains"),
    ("gl.bracket", "gl", "bracket"),
    ("gl.matmul", "gl", "GlElement.matmul"),
    ("gl.ad_matrix", "gl", "ad_matrix"),
    ("gl.trace_form", "gl", "trace_form"),
    ("pbw.multiply", "pbw", "PbwContext.multiply"),
    ("pbw.ad_action", "pbw", "PbwContext.ad_action"),
    ("pbw.q_reduce", "pbw", "PbwContext.q_reduce"),
    ("pbw.from_gl", "pbw", "PbwContext.from_gl"),
    ("pbw.w_space_basis", "pbw", "PbwContext.w_space_basis"),
    ("pbw.complement_words", "pbw", "PbwContext.complement_words"),
    ("pbw.from_pyramid", "pbw", "PbwContext.from_pyramid"),
    ("pbw.standard", "pbw", "PbwContext.standard"),
    ("pbw.rdet_w_generators", "pbw", "PbwContext.rdet_w_generators"),
    ("brst.multiply", "brst", "BrstContext.multiply"),
    ("brst.build_phi", "brst", "BrstContext.build_phi"),
    ("brst.d", "brst", "BrstContext.d"),
    ("brst.d_generator", "brst", "BrstContext.d_generator"),
    ("brst.check_d_squared", "brst", "BrstContext.check_d_squared"),
    ("structure.check_good", "structure", "check_good"),
    ("structure.slodowy_degrees", "structure", "slodowy_degrees"),
    ("structure.symplectic_pairs", "structure", "symplectic_pairs"),
    ("structure.sl2_complete", "structure", "sl2_complete"),
    ("structure.low_degree_units", "structure", "low_degree_units"),
    ("structure.m_from_isotropic", "structure", "m_from_isotropic"),
    ("polytope.integral_good_points", "polytope", "integral_good_points"),
    ("polytope.adjacent", "polytope", "adjacent"),
    ("polytope.common_m_for_adjacent", "polytope", "common_m_for_adjacent"),
    ("polytope.is_good_point", "polytope", "is_good_point"),
    ("polytope.weights_and_d", "polytope", "weights_and_d"),
    ("polytope.grading_of_point", "polytope", "grading_of_point"),
    ("pyramids.enumerate_pyramids", "pyramids", "enumerate_pyramids"),
    ("pyramids.labeling", "pyramids", "labeling"),
    ("pyramids.grading_of", "pyramids", "grading_of"),
    ("pyramids.nilpotent_of", "pyramids", "nilpotent_of"),
    ("pyramids.rows_by_labels", "pyramids", "rows_by_labels"),
    ("pyramids.diagram_column", "pyramids", "diagram_column"),
    ("partitions.partitions_of", "partitions", "partitions_of"),
    ("partitions.jordan_matrix", "partitions", "jordan_matrix"),
    ("partitions.conjugate", "partitions", "conjugate"),
    ("partitions.centralizer_dim", "partitions", "centralizer_dim"),
)

# Work counters per span, recorded at the span boundary outside its time.
COUNTERS = {
    "linalg.kernel_basis": ("nnz_in", "cells_in", "dim_out", "max_coeff_bits"),
    "linalg.solve": ("max_coeff_bits",),
    "pbw.multiply": ("terms_out",),
}

LAYERS = ("linalg", "gl", "pbw", "brst", "structure", "polytope",
          "pyramids", "partitions")


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    # Layer-specific counters, e.g. nonzeros fed to kernel_basis.
    counters: dict[str, int] = field(default_factory=dict)

    def add(self, counter: str, value: int):
        self.counters[counter] = self.counters.get(counter, 0) + value

    def peak(self, counter: str, value: int):
        self.counters[counter] = max(self.counters.get(counter, 0), value)


def _max_bits(vectors) -> int:
    best = 0
    for vec in vectors:
        for c in vec:
            best = max(best, c.numerator.bit_length(),
                       c.denominator.bit_length())
    return best


def _count(name: str, stats: SpanStats, args, result):
    if name == "linalg.kernel_basis":
        (m,) = args
        stats.add("nnz_in", len(m.entries))
        stats.add("cells_in", m.rows * m.cols)
        stats.add("dim_out", len(result))
        stats.peak("max_coeff_bits", _max_bits(result))
    elif name == "linalg.solve" and result is not None:
        stats.peak("max_coeff_bits", _max_bits([result]))
    elif name == "pbw.multiply":
        stats.add("terms_out", len(result.terms))


class Tracer:
    """Installs span wrappers into walgebra and accumulates their stats."""

    def __init__(self, spans: tuple[tuple[str, str, str], ...] = SPANS):
        self.spans = spans
        # Seconds clock of the spans, read when wrappers are installed; a
        # clock that stops during speed-sampling bursts keeps them out.
        self.clock = perf_counter
        self.stats: dict[str, SpanStats] = {}
        self.reset()
        self._stack: list[list] = []  # [name, child time] per open span
        self._restore: list[tuple[object, str, object]] = []

    def reset(self):
        self.stats = {
            name: SpanStats(counters=dict.fromkeys(COUNTERS.get(name, ()), 0))
            for name, _, _ in self.spans}
        self.top_s = 0.0  # time inside outermost spans and their counting
        self.count_s = 0.0  # time spent updating work counters

    # -- installation -------------------------------------------------------

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "walgebra" or name.startswith("walgebra."))
                   and m is not None]
        try:
            for span, mod_name, qualname in self.spans:
                self._install_one(span, mod_name, qualname, modules)
        except BaseException:
            self.uninstall()
            raise

    def _install_one(self, span, mod_name, qualname, modules):
        module = sys.modules.get(f"walgebra.{mod_name}")
        if module is None:
            raise RuntimeError(f"module walgebra.{mod_name} is not loaded")
        owner = module
        *outer, attr = qualname.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
            if owner is None:
                raise RuntimeError(
                    f"traced name walgebra.{mod_name}.{qualname} is missing")
        raw = vars(owner).get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if raw is None:
            raise RuntimeError(
                f"traced name walgebra.{mod_name}.{qualname} is missing")
        if isinstance(raw, staticmethod):
            replacement = staticmethod(self._wrap(span, raw.__func__))
        elif callable(raw):
            replacement = self._wrap(span, raw)
        else:
            raise RuntimeError(
                f"traced name walgebra.{mod_name}.{qualname} is not callable")
        if isinstance(owner, type):
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, replacement)
            return
        # A module-level function: rebind it wherever it was imported.
        for mod in modules:
            for alias, value in list(vars(mod).items()):
                if value is raw:
                    self._restore.append((mod, alias, raw))
                    setattr(mod, alias, replacement)

    def uninstall(self):
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- spans ----------------------------------------------------------------

    def _wrap(self, name: str, fn):
        stack = self._stack
        counted = name in COUNTERS
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            done = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                dt = clock() - t0
                stack.pop()
                stats = self.stats[name]
                stats.calls += 1
                stats.self_s += dt - frame[1]
                if counted and done:
                    t1 = clock()
                    _count(name, stats, args, result)
                    dc = clock() - t1
                    self.count_s += dc
                    # Counting runs inside the caller's span but is not
                    # its work: charge it to the caller as child time.
                    dt += dc
                if stack:
                    stack[-1][1] += dt
                else:
                    self.top_s += dt

        traced.__wrapped_by_bench__ = True
        return traced

    # -- reports ----------------------------------------------------------------

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Flat per-layer metrics for a traced span of wall_s seconds."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
        for name, st in self.stats.items():
            layer = name.split(".")[0]
            out[f"{layer}.calls"] += st.calls
            out[f"{layer}.self_s"] += st.self_s
            out[f"{name}.calls"] = st.calls
            out[f"{name}.self_s"] = st.self_s
            for counter, value in st.counters.items():
                out[f"{name}.{counter}"] = value
        bits = [st.counters.get("max_coeff_bits", 0)
                for n, st in self.stats.items() if n.startswith("linalg.")]
        out["linalg.max_coeff_bits"] = max(bits, default=0)
        out["trace.count_s"] = self.count_s
        out["bench.self_s"] = wall_s - self.top_s
        return out


def is_patched() -> bool:
    """True when any walgebra module attribute or class attribute is a
    tracer wrapper."""
    for name, mod in list(sys.modules.items()):
        if not (name == "walgebra" or name.startswith("walgebra.")) \
                or mod is None:
            continue
        for value in vars(mod).values():
            targets = [value]
            if isinstance(value, type) and value.__module__ == name:
                targets = [v.__func__ if isinstance(v, staticmethod) else v
                           for v in vars(value).values()]
            if any(getattr(t, "__wrapped_by_bench__", False)
                   for t in targets):
                return True
    return False
