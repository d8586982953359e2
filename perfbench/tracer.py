"""Layer tracing for the benchmark, installed from outside the program.

The tracer replaces eptl's layer entry points with timing wrappers: the
function objects in every ``eptl.*`` module namespace that binds them
(modules use ``from .x import y``), methods on their classes, the
arithmetic of ``fractions.Fraction`` and four ``numpy.linalg`` calls.

Every wrapped call adds to a per-function count and self time: the time
inside the wrapped function minus the time of wrapped calls nested in
it.  A nested call is charged to its caller as a child from wrapper
entry to wrapper exit, so the wrapper's own work (timestamps, stat and
span bookkeeping) is in no layer's self time; it is reported as
``wrapper_s``.  Counter hooks read traffic shares (term pairs per
product, useful matmul visits, null actions) from arguments and results;
their time is also in no self time and is reported as ``hook_s``.  What
the tracer cannot time is the call into a wrapper and the return out of
it; ``residual_s`` estimates that part, which is still charged to the
caller's self time, from a calibration of the per-call cost.

Entry points marked as spans also keep one span per call in memory;
ring-level calls are too many for that and are only aggregated.

``uninstall`` restores every binding, so a tracer only affects calls
made between ``install`` and ``uninstall``.
"""

from __future__ import annotations

import fractions
import sys
import time

perf = time.perf_counter

# Spans beyond this many are counted, not stored, to bound memory.
MAX_SPANS = 200_000

FRACTION_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__",
)
LINALG_CALLS = ("eigvals", "svd", "slogdet", "norm")

_RAISED = object()  # the result of a wrapped call that raised


class Tracer:
    def __init__(self):
        self.stats: dict = {}  # key -> [calls, self_s]
        self.counts: dict = {}
        self.sectors: set = set()
        self.spans: list = []
        self.spans_dropped = 0
        self.hook_s = 0.0
        self.wrapper_s = 0.0
        self.kernel_s = 0.0
        self.task_id = None
        self._children = [0.0]  # child-time accumulator per open frame
        self._open_span = [None]
        self._next_id = 0
        self._undo: list = []

    # -- counters -------------------------------------------------------

    def add(self, key: str, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _count_poly_mul(self, args, result):
        a = getattr(args[0], "terms", None)
        b = getattr(args[1], "terms", None) if len(args) > 1 else None
        if a is None or b is None:
            return
        self.add("poly_mul_term_pairs", len(a) * len(b))
        if min(len(a), len(b)) == 1:
            self.add("poly_mul_monomial")
        coeffs = getattr(result, "terms", {}).values()
        self.add("product_coeffs", len(coeffs))
        self.add(
            "integer_coeffs",
            sum(1 for c in coeffs if c.re.denominator == 1 and c.im.denominator == 1),
        )

    def _count_matmul(self, args, result):
        left, right = args[0], args[1]
        self.add("matmul_visits", left.rows * right.cols * left.cols)
        col_nonzero = [0] * left.cols
        for row in left.entries:
            for k, e in enumerate(row):
                if e:
                    col_nonzero[k] += 1
        self.add(
            "matmul_products",
            sum(c * sum(1 for e in row if e) for c, row in zip(col_nonzero, right.entries) if c),
        )

    def _count_act(self, args, result):
        if result is None:
            self.add("act_null")

    def _count_transfer(self, args, result):
        self.sectors.add(tuple(args[:2]))

    # -- spans and timing -------------------------------------------------

    def exclude(self, seconds: float):
        """Keep ``seconds`` just spent by the speed clock out of the open call's self time."""
        self._children[-1] += seconds
        self.kernel_s += seconds

    def run_span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named ``name``; returns its result."""
        return self._wrap(name, fn, span=True)(*args, **kwargs)

    def _wrap(self, key: str, fn, span: bool = False, hook=None):
        stat = self.stats.setdefault(key, [0, 0.0])
        children = self._children
        open_span = self._open_span
        tracer = self

        def wrapper(*args, **kwargs):
            e0 = perf()
            if span:
                tracer._next_id += 1
                span_id = tracer._next_id
                parent = open_span[-1]
                open_span.append(span_id)
            children.append(0.0)
            result = _RAISED
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stat[0] += 1
                stat[1] += t1 - t0 - children.pop()
                if span:
                    open_span.pop()
                    if len(tracer.spans) < MAX_SPANS:
                        tracer.spans.append((span_id, parent, tracer.task_id, key, t0, t1))
                    else:
                        tracer.spans_dropped += 1
                dh = 0.0
                if hook is not None and result is not _RAISED:
                    h0 = perf()
                    hook(args, result)
                    dh = perf() - h0
                    tracer.hook_s += dh
                e1 = perf()
                children[-1] += e1 - e0
                tracer.wrapper_s += e1 - e0 - (t1 - t0) - dh
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- installation -----------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, module: str, name: str, key: str, span=False, hook=None):
        original = getattr(sys.modules[module], name)
        wrapper = self._wrap(key, original, span, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "eptl" or mod_name.startswith("eptl.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _patch_method(self, cls, name: str, key: str, span=False, hook=None):
        self._set(cls, name, self._wrap(key, cls.__dict__[name], span, hook))

    def install(self):
        import numpy.linalg

        import eptl.cli  # noqa: F401  (loads every module that binds a name)
        from eptl.linkrep import RingMatrix
        from eptl.ring import LaurentPoly

        m = self._patch_method
        m(LaurentPoly, "__mul__", "ring.poly_mul", hook=self._count_poly_mul)
        m(LaurentPoly, "__add__", "ring.poly_add")
        m(LaurentPoly, "exact_div", "ring.exact_div")
        for op in FRACTION_OPS:
            m(fractions.Fraction, op, "ring.fraction")
        m(RingMatrix, "__matmul__", "linkrep.matmul", hook=self._count_matmul)
        m(RingMatrix, "to_numeric", "linkrep.to_numeric", span=True)

        f = self._patch_function
        f("eptl.linkrep", "omega_matrix", "linkrep.omega_matrix")
        f("eptl.linkrep", "gram_matrix", "linkrep.gram_matrix", span=True)
        f("eptl.spinrep", "tau_matrix", "spinrep.tau_matrix")
        f("eptl.spinrep", "hamiltonian_numeric", "spinrep.hamiltonian_numeric", span=True)
        f("eptl.intertwiner", "det_exact", "intertwiner.det_exact", span=True)
        f("eptl.intertwiner", "i_matrix", "intertwiner.i_matrix", span=True)
        f("eptl.intertwiner", "factorization_check", "intertwiner.factorization", span=True)
        f("eptl.intertwiner", "i_matrix_numeric", "intertwiner.i_matrix_numeric", span=True)
        f("eptl.projectors", "gamma_block_report", "projectors.gamma_block", span=True)
        f("eptl.projectors", "u_transform", "projectors.u_transform", span=True)
        f("eptl.projectors", "gamma_matrix", "projectors.gamma_matrix", span=True)
        f("eptl.projectors", "wenzl_jones", "projectors.wenzl_jones", span=True)
        f("eptl.diagrams", "act_on_link", "diagrams.act", hook=self._count_act)
        f("eptl.diagrams", "compose", "diagrams.compose")
        f("eptl.transfer", "transfer_matrix", "transfer.matrix", span=True, hook=self._count_transfer)
        f("eptl.cli", "main", "cli.main", span=True)
        for name in LINALG_CALLS:
            self._set(numpy.linalg, name, self._wrap("linalg", getattr(numpy.linalg, name), span=True))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------

    def summary(self, wall: float, output_bytes: int) -> dict:
        """Per-layer metrics of one traced pass, plus the raw aggregates."""
        from eptl.states import enumerate_states
        from eptl.transfer import tile_diagram

        def calls(key):
            return self.stats.get(key, [0, 0.0])[0]

        def self_s(key):
            return self.stats.get(key, [0, 0.0])[1]

        def layer_s(layer):
            return sum(s for k, (_, s) in self.stats.items() if k.startswith(layer + "."))

        def ratio(a, b):
            return a / b if b else 0.0

        c = self.counts.get
        states, tiles = enumerate_states.cache_info(), tile_diagram.cache_info()
        task_s = sum(t1 - t0 for _, _, _, key, t0, t1 in self.spans if key.startswith("task:"))
        metrics = {
            "ring.poly_mul_calls": calls("ring.poly_mul"),
            "ring.poly_mul_self_s": self_s("ring.poly_mul"),
            "ring.poly_mul_term_pairs": c("poly_mul_term_pairs", 0),
            "ring.poly_mul_monomial_ratio": ratio(c("poly_mul_monomial", 0), calls("ring.poly_mul")),
            "ring.integer_coeff_ratio": ratio(c("integer_coeffs", 0), c("product_coeffs", 0)),
            "ring.exact_div_calls": calls("ring.exact_div"),
            "ring.exact_div_self_s": self_s("ring.exact_div"),
            "ring.poly_add_calls": calls("ring.poly_add"),
            "ring.poly_add_self_s": self_s("ring.poly_add"),
            "ring.fraction_ops": calls("ring.fraction"),
            "ring.fraction_self_s": self_s("ring.fraction"),
            "ring.self_s": layer_s("ring"),
            "linkrep.matmul_calls": calls("linkrep.matmul"),
            "linkrep.matmul_self_s": self_s("linkrep.matmul"),
            "linkrep.matmul_visits": c("matmul_visits", 0),
            "linkrep.matmul_products": c("matmul_products", 0),
            "linkrep.matmul_useful_ratio": ratio(c("matmul_products", 0), c("matmul_visits", 0)),
            "linkrep.omega_matrix_self_s": self_s("linkrep.omega_matrix"),
            "linkrep.gram_matrix_self_s": self_s("linkrep.gram_matrix"),
            "linkrep.to_numeric_self_s": self_s("linkrep.to_numeric"),
            "linkrep.self_s": layer_s("linkrep"),
            "spinrep.tau_matrix_calls": calls("spinrep.tau_matrix"),
            "spinrep.tau_matrix_self_s": self_s("spinrep.tau_matrix"),
            "spinrep.hamiltonian_numeric_self_s": self_s("spinrep.hamiltonian_numeric"),
            "spinrep.self_s": layer_s("spinrep"),
            "intertwiner.det_exact_calls": calls("intertwiner.det_exact"),
            "intertwiner.det_exact_self_s": self_s("intertwiner.det_exact"),
            "intertwiner.i_matrix_self_s": self_s("intertwiner.i_matrix"),
            "intertwiner.factorization_self_s": self_s("intertwiner.factorization"),
            "intertwiner.i_matrix_numeric_calls": calls("intertwiner.i_matrix_numeric"),
            "intertwiner.i_matrix_numeric_self_s": self_s("intertwiner.i_matrix_numeric"),
            "intertwiner.self_s": layer_s("intertwiner"),
            "projectors.gamma_block_self_s": self_s("projectors.gamma_block"),
            "projectors.u_transform_self_s": self_s("projectors.u_transform"),
            "projectors.gamma_matrix_self_s": self_s("projectors.gamma_matrix"),
            "projectors.wenzl_jones_self_s": self_s("projectors.wenzl_jones"),
            "projectors.self_s": layer_s("projectors"),
            "diagrams.act_calls": calls("diagrams.act"),
            "diagrams.act_self_s": self_s("diagrams.act"),
            "diagrams.act_null_ratio": ratio(c("act_null", 0), calls("diagrams.act")),
            "diagrams.compose_calls": calls("diagrams.compose"),
            "diagrams.compose_self_s": self_s("diagrams.compose"),
            "diagrams.self_s": layer_s("diagrams"),
            "states.enumerate_calls": states.hits + states.misses,
            "states.enumerate_hit_ratio": ratio(states.hits, states.hits + states.misses),
            "transfer.matrix_calls": calls("transfer.matrix"),
            "transfer.matrix_self_s": self_s("transfer.matrix"),
            "transfer.calls_per_sector": ratio(calls("transfer.matrix"), len(self.sectors)),
            "transfer.tile_hit_ratio": ratio(tiles.hits, tiles.hits + tiles.misses),
            "linalg.calls": calls("linalg"),
            "linalg.self_s": self_s("linalg"),
            "cli.main_calls": calls("cli.main"),
            "cli.main_self_s": self_s("cli.main"),
            "cli.output_bytes": output_bytes,
            "tasks.self_s": sum(s for k, (_, s) in self.stats.items() if k.startswith("task:")),
            "trace.uncovered_ratio": ratio(wall - task_s, wall),
        }
        return {
            "metrics": metrics,
            "hook_s": self.hook_s,
            "wrapper_s": self.wrapper_s,
            "kernel_s": self.kernel_s,
            "residual_s": residual_per_call() * sum(n for n, _ in self.stats.values()),
            "spans_kept": len(self.spans),
            "spans_dropped": self.spans_dropped,
            "stats": {k: {"calls": n, "self_s": s} for k, (n, s) in sorted(self.stats.items())},
            "counts": dict(sorted(self.counts.items())),
            "sectors": sorted(self.sectors),
            "spans": self.spans,
        }


def residual_per_call(calls: int = 20_000) -> float:
    """Seconds per wrapped call that fall outside the wrapper's timestamps.

    Times a loop of wrapped no-op calls against the same loop of plain
    calls, and takes away what the wrapper measured of itself.  The
    median of five rounds is used; a negative estimate reads 0.
    """
    def noop():
        return None

    estimates = []
    for _ in range(5):
        probe = Tracer()
        wrapped = probe._wrap("probe", noop)
        t0 = perf()
        for _ in range(calls):
            noop()
        plain = perf() - t0
        t0 = perf()
        for _ in range(calls):
            wrapped()
        traced = perf() - t0
        measured = probe._children[0]
        estimates.append((traced - plain - measured) / calls)
    return max(0.0, sorted(estimates)[2])
