"""In-process spans around the public functions of each hdt layer.

`install()` wraps each function named in TARGETS in its defining module and
everywhere `from .x import f` has rebound it (for example `cli.weight_system`
and `integral.weight_system`), so every call into a layer is recorded.  A
span is (name, start, end, parent index); spans stay in memory until the
caller writes them out.  Counters record the work each call did, from its
arguments and result, outside the span's own interval.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# layer -> public functions wrapped in it
TARGETS = {
    "exact": ("solve_linear",),
    "rootsystem": ("build_root_system",),
    "hermitian": ("partition_roots",),
    "cascade": ("strongly_orthogonal_cascade", "restricted_root_data", "verify_rho_identities"),
    "criterion": ("hc_condition", "hc_condition_original", "reduction_trace"),
    "weights": ("weight_system", "freudenthal_multiplicity", "verify_weight_bound"),
    "integral": ("build_integrand", "integrate", "classify_convergence", "empirical_threshold"),
    "matrixmodel": ("random_su", "hc_factorize", "mobius_action", "jacobian_matrix",
                    "verify_reproducing_kernel_disc", "multiplier_unitarity_mc",
                    "measure_invariance_mc"),
    "suite": ("run_exact_suite", "run_numeric_suite"),
    "cli": ("main",),
}

# function -> the argument that holds its Monte Carlo sample count
_MC_ARG = {"verify_reproducing_kernel_disc": "n_samples",
           "multiplier_unitarity_mc": "n", "measure_invariance_mc": "n"}


class Recorder:
    """Spans and counters of one process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._in_threshold = 0
        self._monomials: dict[tuple[int, int, int], int] = {}

    # -- counters, called after the span has ended --------------------------

    def _count(self, name: str, fn, args, kwargs, result):
        integral = sys.modules.get("hdt.integral")
        c = self.counts
        short = name.split(".", 1)[1]
        if name == "weights.weight_system":
            c["weights.weight_system.weights"] += len(result.weights)
        elif name == "integral.build_integrand":
            c["integral.rows"] += len(result.exponents)
            c["integral.distinct_rows"] += len(set(result.exponents))
            if result.r <= integral.MAX_QUADRATURE_RANK:
                c["integral.monomials"] += self.monomials(integral, result)
        elif name == "integral.integrate":
            spec = args[0] if args else kwargs["spec"]
            panels = len(integral._panels(spec.eps))
            nodes = panels * (spec.order + spec.order + 8)  # both orders run
            c["integral.nodes"] += nodes
            c["integral.cells"] += (len(spec.exponents) * self.monomials(integral, spec)
                                    * nodes * spec.r)
        elif name == "integral.classify_convergence" and self._in_threshold:
            c["integral.probes"] += 1
        elif short in _MC_ARG:
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            c["matrixmodel.mc_samples"] += bound.arguments[_MC_ARG[short]]
        elif name in ("suite.run_exact_suite", "suite.run_numeric_suite"):
            c["suite.checks"] += len(result)

    def monomials(self, integral, spec) -> int:
        """Monomials of P(x), from the uncached expansion so that counting
        does not warm the program's own cache."""
        key = (spec.r, spec.a, spec.b)
        if key not in self._monomials:
            expand = getattr(integral._p_monomials, "__wrapped__", integral._p_monomials)
            self._monomials[key] = len(expand(*key)[0])
        return self._monomials[key]

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        perf = time.perf_counter
        is_threshold = name == "integral.empirical_threshold"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            self._in_threshold += is_threshold
            span[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf()
                stack.pop()
                self._in_threshold -= is_threshold
            self._count(name, fn, args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict:
        """Self time and calls per span name, and the time root spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        root_s = 0.0
        for (name, start, end, parent), inner in zip(self.spans, child):
            out[f"{name}.self_s"] += (end - start) - inner
            out[f"{name}.calls"] += 1
            if parent < 0:
                root_s += end - start
        out.update(self.counts)
        return {"metrics": dict(out), "root_s": root_s}


def install() -> Recorder:
    """Wrap the TARGETS functions of every hdt module imported so far.

    Layers the caller has not imported stay unwrapped, so tracing imports
    nothing the untraced run would not.
    """
    rec = Recorder()
    hdt_modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "hdt" or key.startswith("hdt."))]
    for layer, fnames in TARGETS.items():
        module = sys.modules.get(f"hdt.{layer}")
        if module is None:
            continue
        for fname in fnames:
            original = getattr(module, fname)
            traced = rec.wrap(f"{layer}.{fname}", original)
            for m in hdt_modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, traced)
    return rec
