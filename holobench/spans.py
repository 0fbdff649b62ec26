"""Span and counter tracing for traced benchmark children.

The tracer wraps holoproj's public functions from outside the package: a
function is replaced at every module that holds it (its import sites, e.g.
``holoproj.projection.theta_power_direct``), a method on its class.  Spans
(name, start, end, parent) are kept in memory; a span's self time is its
duration minus the time its child spans cover.  Hot arithmetic is counted,
not timed.  ``uninstall`` puts every original back.

Only traced children import this module.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# Span name -> (module, qualified name of the function or method).
SPANS = {
    "theta.direct": ("holoproj.theta", "theta_power_direct"),
    "theta.series": ("holoproj.theta", "theta_power_series"),
    "qseries.mul": ("holoproj.qseries", "QSeries.__mul__"),
    "kernel.eval": ("holoproj.kernel", "ProjectionKernel.eval"),
    "kernel.closed_forms": ("holoproj.kernel", "verify_closed_forms"),
    "kernel.build": ("holoproj.kernel", "projection_kernel"),
    "jacobi.poly": ("holoproj.jacobi", "jacobi_poly"),
    "projection.sigma_table": ("holoproj.projection", "sigma_entry_table"),
    "projection.sigma": ("holoproj.projection", "sigma_coefficient"),
    "projection.ordered": ("holoproj.projection", "ordered_coefficient"),
    "projection.full": ("holoproj.projection", "full_pairs_side"),
    "projection.witness": ("holoproj.projection", "lemma_gap_witnesses"),
    "projection.report": ("holoproj.projection", "residual_report"),
    "cli.verify": ("holoproj.cli", "main"),
    "cli.to_json": ("holoproj.projection", "ResidualReport.to_json_obj"),
}

# Counter name -> (module, qualified name); every call adds one.
COUNTERS = {
    "rings.cyc_mul": ("holoproj.rings", "CyclotomicNumber.__mul__"),
    "rings.cyc_add": ("holoproj.rings", "CyclotomicNumber.__add__"),
    "rings.lift": ("holoproj.rings", "CyclotomicNumber.lift"),
}

# Per-layer metric -> unit, in the order BENCHMARK.json lists them.
LAYER_METRICS = {
    "theta.direct_s": "s",
    "theta.direct_calls": "count",
    "theta.direct_n_total": "count",
    "theta.series_s": "s",
    "qseries.mul_s": "s",
    "qseries.mul_calls": "count",
    "qseries.mul_term_pairs": "count",
    "kernel.eval_s": "s",
    "kernel.eval_calls": "count",
    "kernel.closed_forms_s": "s",
    "kernel.build_s": "s",
    "jacobi.poly_s": "s",
    "projection.sigma_s": "s",
    "projection.ordered_s": "s",
    "projection.compositions": "count",
    "characters.calls": "count",
    "characters.zero_frac": "ratio",
    "projection.full_self_s": "s",
    "projection.full_calls": "count",
    "projection.witness_s": "s",
    "projection.report_s": "s",
    "cli.verify_s": "s",
    "cli.to_json_s": "s",
    "rings.cyc_mul": "count",
    "rings.cyc_add": "count",
    "rings.lift": "count",
    "cli.max_value_digits": "digits",
}


def _resolve(module: str, qualname: str):
    """(owner class or None, original function)."""
    obj = sys.modules[module]
    owner_name, _, attr = qualname.rpartition(".")
    owner = getattr(obj, owner_name) if owner_name else None
    return owner, getattr(owner if owner is not None else obj, attr)


def _holoproj_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "holoproj" or name.startswith("holoproj."))]


class Tracer:
    """Install with ``install()``; read with ``layer_metrics()`` after
    ``uninstall()``."""

    def __init__(self):
        self.spans: list = []          # (name, start, end, parent index or -1)
        self.counts = defaultdict(int)
        self._stack: list = []
        self._patches: list = []       # (owner, attribute, original)

    # -- wrappers ---------------------------------------------------------------

    def _span(self, name: str, fn, extra=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if extra is not None:
                extra(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()

        return wrapper

    def _counter(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _character_call(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(chi, n):
            value = fn(chi, n)
            counts["characters.calls"] += 1
            if value.is_zero():
                counts["characters.zeros"] += 1
            return value

        return wrapper

    def _compositions(self, fn):
        """Count the items yielded to callers outside the recursion."""
        counts, code = self.counts, fn.__code__

        def counted(gen):
            for item in gen:
                counts["projection.compositions"] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args):
            gen = fn(*args)
            if sys._getframe(1).f_code is code:
                return gen
            return counted(gen)

        return wrapper

    def _add_n(self, args, kwargs):
        self.counts["theta.direct_n_total"] += args[2] if len(args) > 2 else kwargs["N"]

    def _add_term_pairs(self, args, kwargs):
        a, b = args
        if hasattr(b, "nonzero_items"):
            self.counts["qseries.mul_term_pairs"] += (
                sum(1 for _ in a.nonzero_items()) * sum(1 for _ in b.nonzero_items()))

    # -- install / uninstall ---------------------------------------------------

    def _patch_everywhere(self, owner, original, wrapper):
        """Replace `original` on its class, or in every holoproj module that
        holds it."""
        if owner is not None:
            sites = [owner]
        else:
            sites = _holoproj_modules()
        for site in sites:
            for attr, value in list(vars(site).items()):
                if value is original:
                    self._patches.append((site, attr, original))
                    setattr(site, attr, wrapper)

    def install(self) -> None:
        import holoproj.cli  # noqa: F401  (every import site must exist first)

        extras = {"theta.direct": self._add_n, "qseries.mul": self._add_term_pairs}
        for name, (module, qualname) in SPANS.items():
            owner, fn = _resolve(module, qualname)
            self._patch_everywhere(owner, fn, self._span(name, fn, extras.get(name)))
        for key, (module, qualname) in COUNTERS.items():
            owner, fn = _resolve(module, qualname)
            self._patch_everywhere(owner, fn, self._counter(key, fn))
        owner, fn = _resolve("holoproj.characters", "DirichletCharacter.__call__")
        self._patch_everywhere(owner, fn, self._character_call(fn))
        _, fn = _resolve("holoproj.projection", "compositions")
        self._patch_everywhere(None, fn, self._compositions(fn))

    def uninstall(self) -> None:
        for site, attr, original in reversed(self._patches):
            setattr(site, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------------

    def span_totals(self) -> dict:
        """name -> (calls, total seconds, self seconds).  Total time counts a
        span only when no enclosing span has the same name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for index, (name, start, end, parent) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[2] += end - start - covered[index]
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                row[1] += end - start
        return {name: tuple(row) for name, row in out.items()}

    def layer_metrics(self) -> dict:
        spans = self.span_totals()

        def total(name):
            return spans.get(name, (0, 0.0, 0.0))[1]

        def calls(name):
            return spans.get(name, (0, 0.0, 0.0))[0]

        c = self.counts
        return {
            "theta.direct_s": total("theta.direct"),
            "theta.direct_calls": calls("theta.direct"),
            "theta.direct_n_total": c["theta.direct_n_total"],
            "theta.series_s": total("theta.series"),
            "qseries.mul_s": total("qseries.mul"),
            "qseries.mul_calls": calls("qseries.mul"),
            "qseries.mul_term_pairs": c["qseries.mul_term_pairs"],
            "kernel.eval_s": total("kernel.eval"),
            "kernel.eval_calls": calls("kernel.eval"),
            "kernel.closed_forms_s": total("kernel.closed_forms"),
            "kernel.build_s": total("kernel.build"),
            "jacobi.poly_s": total("jacobi.poly"),
            "projection.sigma_s": total("projection.sigma") + total("projection.sigma_table"),
            "projection.ordered_s": total("projection.ordered"),
            "projection.compositions": c["projection.compositions"],
            "characters.calls": c["characters.calls"],
            "characters.zero_frac": (c["characters.zeros"] / c["characters.calls"]
                                     if c["characters.calls"] else 0.0),
            "projection.full_self_s": spans.get("projection.full", (0, 0.0, 0.0))[2],
            "projection.full_calls": calls("projection.full"),
            "projection.witness_s": total("projection.witness"),
            "projection.report_s": total("projection.report"),
            "cli.verify_s": total("cli.verify"),
            "cli.to_json_s": total("cli.to_json"),
            "rings.cyc_mul": c["rings.cyc_mul"],
            "rings.cyc_add": c["rings.cyc_add"],
            "rings.lift": c["rings.lift"],
        }
