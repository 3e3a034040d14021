"""Per-layer tracing of tutteval from outside the program.

`Tracer.install()` replaces selected public functions and methods of the
`tutteval` modules with counting, timing wrappers.  A function is replaced
wherever it is bound: in its own module, in every module that imported it
by name (`series` binds `mul_trunc2` from `kernels`, `holonomic` binds
`poly_gcd` from `polyring`, ...) and in class dictionaries (`Poly.__rmul__`
is `Poly.__mul__`).  Nothing in `src/` changes.

Three kinds of timer are kept:

* an inclusive timer per metric, charged only by the outermost active call
  of that metric, so recursion (`poly_gcd`) and nesting across classes
  (`Series3.log` calling `Series2.log`) are not counted twice;
* holonomic phases (`q_tower`, `find_R`, `find_Rhat`, `dependency_report`,
  `tower_oracle`, `b_direct`, `b_recursion`): each phase is charged its
  self time, that is its duration minus the phases it called, so
  `find_Rhat_s` excludes the `find_R` and `q_tower` work it triggers and
  `recheck_s` is `dependency_report` minus the builds it triggers;
* exact counts: calls, `len(A) * len(B)` operand-term products of the
  product kernels, `ArithmeticError` misses of `poly_div_exact`, cache
  misses of `q_tower`, and sizes of the largest tower and f-table seen.

The holonomic phases and the f-table, vanishing, Hilbert, h_m, direct
reduction and series-identity calls also record spans: name, start, end
and the index of the enclosing span.

`exactnum` is not traced: `Rat` is `fractions.Fraction`, and timing it would
mean wrapping every rational operation.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction

# metric name -> unit; every per-layer metric is lower-is-better
LAYER_METRICS = {
    "holonomic.q_tower_s": "s",
    "holonomic.q_tower_builds": "count",
    "holonomic.find_R_s": "s",
    "holonomic.find_Rhat_s": "s",
    "holonomic.recheck_s": "s",
    "holonomic.tower_oracle_s": "s",
    "holonomic.b_s": "s",
    "holonomic.tower_terms": "count",
    "holonomic.tower_bits": "bits",
    "polyring.mul_calls": "count",
    "polyring.mul_s": "s",
    "polyring.mul_products": "count",
    "polyring.div_exact_calls": "count",
    "polyring.div_exact_misses": "count",
    "polyring.div_exact_s": "s",
    "polyring.gcd_calls": "count",
    "polyring.gcd_s": "s",
    "polyring.normalize_s": "s",
    "kernels.mul_poly_calls": "count",
    "kernels.mul_poly_s": "s",
    "kernels.mul_poly_products": "count",
    "kernels.mul_trunc2_calls": "count",
    "kernels.mul_trunc2_s": "s",
    "kernels.mul_trunc2_products": "count",
    "kernels.mul_trunc3_calls": "count",
    "kernels.mul_trunc3_s": "s",
    "kernels.mul_trunc3_products": "count",
    "series.log_s": "s",
    "series.inverse_s": "s",
    "series.sqrt_s": "s",
    "verifier.f_table_calls": "count",
    "verifier.f_table_s": "s",
    "verifier.f_table_terms": "count",
    "verifier.vanishing_s": "s",
    "verifier.hilbert_s": "s",
    "template.h_m_s": "s",
    "template.direct_reduction_s": "s",
    "template.series_identity_s": "s",
    "tutte.phi_series_calls": "count",
    "tutte.phi_series_s": "s",
}

# holonomic phase -> metric charged with its self time
_PHASES = {
    "q_tower": "holonomic.q_tower_s",
    "find_R": "holonomic.find_R_s",
    "find_Rhat": "holonomic.find_Rhat_s",
    "dependency_report": "holonomic.recheck_s",
    "tower_oracle": "holonomic.tower_oracle_s",
    "b_direct": "holonomic.b_s",
    "b_recursion": "holonomic.b_s",
}


def _len2(a, b):
    return len(a) * len(b)


def _poly_mul_products(a, b):
    other = getattr(b, "terms", None)
    return len(a.terms) * (len(other) if other is not None else 1)


def _tower_size(tower) -> tuple:
    """(numerator terms, max coefficient bits) of a list of PhiQuot."""
    terms, bits = 0, 0
    for q in tower:
        for p in q.num:
            terms += len(p.terms)
            for c in p.terms.values():
                c = Fraction(c)
                bits = max(bits, abs(c.numerator).bit_length(),
                           c.denominator.bit_length())
    return terms, bits


def _table_terms(tab) -> int:
    return sum(len(p.terms) for p in tab.entries.values())


class Tracer:
    """Counts and times the layers of one process; see the module doc."""

    def __init__(self):
        self.values = {name: 0 for name in LAYER_METRICS}
        self.spans = []          # [name, start, end, parent index]
        self._depth = {}
        self._stack = []         # open phase frames: [span index, child time]
        self._tower = []
        self._undo = []

    # -- wrappers ----------------------------------------------------------

    def _timed(self, fn, time_metric, calls=None, products=None,
               misses=None, products_of=_len2):
        values, depth = self.values, self._depth
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if calls:
                values[calls] += 1
            if products:
                values[products] += products_of(*args[:2])
            d = depth.get(time_metric, 0)
            depth[time_metric] = d + 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except ArithmeticError:
                if misses:
                    values[misses] += 1
                raise
            finally:
                depth[time_metric] = d
                if not d:
                    values[time_metric] += clock() - t0

        return wrapper

    def _span(self, fn, name, phase_metric=None, on_result=None):
        """Record a span per call of fn.  A holonomic phase also charges its
        self time, its duration minus the phases inside it, to its metric."""
        values, spans, stack = self.values, self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, clock(), None, stack[-1][0] if stack else -1]
            spans.append(span)
            frame = [len(spans) - 1, 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
                dur = span[2] - span[1]
                if phase_metric:
                    values[phase_metric] += dur - frame[1]
                if stack:  # pass phase time up to the enclosing phase
                    stack[-1][1] += dur if phase_metric else frame[1]
            if on_result:
                on_result(result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def _rebind(self, orig, wrapper):
        """Replace every binding of `orig` in the tutteval modules and their
        classes by `wrapper`."""
        found = False
        for modname, mod in list(sys.modules.items()):
            if mod is None or not modname.startswith("tutteval"):
                continue
            for holder in [mod] + [v for v in vars(mod).values()
                                   if isinstance(v, type)
                                   and v.__module__ == modname]:
                for key, val in list(vars(holder).items()):
                    if val is orig:
                        self._undo.append((holder, key, val))
                        setattr(holder, key, wrapper)
                        found = True
        if not found:
            raise LookupError(f"no binding of {orig!r} in tutteval")

    def install(self):
        from tutteval import (_kernels_py, holonomic, polyring, series,
                              template, tutte, verifier)

        def tower_seen(tower):
            if len(tower) > len(self._tower):
                self._tower = tower

        def tower_builds(fn):
            def counted(*args):
                before = fn.cache_info().misses
                try:
                    return fn(*args)
                finally:
                    self.values["holonomic.q_tower_builds"] += (
                        fn.cache_info().misses - before)
            return counted

        def table_seen(tab):
            terms = _table_terms(tab)
            if terms > self.values["verifier.f_table_terms"]:
                self.values["verifier.f_table_terms"] = terms

        h = holonomic
        self._rebind(h.q_tower, self._span(
            tower_builds(h.q_tower), "q_tower", _PHASES["q_tower"],
            tower_seen))
        for name in ("find_R", "find_Rhat", "dependency_report",
                     "tower_oracle", "b_direct", "b_recursion"):
            self._rebind(getattr(h, name),
                         self._span(getattr(h, name), name, _PHASES[name]))

        P = polyring.Poly
        self._rebind(P.__mul__, self._timed(
            P.__mul__, "polyring.mul_s", "polyring.mul_calls",
            "polyring.mul_products", products_of=_poly_mul_products))
        self._rebind(polyring.poly_div_exact, self._timed(
            polyring.poly_div_exact, "polyring.div_exact_s",
            "polyring.div_exact_calls", misses="polyring.div_exact_misses"))
        self._rebind(polyring.poly_gcd, self._timed(
            polyring.poly_gcd, "polyring.gcd_s", "polyring.gcd_calls"))
        self._rebind(polyring.clear_and_normalize, self._timed(
            polyring.clear_and_normalize, "polyring.normalize_s"))

        for name in ("mul_poly", "mul_trunc2", "mul_trunc3"):
            self._rebind(getattr(_kernels_py, name), self._timed(
                getattr(_kernels_py, name), f"kernels.{name}_s",
                f"kernels.{name}_calls", f"kernels.{name}_products"))

        for meth in ("log", "inverse", "sqrt"):
            for cls in (series.Series2, series.Series3, series.LaurentX):
                if meth in vars(cls):
                    self._rebind(vars(cls)[meth], self._timed(
                        vars(cls)[meth], f"series.{meth}_s"))

        for mod, fname, name, calls, seen in (
                (verifier, "f_table", "f_table", "verifier.f_table_calls",
                 table_seen),
                (verifier, "verify_vanishing", "vanishing", None, None),
                (verifier, "hilbert_check", "hilbert", None, None),
                (template, "h_m_series", "h_m", None, None),
                (template, "direct_reduction", "direct_reduction", None, None),
                (template, "verify_series_identity", "series_identity", None,
                 None)):
            fn = getattr(mod, fname)
            metric = f"{mod.__name__.split('.')[-1]}.{name}_s"
            self._rebind(fn, self._span(self._timed(fn, metric, calls), name,
                                        on_result=seen))
        self._rebind(tutte.phi_series, self._timed(
            tutte.phi_series, "tutte.phi_series_s", "tutte.phi_series_calls"))
        return self

    def uninstall(self):
        for holder, key, val in reversed(self._undo):
            setattr(holder, key, val)
        self._undo.clear()

    def snapshot(self) -> dict:
        """Every per-layer metric, with the tower sizes filled in."""
        out = dict(self.values)
        out["holonomic.tower_terms"], out["holonomic.tower_bits"] = (
            _tower_size(self._tower))
        return out
