"""Spans around the public functions of each fracsmooth module, installed
from outside the package.

A ``Tracer`` replaces module attributes with wrappers.  Calls by bare name
inside a module resolve through the module globals, so the wrappers see
those calls too.  Each span records its name, start, end, parent span, job
id and a few counts taken from the call's arguments and result.  Spans stay
in memory; ``Tracer.summary`` reduces them per job when the job exits.

``sets.first_point_geq`` is deliberately not wrapped (millions of calls per
run); greedy steps are derived from the covering results instead: a sweep
that places n intervals makes n + 1 point queries.
"""

from __future__ import annotations

import functools
import time

import numpy as np

# module -> public functions that get a span
WRAPPED = {
    "cli": ("cli",),
    "harness": ("run_duality", "run_sharpness_slope", "run_exponent_table",
                "run_bookkeeping", "choose_window"),
    "spectra": ("window_count_maxima", "best_window", "phi_at_scale",
                "assouad_spectrum_empirical", "analytic_spectrum", "dims",
                "quasi_regular_check", "nu_sharp_empirical",
                "nu_sharp_empirical_function"),
    "sets": ("covering_number", "discretize", "render", "bounds", "load_file"),
    "backend": ("cover_counts", "oscillatory_sum", "j0_array", "j1_array"),
    "legendre": ("convexity_certificate", "legendre_transform", "convex_hull",
                 "nu_from_spectrum", "nu_sharp_analytic", "tau_admissible",
                 "spectrum_from_tau", "union_nu_sharp"),
    "exponents": ("eval_nu", "s_p", "sigma_p", "ls_exponent", "p_gamma", "q_gamma",
                  "q_circ", "s_E_pq", "s_E_q", "lower_bound_rhs", "kappa", "lam",
                  "bookkeeping_sums"),
    "wave": ("propagate", "main_terms_grid", "main_terms", "field_row_fast",
             "shell_lp_norm", "norm_lp", "data_norm", "data_norm_plancherel"),
    "bessel": ("bessel_j", "leading_asymptotic", "bessel_remainder", "radial_kernel"),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _table_key(j_index):
    """(descriptor, j, shifts) names one lru-cached window table."""
    def key(args, kwargs, result):
        shifts = args[j_index + 1] if len(args) > j_index + 1 else kwargs.get("shifts", 2)
        return {"table": (_arg(args, kwargs, 0, "descriptor"), _arg(args, kwargs, j_index, "j"), shifts)}
    return key


def _cover_counts(args, kwargs, result):
    windows = len(_arg(args, kwargs, 3, "w_lo"))
    return {"windows": windows, "greedy_steps": int(np.sum(result)) + windows}


def _oscillatory_sum(args, kwargs, result):
    nodes = len(_arg(args, kwargs, 1, "nodes"))
    return {"terms": len(_arg(args, kwargs, 0, "omegas")) * nodes, "nodes": nodes}


def _elements(index, name):
    return lambda args, kwargs, result: {"elements": int(np.size(_arg(args, kwargs, index, name)))}


def _radii(args, kwargs, result):
    return {"radii": int(np.size(_arg(args, kwargs, 2, "r_grid")))}


def _propagate(args, kwargs, result):
    return {"radii": int(np.size(_arg(args, kwargs, 2, "r_grid"))), "err_rel": float(result.err_rel)}


# span name -> counts from (args, kwargs, result)
COUNTERS = {
    "backend.cover_counts": _cover_counts,
    "backend.oscillatory_sum": _oscillatory_sum,
    "backend.j0_array": _elements(0, "u"),
    "backend.j1_array": _elements(0, "u"),
    "sets.covering_number": lambda a, k, r: {"greedy_steps": int(r) + 1},
    "sets.discretize": lambda a, k, r: {"points": len(r.points)},
    "spectra.phi_at_scale": _table_key(2),
    "spectra.assouad_spectrum_empirical": _table_key(2),
    "spectra.window_count_maxima": _table_key(1),
    "wave.main_terms_grid": _radii,
    "wave.propagate": _propagate,
    "bessel.radial_kernel": _elements(1, "u"),
    "bessel.bessel_remainder": _elements(1, "u"),
}


class Tracer:
    """In-memory span recorder for one job process."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index, job id, counts]
        self.stack = []
        self.job = None
        self._tables_seen = set()

    def install(self, modules: dict) -> None:
        """Wrap every function in WRAPPED; ``modules`` maps short names to modules."""
        for short, names in WRAPPED.items():
            module = modules[short]
            for name in names:
                label = f"{short}.{name}"
                setattr(module, name, self._wrap(label, getattr(module, name), COUNTERS.get(label)))

    def _wrap(self, label, fn, counter):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        return traced

    def summary(self, job) -> dict:
        """Per span name: calls, total and self seconds and summed counts for one job.

        Self time is a span's duration minus the durations of its direct
        children, which never overlap in one thread.  ``parents`` counts the
        calls by the name of the calling span.
        """
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child_s[span[3]] += span[2] - span[1]
        out = {}
        for i, (name, start, end, parent, span_job, counts) in enumerate(self.spans):
            if span_job != job:
                continue
            rec = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "parents": {}})
            rec["calls"] += 1
            rec["total_s"] += end - start
            rec["self_s"] += end - start - child_s[i]
            pname = self.spans[parent][0] if parent >= 0 else "-"
            rec["parents"][pname] = rec["parents"].get(pname, 0) + 1
            for key, value in (counts or {}).items():
                if key == "table":
                    rec["tables_built"] = rec.get("tables_built", 0) + (value not in self._tables_seen)
                    self._tables_seen.add(value)
                elif key in ("err_rel", "nodes"):
                    rec[key + "_max"] = max(rec.get(key + "_max", 0.0), value)
                else:
                    rec[key] = rec.get(key, 0) + value
        return out
