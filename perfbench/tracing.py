"""Span tracer for the traced benchmark run.

Wrappers are installed from outside the package, at every module attribute
that is bound to a layer's public function, so calls made inside specvar go
through them as well.  Each call records a span (name, start, end, parent,
op id, attributes) in memory; ``layer_metrics`` turns the spans into the
per-layer metrics and ``dump`` writes them out once the run is over.

Parents come from a context variable.  ``ThreadPoolExecutor`` does not copy
context variables into its workers on Python 3.11, so a span that starts in a
worker thread with no parent attaches to the innermost open span of the main
thread: with one op in flight that is the ``cli.run`` job that fanned out (or
the op itself).  Self time is a span's duration minus the union of the
intervals its children cover, because children can overlap across threads.
"""

from __future__ import annotations

import contextvars
import functools
import gzip
import json
import math
import sys
import threading
import time

import numpy as np

_parent = contextvars.ContextVar("perfbench_parent", default=None)

# layer -> public functions, looked up in the module named "specvar.<layer>"
LAYER_FUNCTIONS = {
    "quadrature": ("integrate",),
    "specfun": ("trig_power_moments",),
    "spectral_measure": ("autocovariance_batch", "g_eval"),
    "fejer_variance": ("variance_spectral", "variance_covariance",
                       "variance_profile", "sandwich"),
    "asymptotics": ("c_gamma", "d_gamma", "c_identity_residual",
                    "theorem_check", "growth_bound_report", "dichotomy_check",
                    "subsequence_scan", "gamma_fit"),
    "cli": ("run",),
    "simulate": ("simulate",),
    "gallery": ("build", "counterexample", "power_law", "white_noise",
                "quadratic", "nonergodic", "with_origin_atom"),
}
# density-piece methods, recorded under spectral_measure.<method>
PIECE_METHODS = ("cos_transform", "integrate_against")
# public scipy/numpy calls that specvar.simulate binds at import
SIMULATE_EXTERNALS = {"ndtri": "ndtri", "_cholesky": "cholesky",
                      "_toeplitz": "toeplitz"}
_ASYMPTOTIC_CUT = 45.0  # specfun's quadrature/tail-series switch


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op, attrs]
        self._lock = threading.Lock()
        self._main = threading.main_thread()
        self._main_open = []
        self._op = None
        self._installed = []  # (owner, attribute, original)

    # -- spans -------------------------------------------------------------
    def _open(self, name, attrs=None):
        parent = _parent.get()
        on_main = threading.current_thread() is self._main
        if parent is None and not on_main and self._main_open:
            parent = self._main_open[-1]
        with self._lock:
            sid = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent,
                               self._op, attrs or {}])
        token = _parent.set(sid)
        if on_main:
            self._main_open.append(sid)
        return sid, token, on_main

    def _close(self, sid, token, on_main):
        self.spans[sid][2] = time.perf_counter()
        _parent.reset(token)
        if on_main:
            self._main_open.pop()

    def begin_op(self, op_id, name):
        self._op = op_id
        return self._open("op", {"name": name})

    def end_op(self, handle):
        self._close(*handle)
        self._op = None

    def wrap(self, name, fn, attrs=None):
        """Span-recording wrapper; ``attrs(args, kwargs)`` adds counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            handle = self._open(name, attrs(args, kwargs) if attrs else None)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self.spans[handle[0]][5]["error"] = type(exc).__name__
                raise
            finally:
                self._close(*handle)

        return traced

    def _wrap_integrate(self, fn):
        # count integrand points by wrapping the callable passed in; one
        # adaptive round makes 3 integrand calls with an edge rule (15- and
        # 31-point Jacobi, then the Kronrod batch) and 1 without
        @functools.wraps(fn)
        def traced(f, *args, **kwargs):
            sizes = []

            def counted(y):
                sizes.append(int(np.size(y)))
                return f(y)

            handle = self._open("quadrature.integrate")
            attrs = self.spans[handle[0]][5]
            try:
                value, err = fn(counted, *args, **kwargs)
                attrs["err"] = float(err)
                return value, err
            except Exception as exc:
                attrs["error"] = type(exc).__name__
                raise
            finally:
                per_round = 1 if kwargs.get("edge_beta") is None else 3
                attrs["points"] = sum(sizes)
                attrs["batches"] = len(sizes)
                attrs["last_round"] = sum(sizes[-per_round:]) if sizes else 0
                self._close(*handle)

        return traced

    # -- installation -----------------------------------------------------
    def install(self):
        """Wrap every layer function at every specvar module attribute bound
        to it, the density-piece methods, and the scipy/numpy calls that
        specvar.simulate makes."""
        from specvar import spectral_measure as sm

        wrappers = {}
        for layer, names in LAYER_FUNCTIONS.items():
            module = sys.modules[f"specvar.{layer}"]
            for fname in names:
                fn = getattr(module, fname)
                if (layer, fname) == ("quadrature", "integrate"):
                    wrappers[id(fn)] = (fn, self._wrap_integrate(fn))
                    continue
                span = (layer if layer in ("asymptotics", "gallery")
                        else f"{layer}.{fname}")
                wrappers[id(fn)] = (fn, self.wrap(span, fn, _ATTRS.get(span)))
        sim = sys.modules["specvar.simulate"]
        for attr, label in SIMULATE_EXTERNALS.items():
            fn = getattr(sim, attr)
            span = f"simulate.{label}"
            wrappers[id(fn)] = (fn, self.wrap(span, fn, _ATTRS.get(span)))
        # specvar.simulate is also a package attribute (the re-exported
        # function), so modules are taken from sys.modules
        for name, module in sorted(sys.modules.items()):
            if name != "specvar" and not name.startswith("specvar."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._replace(module, attr, hit[1])
        # numpy.fft is only used by specvar.simulate
        for attr in ("fft", "ifft"):
            self._replace(np.fft, attr, self.wrap(
                "simulate.fft", getattr(np.fft, attr), _size_of_first("points")))
        for cls in (sm.PowerDensity, sm.TableDensity, sm.OpaqueDensity):
            for meth in PIECE_METHODS:
                self._replace(cls, meth, self.wrap(
                    f"spectral_measure.{meth}", vars(cls)[meth]))

    def _replace(self, owner, attr, value):
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- output -----------------------------------------------------------
    def dump(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, op, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op,
                                     **attrs}) + "\n")

    def layer_metrics(self, passes: int, workers: int) -> dict:
        """Per-pass layer metrics (counts and self seconds divided by passes);
        a layer that never ran has no entry."""
        children = {}
        for sid, span in enumerate(self.spans):
            if span[3] is not None:
                children.setdefault(span[3], []).append(sid)
        acc = {}

        def add(key, value):
            acc[key] = acc.get(key, 0.0) + value

        max_err = 0.0
        busy = wall_workers = 0.0
        pieces = cos_children = 0
        for sid, (name, start, end, _, _, attrs) in enumerate(self.spans):
            kids = children.get(sid, [])
            covered = _union_length(
                [(max(start, self.spans[k][1]), min(end, self.spans[k][2]))
                 for k in kids])
            self_s = (end - start) - covered
            if name == "cli.run":
                add("cli.jobs", 1)
                add("cli.self_s", self_s)
                busy += sum(self.spans[k][2] - self.spans[k][1] for k in kids)
                wall_workers += (end - start) * workers
                continue
            if name == "op":
                add("op.self_s", self_s)
                continue
            add(f"{name}.calls", 1)
            add(f"{name}.self_s", self_s)
            if attrs.get("error") == "NumericError":
                add(f"{name}.numeric_errors", 1)
            if name == "simulate.cholesky" and attrs.get("error"):
                add("simulate.cholesky.retries", 1)
            for key in ("points", "batches", "last_round", "small_x_points",
                        "normals", "atom_lag_terms"):
                if key in attrs:
                    add(f"{name}.{key}", attrs[key])
            if "err" in attrs:
                max_err = max(max_err, attrs["err"])
            if name == "fejer_variance.variance_spectral":
                pieces += attrs["pieces"]
                cos_children += sum(
                    1 for k in kids
                    if self.spans[k][0] == "spectral_measure.cos_transform")

        out = {key: value / passes for key, value in acc.items()}
        out["quadrature.integrate.integrand_points"] = out.pop(
            "quadrature.integrate.points", 0.0)
        pts = acc.get("quadrature.integrate.points", 0.0)
        out["quadrature.integrate.last_round_share"] = (
            acc.get("quadrature.integrate.last_round", 0.0) / pts if pts else 0.0)
        out["quadrature.integrate.max_err_estimate"] = max_err
        out["cli.worker_utilization"] = (busy / wall_workers
                                         if wall_workers else 0.0)
        out["fejer_variance.variance_spectral.cov_route_share"] = (
            cos_children / pieces if pieces else 0.0)
        return out


def _union_length(intervals):
    total = 0.0
    end = -math.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def _size_of_first(key):
    return lambda args, kwargs: {key: int(np.size(args[0]))}


def _trig_attrs(args, kwargs):
    p = float(args[0])
    x = np.asarray(args[1], dtype=float)
    mu = p - (math.ceil(p) if p > 0 else 0)
    small = 0 if mu == 0.0 else int(np.count_nonzero((x > 0) & (x < _ASYMPTOTIC_CUT)))
    return {"points": int(x.size), "small_x_points": small}


def _autocov_attrs(args, kwargs):
    m, n = args[0], int(args[1])
    return {"atom_lag_terms": max(n - 1, 0) * len(m.atoms)}


def _n_attr(args, kwargs):
    meta = args[0].meta
    return {"n": int(args[1]),
            "measure": f"{meta.get('name', 'file')}{meta.get('gamma', '')}"}


def _spectral_attrs(args, kwargs):
    from specvar.spectral_measure import OpaqueDensity
    return {**_n_attr(args, kwargs),
            "pieces": sum(1 for p in args[0].density
                          if not isinstance(p, OpaqueDensity))}


_ATTRS = {
    "specfun.trig_power_moments": _trig_attrs,
    "spectral_measure.autocovariance_batch": _autocov_attrs,
    "fejer_variance.variance_spectral": _spectral_attrs,
    "fejer_variance.variance_covariance": _n_attr,
    "fejer_variance.variance_profile": _n_attr,
    "simulate.ndtri": _size_of_first("normals"),
}
