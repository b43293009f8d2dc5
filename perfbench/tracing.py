"""Span tracing of the library's public functions, installed from outside.

``Tracer.install`` wraps every public function of the six layers and
rebinds each name in every loaded ``langscape`` module that resolves it,
so calls made inside the library (``samplers.forward``,
``diagnostics.ideal_hessian`` and the like) are caught without editing
the library.  One span is kept in memory per call: id, parent id, name,
start, end, row count and run id.  ``write`` dumps them when the run ends.

A span's self time is its duration minus the time its child spans cover;
spans of one thread nest, so the children cover the sum of their
durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time

import numpy as np

LAYERS = ("landscape", "generator", "priors", "samplers", "diagnostics",
          "harness")
_HARNESS_MODULES = ("langscape.harness.config", "langscape.harness.experiment",
                    "langscape.harness.checks")

# sampler entry points whose first argument is the gradient oracle
_ORACLE_TAKERS = ("run_langevin", "run_langevin_ensemble", "run_gd")


def _rows(a) -> int:
    shape = np.shape(a)
    return int(math.prod(shape[:-1])) if len(shape) > 1 else 1


def _public_functions():
    """(layer, name, function) for every public function of every layer."""
    out = []
    for layer in LAYERS:
        modules = (_HARNESS_MODULES if layer == "harness"
                   else (f"langscape.{layer}",))
        for modname in modules:
            mod = importlib.import_module(modname)
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn):
                    out.append((layer, name, fn))
    return out


class Tracer:
    """Records spans of public library calls for one run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.counters = {"chain_steps": 0, "oracle_calls": 0,
                         "oracle_rows": 0, "aborted_chains": 0,
                         "mid_rows": 0, "angle_rows": 0,
                         "all_mid_calls": 0, "angle_calls": 0,
                         "forward_flop": 0}
        self._restore: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        from langscape import landscape
        self._theta_switch = landscape.THETA_SWITCH
        wrappers = {}
        for layer, name, fn in _public_functions():
            if fn not in wrappers:
                wrappers[fn] = self._wrap(f"{layer}.{name}", name, fn)
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("langscape") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def _wrap(self, qualname: str, name: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        rows_of = self._row_counter(name)
        before, after = self._sampler_hooks(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (sid, stack[-1] if stack else -1, name_id, t0, t1,
                              rows_of(args) if rows_of else 0)
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    # -- per-call counts --------------------------------------------------

    def _row_counter(self, name: str):
        c = self.counters
        if name in ("modified_loss", "ideal_loss", "ideal_gradient",
                    "ideal_hessian"):
            return lambda a: _rows(a[0])
        if name in ("gmm_log_density_and_score", "empirical_loss_grad"):
            return lambda a: _rows(a[1])
        if name == "forward":
            def forward_rows(a):
                rows = _rows(a[1])
                dims = a[0].dims
                c["forward_flop"] += rows * 2 * sum(
                    n0 * n1 for n0, n1 in zip(dims[:-1], dims[1:]))
                return rows
            return forward_rows
        if name == "theta_chain":
            lo, hi = self._theta_switch, math.pi - self._theta_switch

            def angle_rows(a):
                th = np.asarray(a[0])
                mid = int(np.count_nonzero((th >= lo) & (th <= hi)))
                c["mid_rows"] += mid
                c["angle_rows"] += th.size
                c["angle_calls"] += 1
                c["all_mid_calls"] += mid == th.size
                return th.size
            return angle_rows
        return None

    def _sampler_hooks(self, name: str, fn):
        """Pre-call oracle counting and post-call step/abort counting."""
        if name not in _ORACLE_TAKERS + ("run_ilo_baseline",):
            return None, None
        c = self.counters
        sig = inspect.signature(fn)

        def count_oracle(oracle):
            def counted(z):
                c["oracle_calls"] += 1
                c["oracle_rows"] += _rows(z)
                return oracle(z)
            return counted

        def before(args, kwargs):
            if name in _ORACLE_TAKERS:
                args = (count_oracle(args[0]),) + tuple(args[1:])
            return args, kwargs

        def after(args, kwargs, out):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            p = bound.arguments
            if name == "run_langevin_ensemble":
                chains = np.shape(p["z0"])[0]
                c["chain_steps"] += chains * p["cfg"].steps
                c["aborted_chains"] += int(np.sum(
                    ~np.all(np.isfinite(out.states[-1]), axis=-1)))
            else:
                steps = p["cfg"].steps if name == "run_langevin" else p["steps"]
                aborted = out.aborted_at is not None
                c["chain_steps"] += out.aborted_at if aborted else steps
                c["aborted_chains"] += int(aborted)

        return before, after

    # -- results ----------------------------------------------------------

    def write(self, path) -> None:
        """Dump every span as CSV (id, parent, name, start, end, rows)."""
        with open(path, "w") as fh:
            fh.write("run_id,span,parent,name,start,end,rows\n")
            for sid, parent, nid, t0, t1, rows in self.spans:
                fh.write(f"{self.run_id},{sid},{parent},{self.names[nid]},"
                         f"{t0!r},{t1!r},{rows}\n")

    def summary(self, wall_s: float) -> dict:
        """Per-function and per-layer totals over the spans of the run.

        Only spans under a ``harness.run_experiment`` root count towards
        the layers, so layer self times plus ``unspanned_s`` add up to the
        traced wall time; config validation before the run is reported
        apart.
        """
        n = len(self.spans)
        child_time = [0.0] * n
        in_run = [False] * n
        run_id = self.names.index("harness.run_experiment")
        for sid, parent, nid, t0, t1, _ in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
                in_run[sid] = in_run[parent]
            else:
                in_run[sid] = nid == run_id
        funcs: dict[str, dict] = {}
        counters = dict(self.counters)
        ilo_id = self.names.index("samplers.run_ilo_baseline")
        elg_id = self.names.index("generator.empirical_loss_grad")
        for sid, parent, nid, t0, t1, rows in self.spans:
            f = funcs.setdefault(self.names[nid], {
                "calls": 0, "rows": 0, "total_s": 0.0, "self_s": 0.0,
                "in_run_self_s": 0.0})
            self_s = (t1 - t0) - child_time[sid]
            f["calls"] += 1
            f["rows"] += rows
            f["total_s"] += t1 - t0
            f["self_s"] += self_s
            if in_run[sid]:
                f["in_run_self_s"] += self_s
            # run_ilo_baseline calls its oracle directly, not through an
            # argument, so its oracle calls are its gradient child spans
            if nid == elg_id and parent >= 0 \
                    and self.spans[parent][2] == ilo_id:
                counters["oracle_calls"] += 1
                counters["oracle_rows"] += rows
        layers = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        for qual, f in funcs.items():
            layer = layers[qual.split(".", 1)[0]]
            layer["self_s"] += f["in_run_self_s"]
            layer["calls"] += f["calls"]
        spanned = sum(v["self_s"] for v in layers.values())
        return {"functions": funcs, "layers": layers,
                "counters": counters, "spans": n,
                "wall_s": wall_s, "unspanned_s": wall_s - spanned}
