"""In-memory spans around the public functions of each sdelab module.

The benchmark's traced run installs these wrappers from outside the program:
every function in ``TRACED`` is replaced, in every loaded ``sdelab`` module
that binds it, by a wrapper that records one span (name, start, end, parent
span) and a few counts taken from the call's argument and return shapes.
Spans stay in memory and are written once, when the run ends.

A span's self time is its duration minus the part of its interval that its
child spans cover; :func:`layer_metrics` sums self times and counts per
module, which is how the per-layer metrics are named.
"""

from __future__ import annotations

import inspect
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable

ROOT = "cli.main"


def _count_normals(a, result) -> dict:
    rows = len(a["sample_indices"])
    return {"streams": rows, "normals": rows * a["count"]}


def _count_lattice(a, result) -> dict:
    return {"streams": a["m"], "normals": a["m"] * a["finest_n"]}


def _count_aggregate(a, result) -> dict:
    return {"aggregate_bytes_in": a["arr"].nbytes}


def _count_simulate(a, result) -> dict:
    _, b, n = a["incr"].shape  # (noise dimensions, paths, steps)
    return {
        "path_steps": b * n,
        "step_iters": n,
        "width_x_path_steps": b * b * n,
        "block_bytes": a["incr"].nbytes,
        "overflow_paths": int(result.overflow.sum()),
    }


def _count_estimate(a, result) -> dict:
    return {"estimates": 1}


def _count_oracle(a, result) -> dict:
    return {"fourier_calls": 1}


def _count_csv(a, result) -> dict:
    return {"csv_bytes": os.path.getsize(a["path"])}


# (module, function, counter): the functions the traced run wraps.
TRACED: tuple[tuple[str, str, Callable | None], ...] = (
    ("sdelab.brownian", "batch_standard_normals", _count_normals),
    ("sdelab.brownian", "sample_lattice", _count_lattice),
    ("sdelab.brownian", "aggregate_to", _count_aggregate),
    ("sdelab.brownian", "increments_at", None),
    ("sdelab.schemes", "simulate_batch", _count_simulate),
    ("sdelab.convergence", "strong_error_curves", None),
    ("sdelab.convergence", "negativity_stats", None),
    ("sdelab.estimators", "mc_estimate", _count_estimate),
    ("sdelab.estimators", "mlmc_estimate", _count_estimate),
    ("sdelab.estimators", "rmsq_study", None),
    ("sdelab.oracles", "heston_call_price", _count_oracle),
    ("sdelab.util", "write_csv", _count_csv),
    ("sdelab.config", "parse_config_file", None),
)

# Per-layer self-time metrics: the spans whose self time each one sums.
# The root span's own self time is the code no wrapper covers (the
# experiment glue in sdelab.experiments and sdelab.cli).
SELF_TIME_LAYERS = {
    "brownian.draw_s": ("batch_standard_normals", "sample_lattice"),
    "brownian.aggregate_s": ("aggregate_to", "increments_at"),
    "schemes.simulate_s": ("simulate_batch",),
    "convergence.self_s": ("strong_error_curves", "negativity_stats"),
    "estimators.self_s": ("mc_estimate", "mlmc_estimate", "rmsq_study"),
    "oracles.fourier_s": ("heston_call_price",),
    "util.write_csv_s": ("write_csv",),
    "config.parse_s": ("parse_config_file",),
    "experiments.self_s": (ROOT,),
}


class Recorder:
    """Collects spans of one thread; not safe for concurrent callers."""

    def __init__(self) -> None:
        # [name, start_ns, end_ns, parent index, counts]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._thread = threading.get_ident()
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        if threading.get_ident() != self._thread:
            raise RuntimeError("spans must be recorded from one thread")
        span = [name, 0, 0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def wrap(self, name: str, fn: Callable, counter: Callable | None) -> Callable:
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            s = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(s)
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                s[4] = counter(bound.arguments, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> list[str]:
        """Wrap every TRACED function under each name its callers look up.

        A function imported by name (``from .schemes import simulate_batch``)
        is bound in the importing module too, so every loaded ``sdelab``
        module is searched for the original object.  Returns the patched
        bindings as ``module.attribute`` strings.
        """
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if (name == "sdelab" or name.startswith("sdelab.")) and mod is not None
        ]
        patched = []
        for mod_name, fn_name, counter in TRACED:
            original = getattr(sys.modules[mod_name], fn_name)
            wrapper = self.wrap(fn_name, original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
                        patched.append(f"{mod.__name__}.{attr}")
        return patched

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()


def self_times(spans: list[list]) -> list[int]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children[i]):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer self times (s) and counts from one traced run's spans."""
    selfs = self_times(spans)
    by_name: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    peak_block = 0
    for s, self_ns in zip(spans, selfs):
        by_name[s[0]] += self_ns * 1e-9
        for key, value in (s[4] or {}).items():
            if key == "block_bytes":
                peak_block = max(peak_block, value)
            else:
                counts[key] += value
    roots = [s for s in spans if s[0] == ROOT]
    if len(roots) != 1:
        raise ValueError(f"expected one {ROOT} span, found {len(roots)}")
    wall = (roots[0][2] - roots[0][1]) * 1e-9

    out = {
        layer: sum(by_name[n] for n in names)
        for layer, names in SELF_TIME_LAYERS.items()
    }
    normals = counts["normals"]
    path_steps = counts["path_steps"]
    out.update(
        {
            "brownian.streams": counts["streams"],
            "brownian.normals": normals,
            "brownian.ns_per_normal": (
                out["brownian.draw_s"] / normals * 1e9 if normals else 0.0
            ),
            "brownian.aggregate_bytes_in": counts["aggregate_bytes_in"],
            "brownian.peak_block_bytes": peak_block,
            "schemes.path_steps": path_steps,
            "schemes.step_iters": counts["step_iters"],
            "schemes.ns_per_path_step": (
                by_name["simulate_batch"] / path_steps * 1e9 if path_steps else 0.0
            ),
            "schemes.batch_width": (
                counts["width_x_path_steps"] / path_steps if path_steps else 0.0
            ),
            "schemes.overflow_paths": counts["overflow_paths"],
            "estimators.estimates": counts["estimates"],
            "oracles.fourier_calls": counts["fourier_calls"],
            "util.csv_bytes": counts["csv_bytes"],
            "trace.wall_s": wall,
            "trace.coverage": 1.0 - by_name[ROOT] / wall if wall > 0 else 0.0,
        }
    )
    return out
