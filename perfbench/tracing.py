"""Per-layer tracing of sievecraft from outside the package.

``Tracer.install`` wraps every public function of the layer modules and
rebinds each name under which a sievecraft module holds it, so that calls
made through ``from .poly import is_squarefree_poly`` and internal calls of
the py kernel (``value_square_profile`` -> ``poly_roots_mod_p``) are traced
too.  Each call records a span (name, start, end, parent) in flat arrays kept
in memory; ``summary`` turns them into calls and self time per function, self
time being a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

from reference import primes_upto

LAYERS = (
    "cli", "census", "eulerprod", "avgprod", "localdens",
    "kernels", "_kernels_py", "_kernels_cy", "poly", "numutil",
)


def _layer(module: str) -> str:
    name = module.rsplit(".", 1)[-1]
    return "kernels" if name.startswith("_kernels") else name


def _count_profile(tracer, args, result):
    tracer.counts["kernels.value_square_profile.values"] += int(args[1])
    tracer.counts["kernels.value_square_profile.hits"] += len(result[0])
    tracer.counts["kernels.value_square_profile.array_bytes"] += sum(a.nbytes for a in result)
    tracer.profile_bounds.append(int(args[2]))  # pi(B) is counted after the pass


def _count_mask(tracer, args, result):
    tracer.counts["kernels.squarefree_mask.bytes"] += result.nbytes


def _count_density(tracer, args, result):
    tracer.counts["eulerprod.density_univ.primes"] += len(result.factors)


COUNTERS = {
    "kernels.value_square_profile": _count_profile,
    "kernels.squarefree_mask": _count_mask,
    "eulerprod.density_univ": _count_density,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.profile_bounds: list[int] = []

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        names, parents, starts, ends = (
            self.span_name, self.span_parent, self.span_start, self.span_end
        )
        stack, count = self.stack, COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the layers' public functions wherever sievecraft binds them."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"sievecraft.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and callable(obj)
                    and not inspect.isclass(obj)
                    and getattr(obj, "__module__", None) == mod.__name__
                ):
                    wrappers[obj] = self.wrap(f"{_layer(mod.__name__)}.{attr}", obj)
        for name, mod in list(sys.modules.items()):
            if name == "sievecraft" or name.startswith("sievecraft."):
                for attr, obj in list(vars(mod).items()):
                    if callable(obj) and obj in wrappers:
                        setattr(mod, attr, wrappers[obj])

    def summary(self) -> dict:
        """Calls and self seconds per traced function, plus the counters."""
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=dur - covered, minlength=k)
        out = dict(self.counts)
        for i, fn in enumerate(self.names):
            out[f"{fn}.calls"] = out.get(f"{fn}.calls", 0) + int(calls[i])
            out[f"{fn}.self_s"] = out.get(f"{fn}.self_s", 0.0) + float(self_s[i])
        out["kernels.value_square_profile.primes"] = sum(
            len(primes_upto(b)) for b in self.profile_bounds
        )
        return out
