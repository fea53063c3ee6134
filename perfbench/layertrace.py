"""Spans and counters around the calls into each ncfourier layer.

``Tracer.install`` replaces every public function of the layer modules with a
wrapper that records a span (name, start, end, parent).  The replacement is
made in every module of the package that holds the function under some name,
so a call that one layer makes through another layer's module attribute (for
example ``restriction.estimate_norm``) is recorded too.  ``numpy.linalg.svd``
is wrapped to count calls and matrix sizes.  Spans stay in memory in compact
arrays and are written out once, at the end of the run.
"""

from __future__ import annotations

import inspect
import math
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("groups", "nclp", "multipliers", "restriction", "transference", "liealg", "montecarlo")


def _order_tag(args, kwargs, result):
    return args[0].parent.order


def _arity_tag(args, kwargs, result):
    return args[0].arity


def _result_order_tag(args, kwargs, result):
    return result.order


# functions whose spans carry a size: the group order or the symbol arity
TAGS = {
    "nclp.lp_norm": _order_tag,
    "groups.regular_matrix": _order_tag,
    "groups.convolve": _order_tag,
    "groups.build_group": _result_order_tag,
    "multipliers.apply_multiplier": _arity_tag,
}


def svd_flops(shape, compute_uv: bool, is_complex: bool) -> float:
    """Computed flop count of one (possibly stacked) SVD, from its shape.

    Golub-Reinsch costs for an m x n matrix with m >= n (Golub and Van Loan,
    Matrix Computations, section 5.4.5): 4mn^2 - 4n^3/3 for the singular values
    alone, 4m^2n + 8mn^2 + 9n^3 with both factors; complex arithmetic counts 4
    real flops per operation.
    """
    *batch, m, n = shape
    m, n = max(m, n), min(m, n)
    if compute_uv:
        flops = 4 * m * m * n + 8 * m * n * n + 9 * n ** 3
    else:
        flops = 4 * m * n * n - 4 * n ** 3 / 3
    return flops * (4 if is_complex else 1) * math.prod(batch)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.tag = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = [-1]
        self.counts: dict[str, float] = defaultdict(float)
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.tag.append(0)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def open(self, name: str) -> int:
        return self._open(self._name_id(name))

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, qualname: str, func, on_result):
        name_id = self._name_id(qualname)
        tag_fn = TAGS.get(qualname)
        tr = self

        def wrapper(*args, **kwargs):
            idx = tr._open(name_id)
            try:
                result = func(*args, **kwargs)
            finally:
                tr.close(idx)
            if tag_fn is not None:
                tr.tag[idx] = tag_fn(args, kwargs, result)
            if on_result is not None:
                on_result(result, tr.end[idx] - tr.start[idx])
            return result

        return wrapper

    # -- counters read from the layers' own results -------------------------

    def _result_hooks(self):
        counts = self.counts

        def norm_estimate(est, _dur):
            counts["estimates"] += 1
            counts["iterations"] += est.iterations

        def mc_estimate(est, dur):
            counts["mc_samples"] += est.samples
            counts["mc_hits"] += est.hits
            counts["mc_seconds"] += dur

        return {
            "multipliers.estimate_norm": norm_estimate,
            "montecarlo.volume_mc": mc_estimate,
            "montecarlo.delta_mc": mc_estimate,
        }

    # -- installation --------------------------------------------------------

    def install(self, package) -> None:
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        wrapped = {}
        hooks = self._result_hooks()
        for layer in LAYERS:
            mod = getattr(package, layer)
            for name in mod.__all__:
                func = getattr(mod, name, None)
                if inspect.isfunction(func):
                    qualname = f"{layer}.{name}"
                    wrapped[func] = self._wrap(qualname, func, hooks.get(qualname))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapped[value])
        svd = np.linalg.svd
        counts = self.counts

        def counted_svd(a, *args, **kwargs):
            compute_uv = kwargs.get("compute_uv", args[1] if len(args) > 1 else True)
            counts["svd_calls"] += 1
            counts["svd_flops"] += svd_flops(np.shape(a), compute_uv, np.iscomplexobj(a))
            return svd(a, *args, **kwargs)

        self._undo.append((np.linalg, "svd", svd))
        np.linalg.svd = counted_svd

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()

    # -- summaries -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "tag": np.array(self.tag, dtype=np.int64),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def self_times(self, since: int = 0) -> dict[str, float]:
        """Seconds per span name, minus the time its child spans cover, over
        the spans from index ``since`` on."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_t = np.bincount(a["name"][since:], (dur - child)[since:], minlength=len(self.names))
        return {n: float(self_t[i]) for i, n in enumerate(self.names)}

    def call_stats(self, name: str, tags=None, since: int = 0) -> tuple[int, float]:
        """(calls, total seconds) of the spans with this name (and a tag among
        ``tags``), from span index ``since`` on."""
        if name not in self._name_ids:
            return 0, 0.0
        a = self.arrays()
        sel = a["name"] == self._name_ids[name]
        if tags is not None:
            sel &= np.isin(a["tag"], list(tags))
        sel[:since] = False
        return int(sel.sum()), float(np.sum(a["end"][sel] - a["start"][sel]))

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
