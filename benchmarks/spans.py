"""Outside-in tracing of one CLI request, installed from the benchmark's side.

``Tracer.install`` replaces the public functions of every ``cactusnet``
module, at every module attribute that names them (``require_valid`` is
bound in ``network``, ``groves`` and ``electrical``, for instance), with
a wrapper that records a span: name, parent span, start and end.  Spans
stay in memory, in entry order, until ``report`` reduces them to calls,
busy time and self time per function, and a profile per call path.

Self time is a span's duration minus the part of it that its child spans
cover.  Busy time of a function is the union of its spans, so a call
nested in a call of the same function is not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

LAYERS = ("cli", "netfile", "network", "groves", "electrical", "grassmann",
          "linalg", "combinat")

# Constant-time helpers called once per element (per label, per matrix
# entry, per Lambda value).  A span around each call would cost more than
# the call; their time stays in the caller's self time.
LEAF_HELPERS = {
    "combinat.circle_position", "combinat.format_element",
    "combinat.canonical_blocks", "combinat.is_partition", "combinat.catalan",
    "network.boundary_name", "network.arc_key", "network.is_arc",
    "netfile.format_rational", "netfile.parse_rational",
    "netfile.index_set_string", "grassmann.positions_of",
}

# Public methods that carry layer work (the rest are accessors).
METHODS = {
    "combinat": {"NoncrossingPartition": ("from_blocks",),
                 "KrewerasPair": ("of",), "Matching": ("from_pairs",)},
    "linalg": {"RationalMatrix": ("determinant", "rank")},
}


def _max_bits(solution) -> int:
    vectors = [getattr(solution, "particular", [])]
    vectors += getattr(solution, "nullspace", [])
    return max((max(x.numerator.bit_length(), x.denominator.bit_length())
                for v in vectors for x in v), default=0)


def self_times(parent, start, end) -> list:
    """Duration minus the covered part of each span's children.

    ``parent[i]`` is the index of span i's parent, or -1.  Children may
    overlap or stick out of their parent; only the part of the union of
    their intervals that lies inside the parent is subtracted.
    """
    n = len(start)
    covered = [0.0] * n
    reach = list(start)
    for i in sorted(range(n), key=start.__getitem__):
        p = parent[i]
        if p < 0:
            continue
        lo, hi = max(start[i], reach[p]), min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(reach[p], min(end[i], end[p]))
    return [end[i] - start[i] - covered[i] for i in range(n)]


def union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class Tracer:
    """Span recorder for one request in one process."""

    def __init__(self):
        self.names = []
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = {}
        self.maxima = {}

    def count(self, key, k=1):
        self.counts[key] = self.counts.get(key, 0) + k

    def wrap(self, name, fn, after=None):
        names, parent, start, end = self.names, self.parent, self.start, self.end
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def _after_hooks(self):
        def lam(res):
            self.count("groves.nonzero", sum(1 for v in res.values.values() if v))
            self.count("groves.held", len(res.values))

        def solve(res):
            bits = _max_bits(res)
            self.maxima["linalg.max_bits"] = max(
                self.maxima.get("linalg.max_bits", 0), bits)

        def terms(res):
            self.count("grassmann.exterior_terms", len(res.coords))

        return {
            "groves.lambda_vector": lam,
            "linalg.solve_linear": solve,
            "grassmann.lam_map": terms, "grassmann.plucker": terms,
            "grassmann.kappa": terms,
            "combinat.enumerate_noncrossing":
                lambda res: self.count("combinat.partitions_enumerated", len(res)),
            "netfile.dump_document":
                lambda res: self.count("netfile.output_bytes", len(res)),
        }

    def _counting_generator(self, key, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.count(key)
                yield item
        return counted

    def install(self) -> None:
        """Patch every binding of the traced functions and methods."""
        mods = {layer: sys.modules[f"cactusnet.{layer}"] for layer in LAYERS}
        hooks = self._after_hooks()
        replace = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if attr.startswith("_") or name in LEAF_HELPERS \
                        or not callable(obj) or inspect.isclass(obj) \
                        or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isgeneratorfunction(obj):
                    replace[id(obj)] = self._counting_generator(
                        f"{name}.yields", obj)
                else:
                    replace[id(obj)] = self.wrap(name, obj, hooks.get(name))
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("cactusnet"):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in replace and callable(obj):
                        setattr(mod, attr, replace[id(obj)])
        for layer, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(mods[layer], cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    name = f"{layer}.{cls_name}.{meth}"
                    if isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(self.wrap(name, raw.__func__)))
                    else:
                        setattr(cls, meth, self.wrap(name, raw))
        vec = mods["grassmann"].ExteriorVector
        init = vec.__init__

        @functools.wraps(init)
        def counted_init(obj, n, degree, coords=None):
            self.count("grassmann.coords_copied", len(coords or ()))
            init(obj, n, degree, coords)

        vec.__init__ = counted_init

    def report(self) -> dict:
        """Calls, busy and self seconds per name, counts, and the profile."""
        names, parent, start, end = self.names, self.parent, self.start, self.end
        own = self_times(parent, start, end)
        calls, selfs, spans_of = {}, {}, {}
        path_of = array("i")           # span -> index into paths
        path_index, paths = {}, []      # (parent path, name) -> index
        for i, name in enumerate(names):
            calls[name] = calls.get(name, 0) + 1
            selfs[name] = selfs.get(name, 0.0) + own[i]
            spans_of.setdefault(name, []).append((start[i], end[i]))
            key = (path_of[parent[i]] if parent[i] >= 0 else -1, name)
            k = path_index.get(key)
            if k is None:
                k = path_index[key] = len(paths)
                prefix = paths[key[0]][0] + " > " if key[0] >= 0 else ""
                paths.append([prefix + name, 0, 0.0, 0.0])
            path_of.append(k)
            entry = paths[k]
            entry[1] += 1
            entry[2] += end[i] - start[i]
            entry[3] += own[i]
        busy = {name: union_length(iv) for name, iv in spans_of.items()}
        return {"calls": calls, "busy": busy, "self": selfs,
                "counts": self.counts, "maxima": self.maxima,
                "profile": {p[0]: p[1:] for p in paths}}
