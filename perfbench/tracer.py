"""Outside-in span tracer for the energynet layers.

Nothing in the package is edited.  `Tracer.install()` replaces every public
function of the layer modules with a timing wrapper, in every namespace of
the package that bound it by name (so `multop.full_gram` and
`energy.full_gram` become the same wrapper), and wraps
`Network.laplacian_matrix` on the class.  Calls made inside a module go
through its globals, so they are traced too.

Each call records one span: name, start, end, parent span and op id.  Spans
live in flat typed arrays while the run is going (about 30 bytes each, a
few million per run at most) and are written out once, at the end.  Self
time is derived from the spans afterwards: a span's duration minus the
durations of its direct children.  The package is single-threaded, so
spans nest strictly and nothing waits; there are no wait times to report.
"""

from __future__ import annotations

import array
import functools
import time
import types
import weakref

import numpy as np


def _dim(a):
    """Order of a square matrix argument (SymMatrix or array)."""
    return np.shape(getattr(a, "a", a))[0]


class Tracer:
    def __init__(self):
        self.names = []
        self._name_id = {}
        self.nid = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.outer = array.array("b")  # 1 when no enclosing span has the same name
        self.op_id = -1
        self.counters = {}
        self._stack = []
        self._active = []  # per name id: number of open spans
        self._restore = []
        self._kernel_seen = {}

    # -- recording -------------------------------------------------------

    def _intern(self, name):
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._name_id[name]

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, fn, name, hook=None):
        k = self._intern(name)
        stack, active = self._stack, self._active
        nid, start, end, parent, op, outer = (
            self.nid, self.start, self.end, self.parent, self.op, self.outer)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            nid.append(k)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            outer.append(active[k] == 0)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            active[k] += 1
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = clock()
                active[k] -= 1
                stack.pop()
                start[sid] = t0
                end[sid] = t1
                if hook is not None:
                    hook(args, kwargs, result, exc)

        return traced

    # -- per-function counters (hooks) -----------------------------------

    def _work_k3(self, key):
        def hook(args, kwargs, result, exc):
            self.count(key, _dim(args[0]) ** 3)
        return hook

    def _kernel_hits(self, args, kwargs, result, exc):
        # A hit is a call returning the very object already returned for
        # this (network, vertex); weak references keep networks collectable.
        if exc is not None:
            return
        key = (id(args[0]), args[1])
        ref = self._kernel_seen.get(key)
        if ref is not None and ref() is result:
            self.count("energy.energy_kernel.hits")
        else:
            self._kernel_seen[key] = weakref.ref(result)

    def _walk_counts(self, args, kwargs, result, exc):
        samples = args[2] if len(args) > 2 else kwargs["samples"]
        self.count("randwalk.samples", samples)
        est = result if exc is None else getattr(exc, "estimate", None)
        if est is not None:
            self.count("randwalk.cap_hits", est.cap_hits)

    # -- installation ----------------------------------------------------

    def install(self):
        import energynet
        from energynet import cli, energy, multop, network, numkernel, randwalk

        modules = {"network": network, "energy": energy, "numkernel": numkernel,
                   "multop": multop, "randwalk": randwalk, "cli": cli}
        layer_of = {m.__name__: layer for layer, m in modules.items()}
        hooks = {
            "numkernel.gen_eig_max": self._work_k3("numkernel.gen_eig_max.work_k3"),
            "numkernel.psd_check": self._work_k3("numkernel.psd_check.work_k3"),
            "energy.energy_kernel": self._kernel_hits,
            "randwalk.escape_prob_mc": self._walk_counts,
        }
        wrapped = {}
        for ns in [energynet, *modules.values()]:
            for attr, obj in list(vars(ns).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or obj.__module__ not in layer_of):
                    continue
                if obj not in wrapped:
                    name = f"{layer_of[obj.__module__]}.{obj.__name__}"
                    wrapped[obj] = self.wrap(obj, name, hooks.get(name))
                self._restore.append((ns, attr, obj))
                setattr(ns, attr, wrapped[obj])
        lap = network.Network.laplacian_matrix
        self._restore.append((network.Network, "laplacian_matrix", lap))
        network.Network.laplacian_matrix = self.wrap(lap, "network.laplacian")

    def uninstall(self):
        for ns, attr, obj in reversed(self._restore):
            setattr(ns, attr, obj)
        self._restore.clear()

    # -- analysis --------------------------------------------------------

    def arrays(self):
        def col(buf, dtype):
            return np.frombuffer(buf, dtype=dtype).copy()  # copy: frees the buffer for appends

        start, end = col(self.start, float), col(self.end, float)
        parent = col(self.parent, np.int32)
        dur = end - start
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return {
            "nid": col(self.nid, np.int32),
            "start": start,
            "end": end,
            "parent": parent,
            "op": col(self.op, np.int32),
            "outer": col(self.outer, np.int8).astype(bool),
            "dur": dur,
            "self": dur - children,
        }

    def summary(self, loop_only=True):
        """Per span name: calls, inclusive seconds (outermost spans only, so
        recursion is not double-counted) and self seconds.  With `loop_only`
        only spans of timed ops (op id >= 0) count."""
        a = self.arrays()
        keep = a["op"] >= 0 if loop_only else np.ones(a["op"].size, dtype=bool)
        nid = a["nid"][keep]
        m = len(self.names)
        calls = np.bincount(nid, minlength=m)
        incl = np.bincount(nid, weights=(a["dur"] * a["outer"])[keep], minlength=m)
        self_s = np.bincount(nid, weights=a["self"][keep], minlength=m)
        return {name: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(self_s[i])}
                for i, name in enumerate(self.names)}

    def save(self, path):
        a = self.arrays()
        np.savez(path, names=np.array(self.names), **{k: a[k] for k in
                 ("nid", "start", "end", "parent", "op")})
