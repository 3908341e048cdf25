"""Per-layer spans recorded from outside the program.

``Tracer(kw)`` builds a recording wrapper for each public function of the
nine layer modules; ``install`` puts it in place of the function in every
``knitweave.*`` namespace that holds it (``campaigns`` imports
``build_configuration`` by name, for example) and ``uninstall`` puts the
function back.
A span records its function, start, end, parent span and the op it belongs
to; a generator gets one span per step it runs, so only time spent inside
it is counted. Spans stay in memory until ``write`` is called.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array
from collections import Counter

LAYERS = ("graphs", "solver", "structure", "coloring", "certify",
          "generators", "formats", "campaigns", "cli")

# Primitives called so often that a wrapper would cost more than the work
# they do; their time is charged to the caller's self time.
HOT = {
    "graphs": {"bits", "mask_of", "set_of", "neighbors_closed", "induced",
               "components", "reachable", "is_connected", "rho"},
    "solver": {"iter_paths", "iter_paths_by_length", "shortest_path",
               "pairs_spec", "s_value", "partitions_with_profile"},
}

SETUP_OP = -1   # spans made while building the inputs
CHECK_OP = -2   # spans made while checking outputs


def _flow_pruned(args, kwargs, result) -> bool:
    """max_vertex_disjoint_flow returned less than its cap."""
    names = ("g", "sources", "sinks", "allowed", "cap", "collect")
    bound = dict(zip(names, args), **kwargs)
    cap = bound.get("cap")
    if cap is None:
        cap = min(bound["sources"].bit_count(), bound["sinks"].bit_count())
    flow = result[0] if isinstance(result, tuple) else result
    return flow < cap


# outcome probes: function -> predicate on (args, kwargs, result)
PROBES = {
    "solver.max_vertex_disjoint_flow": _flow_pruned,
    "certify.greedy_link": lambda a, k, r: r.linkage is not None,
}


def phase_of(op: int) -> str:
    return "setup" if op == SETUP_OP else "check" if op == CHECK_OP else "op"


class Tracer:
    def __init__(self, kw):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        # keyed by (phase, function)
        self.hits: Counter = Counter()    # probe outcomes that were true
        self.yields: Counter = Counter()  # items produced by a generator
        self.calls: Counter = Counter()   # generator creations
        self.current_op = SETUP_OP
        self._stack = [-1]
        # (namespace, name, original, wrapper) for every binding to replace
        self._slots: list[tuple[dict, str, object, object]] = []
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "knitweave" or name.startswith("knitweave."))]
        for layer in LAYERS:
            mod = getattr(kw, layer)
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or name in HOT.get(layer, ())):
                    continue
                wrapped = self._wrap(f"{layer}.{name}", fn)
                for m in modules:
                    if vars(m).get(name) is fn:
                        self._slots.append((vars(m), name, fn, wrapped))

    def install(self) -> None:
        for ns, name, _, wrapped in self._slots:
            ns[name] = wrapped

    def uninstall(self) -> None:
        for ns, name, fn, _ in self._slots:
            ns[name] = fn

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, fid: int) -> int:
        idx = len(self.start)
        self.name_of.append(fid)
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        fid = self._id(name)
        probe = PROBES.get(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def steps(gen):
                try:
                    while True:
                        idx = tracer._open(fid)
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            tracer._close(idx)
                        tracer.yields[phase_of(tracer.current_op), name] += 1
                        yield item
                finally:
                    gen.close()

            def gen_wrapper(*args, **kwargs):
                tracer.calls[phase_of(tracer.current_op), name] += 1
                return steps(fn(*args, **kwargs))

            gen_wrapper.__wrapped__ = fn
            return gen_wrapper

        def wrapper(*args, **kwargs):
            idx = tracer._open(fid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if probe is not None and probe(args, kwargs, result):
                tracer.hits[phase_of(tracer.current_op), name] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- reading ------------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, list[float]]]:
        """{phase: {function: [calls, self_s, total_s]}} with phase one of
        "setup", "op" and "check". A generator's calls are its creations;
        its time is the sum of its steps."""
        total = len(self.start)
        child = [0.0] * total
        for i in range(total):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, list[float]]] = {"setup": {}, "op": {}, "check": {}}
        for i in range(total):
            name = self.names[self.name_of[i]]
            row = out[phase_of(self.op[i])].setdefault(name, [0, 0.0, 0.0])
            dur = self.end[i] - self.start[i]
            row[0] += 1
            row[1] += dur - child[i]
            row[2] += dur
        for (phase, name), n in self.calls.items():
            out[phase].setdefault(name, [0, 0.0, 0.0])[0] = n
        return out

    def count_children(self, parent_name: str, child_name: str) -> int:
        """Op spans of ``child_name`` whose parent span is ``parent_name``."""
        pid, cid = self._ids.get(parent_name), self._ids.get(child_name)
        if pid is None or cid is None:
            return 0
        return sum(1 for i in range(len(self.start))
                   if self.name_of[i] == cid and self.op[i] >= 0 and self.parent[i] >= 0
                   and self.name_of[self.parent[i]] == pid)

    def write(self, path) -> None:
        """Spans as tab-separated rows: id, name, start, end, parent, op."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tstart\tend\tparent\top\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{i}\t{names[self.name_of[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.op[i]}\n")
