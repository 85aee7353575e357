"""Spans around calls into the public functions of each `ktrees` layer.

`instrument` replaces a function under every name it is bound to inside the
`ktrees` modules, because `verify`, `chartree` and `isomorphism` import
functions such as `all_clique_means`, `clique_degree` and `construction_from`
by name.  Spans are kept in memory in flat arrays (name, start, end, parent,
size) and written out once, when the run ends.  A span's self time is its
duration minus the durations of its direct children; spans never overlap
because the benchmark runs in one thread.

Nothing is wrapped unless `instrument` is called, so untraced runs measure
the program as shipped.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name, size of a result or None).  `size` feeds
# count metrics that need a result, such as members enumerated.
SPANS = (
    ("core", "parse_edge_list", "core.parse_edge_list", None),
    ("core", "clique_degree", "core.clique_degree", None),
    ("core", "adjacent_cliques", "core.adjacent_cliques", None),
    ("chartree", "all_clique_means", "chartree.all_clique_means", None),
    ("chartree", "local_mean_order_clique", "chartree.local_mean_order_clique", None),
    ("chartree", "local_poly_clique", "chartree.local_poly_clique", None),
    ("chartree", "characteristic_tree", "chartree.characteristic_tree", None),
    ("chartree", "construction_from", "chartree.construction_from", None),
    ("chartree", "verify_adjacent_reduction", "chartree.verify_adjacent_reduction", None),
    ("polynomials", "subtree_poly_at_vertex", "polynomials.subtree_poly_at_vertex", None),
    ("kelmans_ops", "partial_kelmans", "kelmans_ops.partial_kelmans", None),
    ("oracle", "enumerate_sub_ktrees", "oracle.enumerate_sub_ktrees", len),
    ("oracle", "SubKTreeSet.restricted", "oracle.SubKTreeSet.restricted", None),
    ("oracle", "SubKTreeSet.poly", "oracle.SubKTreeSet.poly", None),
    ("oracle", "SubKTreeSet.mean", "oracle.SubKTreeSet.mean", None),
    ("oracle", "oracle_all_clique_means", "oracle.oracle_all_clique_means", None),
    ("isomorphism", "enumerate_ktrees_up_to_iso", "isomorphism.enumerate_ktrees_up_to_iso", len),
    ("isomorphism", "rooted_code_set", "isomorphism.rooted_code_set", None),
    ("isomorphism", "rooted_code", "isomorphism.rooted_code", None),
    ("verify", "run_suite", "verify.run_suite", None),
    ("verify", "search_degree2_witness", "verify.search_degree2_witness", None),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.size = array("q")
        self._open = [-1]

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _begin(self, nid):
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._open[-1])
        self.size.append(0)
        self.end.append(0.0)
        self._open.append(i)
        self.start.append(time.perf_counter())
        return i

    def _finish(self, i):
        self.end[i] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name):
        i = self._begin(self._id(name))
        try:
            yield
        finally:
            self._finish(i)

    def wrap(self, name, fn, size=None):
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._begin(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._finish(i)
            if size is not None:
                self.size[i] = size(out)
            return out

        return traced

    # -- aggregation ------------------------------------------------------------

    def tally(self, root_name, within=None):
        """Per root span called `root_name`, in the order the roots ran:
        {span name: [calls, self seconds, summed size, calls nested in a
        span called `within`]} over the root and its descendants."""
        n = len(self.name)
        child = [0.0] * n
        root = [0] * n
        inside = [False] * n  # has an ancestor called `within`
        wid = self._ids.get(within)
        for i in range(n):
            p = self.parent[i]
            if p < 0:
                root[i] = i
                continue
            root[i] = root[p]
            inside[i] = inside[p] or self.name[p] == wid
            child[p] += self.end[i] - self.start[i]
        rid = self._ids.get(root_name)
        per_root = {
            i: defaultdict(lambda: [0, 0.0, 0, 0])
            for i in range(n)
            if self.parent[i] < 0 and self.name[i] == rid
        }
        for i in range(n):
            rows = per_root.get(root[i])
            if rows is None:
                continue
            row = rows[self.names[self.name[i]]]
            row[0] += 1
            row[1] += self.end[i] - self.start[i] - child[i]
            row[2] += self.size[i]
            row[3] += inside[i]
        return [dict(per_root[r]) for r in sorted(per_root)]

    def write(self, path):
        """One span per line: index, name, start, end, parent, size."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\tsize\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.start[i] - t0:.7f}\t"
                    f"{self.end[i] - t0:.7f}\t{self.parent[i]}\t{self.size[i]}\n"
                )


def instrument(tracer):
    """Wrap every function in SPANS under all of its names in `ktrees`.

    Returns a function that puts the originals back.
    """
    undo = []
    modules = {
        name: mod
        for name, mod in sys.modules.items()
        if mod is not None and (name == "ktrees" or name.startswith("ktrees."))
    }
    for modname, attr, span, size in SPANS:
        owner = modules.get(f"ktrees.{modname}")
        if owner is None:  # a layer this workload never imports
            continue
        if "." in attr:  # a method: wrap it on its class
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, tracer.wrap(span, original, size))
            undo.append((cls, meth, original))
            continue
        original = getattr(owner, attr)
        wrapper = tracer.wrap(span, original, size)
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
                    undo.append((mod, name, original))

    def restore():
        for obj, name, original in reversed(undo):
            setattr(obj, name, original)

    return restore
