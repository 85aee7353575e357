"""The three workloads: their timed rounds and the checks on their outputs.

A workload is made from a seed, loads its inputs through `probe.load`, then
runs whole rounds.  `run_round` is the timed part and only calls into
`ktrees`; `check` runs outside the timed part and compares one round's
outputs with `reference.py` or with a property the theorem guarantees,
never with a stored copy of earlier output.  An operation is one host; it
fails when the program raises on it or when any check on it fails.

`ktrees` modules are looked up as attributes at call time, so a traced run
reaches the wrappers that `tracing.instrument` installs.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from collections import Counter
from fractions import Fraction

import hosts as hostgen
import probe
import reference as ref
import speed


def _kind(degree):
    return {0: "isolated", 1: "end", 2: "degree2"}.get(degree, "major")


class Workload:
    """Shared base: load inputs, run rounds, count failed operations."""

    name = ""
    probes = 11  # set-up samples, each in a fresh process

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.out_dir = out_dir
        self.hosts = hostgen.hosts_for(self.name, seed)
        self.trees = []

    def load(self, after_import=None):
        self.trees = probe.load(self.name, self.hosts, after_import)
        self.m = sys.modules["ktrees"]

    def reparse(self):
        """Fresh KTree objects, so no round reuses what another one cached."""
        parse = self.m.core.parse_edge_list
        self.trees = [parse(h.text, h.k) for h in self.hosts]

    def weight(self, op):
        """Hosts checked by one operation."""
        return 1

    def failures(self, op, problems):
        """Hosts of one operation that failed, given its problems."""
        return 1 if problems else 0

    def run_round(self, span=None):
        """{operation: output or the exception it raised}.  Each operation is
        timed on its own; `self.clock` sums the times, raw and scaled to the
        reference speed.  `span(name)`, when given, is a context manager
        around each operation."""
        out = {}
        self.op_seconds = {}
        with speed.ScaledClock() as self.clock:
            for op, call in self.calls():
                traced = span(f"bench.op {op}") if span else contextlib.nullcontext()
                try:
                    with self.clock.timing(), traced:
                        out[op] = call()
                except Exception as exc:  # counted as a failed operation
                    out[op] = exc
                self.op_seconds[op] = self.clock.last
        return out

    def collect(self, outputs):
        """Outputs as `check` takes them; runs after the timed round."""
        return outputs

    def check(self, outputs):
        """{operation: [problems]} for the outputs of one round."""
        raise NotImplementedError


# -- exhaustive -------------------------------------------------------------------

COMMANDS = (
    # name, argv, k, orders checked: instance count = published class counts
    ("verify-k2", ["verify", "--suite", "nonmajor-max", "--k", "2", "--max-n", "10"],
     2, range(2, 11)),
    ("search-k2", ["search", "--k", "2", "--max-n", "10"], 2, range(3, 11)),
    ("verify-k3", ["verify", "--suite", "nonmajor-max", "--k", "3", "--max-n", "9"],
     3, range(3, 10)),
)


def expected_instances(k, orders):
    table = ref.UNLABELED_2TREES if k == 2 else ref.UNLABELED_3TREES
    return sum(table[n] for n in orders)


def parse_build(text):
    """(k, base, adds) from a report's 'base 1,2; 3<-(1,2); ...' string."""
    head, *steps = text.split("; ")
    base = tuple(int(x) for x in head.removeprefix("base ").split(","))
    adds = []
    for step in steps:
        v, attach = step.split("<-")
        adds.append((int(v), tuple(int(x) for x in attach.strip("()").split(","))))
    return len(base), base, adds


def check_witness(entry):
    """A search witness must be confirmed: by the program's oracle flag and by
    brute force, its maximum sits only at degree-2 cliques."""
    k, base, adds = parse_build(entry["build"])
    inc = ref.Incidence(k, base, adds)
    members = ref.brute_force_sub_ktrees(k, inc.n, ref.host_edges(k, base, adds))
    means = {}
    for C in inc.cliques():
        sizes = [len(S) for S in members if S.issuperset(C)]
        means[C] = Fraction(sum(sizes), len(sizes))
    best = max(means.values())
    arg = sorted(C for C, m in means.items() if m == best)
    problems = []
    if entry.get("oracle_confirms") is not True:
        problems.append("witness not confirmed by the program's oracle")
    if [list(C) for C in arg] != entry["argmax"] or f"{best.numerator}/{best.denominator}" != entry["mu"]:
        problems.append("witness argmax or maximum differs from brute force")
    if not all(inc.degree(C) == 2 for C in arg):
        problems.append("witness maximum is not only at degree-2 cliques")
    return problems


class Exhaustive(Workload):
    """The paper's theorem and the open-problem search over every class."""

    name = "exhaustive"

    def calls(self):
        for name, argv, _, _ in COMMANDS:
            path = self.out_dir / f"exhaustive-{name}.json"
            yield name, lambda argv=argv, path=path: self._cli(argv, path)

    def _cli(self, argv, path):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return self.m.cli.main(argv + ["--out", str(path)])

    def collect(self, outputs):
        """Pair each exit code with the report its command wrote."""
        out = {}
        for name, rc in outputs.items():
            if isinstance(rc, Exception):
                out[name] = rc
                continue
            path = self.out_dir / f"exhaustive-{name}.json"
            try:
                report = json.loads(path.read_text(encoding="utf-8"))
            except OSError as exc:  # the command wrote no report
                out[name] = exc
                continue
            path.unlink()
            report.pop("runtime_ms")
            out[name] = rc, report
        return out

    def weight(self, op):
        """Hosts checked by one command: its published instance count."""
        for name, _, k, orders in COMMANDS:
            if name == op:
                return expected_instances(k, orders)
        raise KeyError(op)

    def failures(self, op, problems):
        """Hosts named by the problems; every host of the command when a
        problem concerns the whole command (exit code, count, a raise)."""
        if not all(p.startswith("host ") for p in problems):
            return self.weight(op)
        return len({p.split(": ")[0] for p in problems})

    def check(self, outputs):
        out = {}
        for name, _, k, orders in COMMANDS:
            got = outputs[name]
            if isinstance(got, Exception):
                out[name] = [f"raised {got!r}"]
                continue
            rc, report = got
            problems = []
            if rc != 0:
                problems.append(f"exit code {rc}")
            problems += [
                f"host {v.get('instance')}: {v['claim']}" for v in report["violations"]
            ]
            want = expected_instances(k, orders)
            if report["instances"] != want:
                problems.append(
                    f"instance count {report['instances']} != {want} (published)"
                )
            for entry in report["witnesses"]:
                problems += [
                    f"host {entry['instance']}: {p}" for p in check_witness(entry)
                ]
            out[name] = problems
        return out


# -- big-hosts ------------------------------------------------------------------


def queried_cliques(host):
    """Base clique, the clique with the most attachments, the last attachment."""
    counts = Counter(attach for _, attach in host.adds)
    most = max(counts.values())
    busiest = next(a for _, a in host.adds if counts[a] == most)
    out = []
    for C in (host.base, busiest, host.adds[-1][1]):
        if C not in out:
            out.append(C)
    return out


def closed_form_cliques(host):
    """Cliques where mu is exactly k + (n - k)/2: both ends of a path-type
    host (the far end is the last k vertices added), the base of a star-type
    or bristled-star host."""
    if host.family == "path":
        return [host.base, tuple(sorted(v for v, _ in host.adds[-host.k:]))]
    if host.family in ("star", "bristled"):
        return [host.base]
    return []


def check_mid(host, inc, output):
    """Checks on one host's `mean-order --all-cliques` plus non-major verdict."""
    means, arg, best, info, adj = output
    k, n = host.k, host.n
    problems = []
    cliques = inc.cliques()
    if sorted(means) != cliques:
        return ["clique set differs from the construction records"]
    for C in cliques:
        if means[C] != inc.mean(C):
            problems.append(f"mean at {C} differs from the recursion")
        if not k <= means[C] <= n:
            problems.append(f"mean at {C} outside [k, n]")
        d = inc.degree(C)
        if info[C].degree != d or info[C].kind != _kind(d):
            problems.append(f"clique_degree at {C} differs from the records")
    top = max(inc.mean(C) for C in cliques)
    if best != top or arg != [C for C in cliques if inc.mean(C) == top]:
        problems.append("argmax differs from the recursion")
    if not any(inc.degree(C) <= 2 for C in arg):
        problems.append("argmax has no clique of degree <= 2")
    majors = [C for C in cliques if inc.degree(C) >= 3]
    if sorted(adj) != majors:
        problems.append("adjacent_cliques not queried on exactly the major cliques")
    for C in majors:
        if adj.get(C) != inc.adjacent(C) or len(adj.get(C, ())) != k * inc.degree(C):
            problems.append(f"adjacent_cliques at {C} differs from the records")
        elif not any(means[D] > means[C] for D in adj[C]):
            problems.append(f"major clique {C} has no strictly better neighbour")
    for C in closed_form_cliques(host):
        if means.get(C) != ref.closed_form_mean(k, n):
            problems.append(f"mean at {C} is not k + (n - k)/2")
    return problems


def check_large(host, inc, output):
    """Checks on one host's single-clique queries."""
    k, n = host.k, host.n
    problems = []
    exact = closed_form_cliques(host)
    for C, (mean, info, adj) in output.items():
        if mean != inc.mean(C):
            problems.append(f"mean at {C} differs from the recursion")
        if not k <= mean <= n:
            problems.append(f"mean at {C} outside [k, n]")
        if C in exact and mean != ref.closed_form_mean(k, n):
            problems.append(f"mean at {C} is not k + (n - k)/2")
        d = inc.degree(C)
        if info.degree != d or info.kind != _kind(d):
            problems.append(f"clique_degree at {C} differs from the records")
        if adj != inc.adjacent(C) or len(adj) != k * d:
            problems.append(f"adjacent_cliques at {C} differs from the records")
    return problems


class BigHosts(Workload):
    """Per-clique peeling and polynomial products on hosts of 120-2000 vertices."""

    name = "big-hosts"
    probes = 3  # each set-up recognises three hosts of 2000 vertices

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.n_mid = len(hostgen.BIG_MID)
        self.queries = [queried_cliques(h) for h in self.hosts[self.n_mid:]]

    def calls(self):
        for i, (h, T) in enumerate(zip(self.hosts, self.trees)):
            if i < self.n_mid:
                yield h.name, lambda T=T: self._all_cliques(T)
            else:
                yield h.name, lambda T=T, Q=self.queries[i - self.n_mid]: self._queries(T, Q)

    def _all_cliques(self, T):
        chartree, core = self.m.chartree, self.m.core
        means = chartree.all_clique_means(T)
        arg, best = chartree.argmax_cliques(T, means)
        info = {C: core.clique_degree(T, C) for C in means}
        adj = {C: core.adjacent_cliques(T, C) for C in means if info[C].degree >= 3}
        return means, arg, best, info, adj

    def _queries(self, T, cliques):
        chartree, core = self.m.chartree, self.m.core
        return {
            C: (
                chartree.local_mean_order_clique(T, C),
                core.clique_degree(T, C),
                core.adjacent_cliques(T, C),
            )
            for C in cliques
        }

    def check(self, outputs):
        out = {}
        for i, h in enumerate(self.hosts):
            got = outputs[h.name]
            inc = ref.Incidence(h.k, h.base, h.adds)
            if isinstance(got, Exception):
                out[h.name] = [f"raised {got!r}"]
            elif i < self.n_mid:
                out[h.name] = check_mid(h, inc, got)
            else:
                out[h.name] = check_large(h, inc, got)
        return out


# -- cross-check ----------------------------------------------------------------

BRUTE_FORCE_N = 13  # smallest order; the subset filter visits 2^13 subsets


def check_cross(host, inc, output, members=None, oracle_sets=None):
    """Oracle against fast path on every clique and adjacent pair; the
    recursion against both; brute-force members against the oracle's count,
    its polynomials and its member sets, when given."""
    count, oracle_polys, fast_polys, oracle_means, fast_means, adjacency = output
    cliques = inc.cliques()
    problems = []
    if sorted(fast_means) != cliques or sorted(oracle_means) != cliques:
        return ["clique set differs from the construction records"]
    for C, slow, fast in zip(cliques, oracle_polys, fast_polys):
        if slow != fast:
            problems.append(f"polynomial at {C}: oracle {slow} != fast path {fast}")
        cnt, tot = inc.poly_pair(C)
        coeffs = fast.coeffs
        if sum(coeffs) != cnt or sum(i * c for i, c in enumerate(coeffs)) != tot:
            problems.append(f"polynomial at {C} differs from the recursion")
        if members is not None and list(coeffs) != ref.restricted_counts(members, C):
            problems.append(f"polynomial at {C} differs from brute force")
        if oracle_means[C] != fast_means[C] or fast_means[C] != Fraction(tot, cnt):
            problems.append(f"mean at {C}: oracle {oracle_means[C]} fast {fast_means[C]}")
    for C in closed_form_cliques(host):
        if fast_means[C] != ref.closed_form_mean(host.k, host.n):
            problems.append(f"mean at {C} is not k + (n - k)/2")
    bad_pairs = adjacency.count(False)
    if bad_pairs:
        problems.append(f"{bad_pairs} adjacent pairs fail the partial-move relation")
    if members is not None and count != len(members):
        problems.append(f"oracle has {count} members, brute force {len(members)}")
    if members is not None and oracle_sets != members:
        problems.append("oracle member sets differ from brute force")
    return problems


class CrossCheck(Workload):
    """Oracle enumeration against the characteristic-tree path on small hosts."""

    name = "cross-check"

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.incs = [ref.Incidence(h.k, h.base, h.adds) for h in self.hosts]
        self.pairs = [inc.ordered_adjacent_pairs() for inc in self.incs]
        # first host of each (k, family) at the smallest order
        seen = set()
        self.brute = set()
        for i, h in enumerate(self.hosts):
            if h.n == BRUTE_FORCE_N and (h.k, h.family) not in seen:
                seen.add((h.k, h.family))
                self.brute.add(i)

    def calls(self):
        for i, (h, T) in enumerate(zip(self.hosts, self.trees)):
            yield h.name, lambda T=T, i=i: self._cross(T, self.incs[i].cliques(),
                                                        self.pairs[i])

    def _cross(self, T, cliques, pairs):
        chartree, oracle = self.m.chartree, self.m.oracle
        full = oracle.enumerate_sub_ktrees(T)
        oracle_polys = [full.restricted(C).poly() for C in cliques]
        fast_polys = [chartree.local_poly_clique(T, C) for C in cliques]
        oracle_means = oracle.oracle_all_clique_means(T)
        fast_means = chartree.all_clique_means(T)
        cache = {}
        adjacency = [
            chartree.verify_adjacent_reduction(T, a, b, cache).isomorphic
            for a, b in pairs
        ]
        return len(full), oracle_polys, fast_polys, oracle_means, fast_means, adjacency

    def check(self, outputs):
        out = {}
        for i, (h, inc) in enumerate(zip(self.hosts, self.incs)):
            got = outputs[h.name]
            if isinstance(got, Exception):
                out[h.name] = [f"raised {got!r}"]
                continue
            members = sets = None
            if i in self.brute:
                # member sets are enumerated again here rather than kept from
                # the round, so that they do not count in the peak memory
                edges = ref.host_edges(h.k, h.base, h.adds)
                members = ref.brute_force_sub_ktrees(h.k, h.n, edges)
                full = self.m.oracle.enumerate_sub_ktrees(self.trees[i])
                sets = {frozenset(s) for s in full.vertex_sets()}
            out[h.name] = check_cross(h, inc, got, members, sets)
        return out


WORKLOADS = {w.name: w for w in (Exhaustive, BigHosts, CrossCheck)}
