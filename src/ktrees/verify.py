"""Verification suites over exhaustive, random or family corpora, and the
search for k-trees whose maximum local mean order avoids every end clique.

Each suite (a row of `SUITES`) replays one exact claim over a corpus of
trees, k-trees or one named family and reports violations; a violation is a
build failure, not a logged warning.  Exhaustive corpora check one
representative per isomorphism class: every checked claim is invariant
under relabeling, so each labeling of a class gives the same verdict.

Every checker returns the fields of a `Found` for its host; one that
checks `TheoremReport`s folds them into those with `_fold_reports`.

The argmax checkers (at k = 1 the cliques are the vertices) make every
decision on a host table, `_HostTable`, indexed by the k-clique nodes of
the host's clique-incidence index: the argmax, the best end and degree-2
nodes, which nodes have a strictly better neighbour (a face of a step
that holds them: the index's `holders` and `faces`), and end-clique
dominance, which compares each end clique with the other faces of its one
step.  Each node holds its exact pair (count, total), a floor key
(total << 64) // count and its degree class.  A lower key means a
strictly lower mean, so only equal keys are compared exactly, by
cross-multiplying; no float and no `Fraction` enters a decision.
`Fraction`s and clique tuples are built only for report fields, where
cliques are sorted by tuple.  `_argmax_classes` builds the table from one
pass over the index (`core.all_clique_pairs`) and its holders.
`nonmajor-max`, the suite the benchmark's tracing test pins, builds it
from one characteristic tree per clique (`all_clique_means`) and one
`clique_degree` per clique.

`_run_corpus` drives every suite and the search: one corpus, one host
loop, one merge; `_report` validates the config, times the run and builds
both reports.
"""

from __future__ import annotations

import itertools
import json
import os
import random as _random
import time
from bisect import insort
from collections import Counter
from fractions import Fraction
from functools import cmp_to_key
from typing import NamedTuple

from .chartree import (
    all_clique_means,
    argmax_cliques,
    local_mean_order_clique,
    local_poly_clique,
    verify_adjacent_reduction,
)
from .core import (
    DEGREE2,
    END,
    MAJOR,
    KTree,
    _clique_info,
    _mask_vertices,
    _require_ids,
    _require_int,
    all_clique_pairs,
    clique_degree,
    gen_bristled_star,
    gen_double_broom,
    k_cliques,
    kp1_cliques,
    random_ktree,
)
from .errors import BadK, KTreeError, NotATree, SizeTooSmall, TooLarge, UnknownSuite
from .isomorphism import iso_levels, require_class_order
from .kelmans_ops import (
    TheoremReport,
    check_kelmans,
    check_leaf_dominates_neighbor,
    check_partial_kelmans_monotone,
    path_with_leaf_predicate,
)
from .oracle import DEFAULT_CAP, enumerate_sub_ktrees, oracle_all_clique_means
from .polynomials import (
    fraction_str,
    format_decimal,
    global_mean_order_tree,
    jamison_ratio_check,
)

SCHEMA_VERIFY = "ktree-verify/2"
SCHEMA_SEARCH = "ktree-search/2"
FAMILY_GUARD = 1000  # max family parameter n
RANDOM_GUARD = 10_000  # max host order in random mode
K_GUARD = 255  # max k of any suite; class corpora stop at k = 9 (CLASS_MAX_ORDER)
NEAR_MISSES = 8  # near misses a search report keeps
_CHUNK = 400  # hosts per payload of a parallel run


def _require(kind, x):
    """x if it is a `kind`; KTreeError otherwise."""
    if not isinstance(x, kind):
        raise KTreeError(f"expected a {kind.__name__}, got {x!r}")
    return x


def tree_adjacency(T):
    """Adjacency mapping of a 1-tree."""
    if _require(KTree, T).k != 1:
        raise NotATree(f"host has k={T.k}, not a tree")
    return {v: frozenset(_mask_vertices(T.masks[v])) for v in T.vertices}


def path_type_predicate(T):
    """Exactly two k-leaves, or small enough that the notion is vacuous."""
    if _require(KTree, T).n <= T.k + 1:
        return True
    return len(T.k_leaf_set()) == 2


# -- configuration -------------------------------------------------------------


class SuiteConfig(NamedTuple):
    """What to run and over which corpus."""

    suite: str
    ks: tuple = (2,)
    min_n: int = 0
    max_n: int = 6
    mode: str = "exhaustive"
    trials: int = 0
    seed: int = 0
    cap: int = DEFAULT_CAP
    jobs: int = 1

    def validate(self):
        """Check the config against its suite's row and return the validated
        copy.  A tree suite runs at k = 1, so the copy's ks are (1,)."""
        suite = SUITES.get(self.suite) if isinstance(self.suite, str) else None
        if suite is None:
            raise UnknownSuite(f"no suite named {self.suite!r}; try {suite_names()}")
        for name, lo in (("min_n", None), ("max_n", None), ("trials", None),
                         ("seed", None), ("cap", 0), ("jobs", 1)):
            _require_int(getattr(self, name), name, lo)
        _require_ids(self.ks, "k", BadK)
        if not self.ks or min(self.ks) < suite.least_k or max(self.ks) > K_GUARD:
            raise BadK(
                f"suite {self.suite!r} needs at least one k and every k in "
                f"{suite.least_k}..{K_GUARD}, got {self.ks}"
            )
        for i, k in enumerate(self.ks):
            if k in self.ks[:i]:
                raise BadK(
                    f"ks {self.ks} repeats k={k}, so each of its hosts would be "
                    "checked twice"
                )
        cfg = self._replace(ks=(1,)) if suite.trees else self
        if cfg.mode not in ("exhaustive", "random"):
            raise UnknownSuite(f"unknown mode {cfg.mode!r}")
        if suite.family and cfg.mode == "random":
            raise KTreeError(f"family suite {cfg.suite!r} has no random mode")
        # refuse options the corpus of this mode would ignore
        if cfg.mode == "exhaustive" and (cfg.trials or cfg.seed):
            raise KTreeError(
                f"exhaustive mode takes no trials or seed, got trials={cfg.trials}, "
                f"seed={cfg.seed}"
            )
        if cfg.mode == "random" and cfg.trials < 1:
            raise TooLarge("random mode requires a positive trial count")
        lo = max(cfg.min_n, suite.least if suite.family else min(cfg.ks))
        if lo > cfg.max_n:
            raise SizeTooSmall(
                f"suite {cfg.suite!r} has no host of order {lo}..{cfg.max_n}"
            )
        if suite.oracle_hosts and cfg.max_n > cfg.cap:
            raise TooLarge(
                f"suite {cfg.suite!r} enumerates every host; order {cfg.max_n} "
                f"exceeds enumeration cap {cfg.cap}"
            )
        if suite.family:
            if cfg.max_n > FAMILY_GUARD:
                raise TooLarge(f"family suites are capped at n <= {FAMILY_GUARD}")
            return cfg
        if cfg.mode == "random":
            if (least := max(cfg.min_n, max(cfg.ks) + 1)) > cfg.max_n:
                raise SizeTooSmall(f"random hosts need max_n >= {least}")
            if cfg.max_n > RANDOM_GUARD:
                raise TooLarge(f"random hosts are capped at n <= {RANDOM_GUARD}")
            return cfg
        for k in cfg.ks:
            require_class_order(k, cfg.max_n)
        return cfg


def iter_corpus(cfg):
    """Yield (instance_id, KTree) pairs of the copy of cfg that `validate` returns.

    Random draw i takes k = ks[i % len(ks)], an order n drawn uniformly
    from max(min_n, k + 1)..max_n and the host seed s = seed + i; its id is
    the suite's `random_id` with k, n and s filled in.
    """
    cfg = _require(SuiteConfig, cfg).validate()
    suite = SUITES[cfg.suite]
    if suite.family:
        ns = range(max(cfg.min_n, suite.least), cfg.max_n + 1)
        yield from suite.family(cfg.ks, ns)
        return
    if cfg.mode == "random":
        for i in range(cfg.trials):
            k, s = cfg.ks[i % len(cfg.ks)], cfg.seed + i
            draw = _random.Random(cfg.seed * 1_000_003 + i)
            n = draw.randint(max(cfg.min_n, k + 1), cfg.max_n)
            yield suite.random_id.format(k=k, n=n, s=s), random_ktree(k, n, s)
        return
    for k in cfg.ks:
        lo = max(cfg.min_n, k)
        if lo > cfg.max_n:
            continue
        for n, level in iso_levels(k, cfg.max_n):
            if n >= lo:
                for i, T in enumerate(level):
                    yield f"k{k}-n{n}-c{i}", T


# -- per-instance checkers -----------------------------------------------------


def _violation(rep):
    """The violation record of a TheoremReport that is not ok."""
    return {
        "claim": rep.claim,
        "detail": rep.instance,
        "lhs": fraction_str(rep.lhs),
        "rhs": fraction_str(rep.rhs),
        "equality": rep.equality,
        "predicted_equality": rep.predicted_equality,
    }


def _fold_reports(reports, equality):
    """(violations, tallies) of TheoremReports: each report is tallied under
    the key `equality` or as `strict`, and each one that is not ok becomes a
    violation."""
    violations = []
    tallies = Counter()
    for rep in reports:
        tallies[equality if rep.equality else "strict"] += 1
        if not rep.ok:
            violations.append(_violation(rep))
    return violations, tallies


def check_jamison_ratio(T, cfg):
    adj = tree_adjacency(T)
    claim = "phi'/(1+phi) <= phi/2 with path-leaf tightness"
    reps = []
    for u in sorted(adj):
        lhs, rhs, tight = jamison_ratio_check(adj, u)
        pred = path_with_leaf_predicate(adj, u)
        reps.append(TheoremReport(claim, f"u={u}", lhs, rhs, lhs <= rhs, tight, pred))
    return _fold_reports(reps, "tight")


def check_global_mean_bound(T, cfg):
    adj = tree_adjacency(T)
    rep = TheoremReport.at_least(
        "mu(T) >= (n+2)/3, equality exactly on paths",
        f"n={T.n}",
        global_mean_order_tree(adj),
        Fraction(T.n + 2, 3),
        path_type_predicate(T),
    )
    return _fold_reports([rep], "equality")


def check_kelmans_suite(T, cfg):
    adj = tree_adjacency(T)
    reports = (
        rep
        for u in sorted(adj)
        for v in sorted(adj[u])
        for rep in check_kelmans(adj, u, v)
    )
    return _fold_reports(reports, "equality")


def check_partial_kelmans_suite(T, cfg):
    adj = tree_adjacency(T)
    # every W of v's neighbours other than u, by size; u is one of adj[v]
    reports = (
        check_partial_kelmans_monotone(adj, u, v, W)
        for u in sorted(adj)
        for v in sorted(adj[u])
        for r in range(len(adj[v]))
        for W in itertools.combinations(sorted(adj[v] - {u}), r)
    )
    return _fold_reports(reports, "equality")


def check_leaf_dominance(T, cfg):
    adj = tree_adjacency(T)
    reports = (
        check_leaf_dominates_neighbor(adj, v, u)
        for v in sorted(adj)
        if len(adj[v]) == 1
        for u in adj[v]
    )
    return _fold_reports(reports, "equality")


def check_local_mean_reduction(T, cfg):
    """Characteristic-tree local polynomial and mean against the oracle."""
    violations = []
    tallies = Counter()
    full = enumerate_sub_ktrees(T, cap=cfg.cap)
    for C in k_cliques(T):
        fast = local_poly_clique(T, C)
        local = full.restricted(C)
        slow = local.poly()
        tallies["cliques"] += 1
        if fast != slow:
            violations.append(
                {
                    "claim": "phi_{T,C} = x^(k-1) phi_{T'_C,C} (oracle mismatch)",
                    "detail": f"C={C} fast={fast} oracle={slow}",
                }
            )
            continue
        # the mean follows from the polynomial; spot-check the shipped path
        fast_mu = local_mean_order_clique(T, C)
        slow_mu = local.mean()
        if fast_mu != slow_mu:
            violations.append(
                {
                    "claim": "mu(T;C) = mu(T'_C;C) + k - 1 (oracle mismatch)",
                    "detail": f"C={C}",
                    "lhs": fraction_str(fast_mu),
                    "rhs": fraction_str(slow_mu),
                }
            )
    return violations, tallies


def check_chartree_adjacency(T, cfg):
    violations = []
    tallies = Counter()
    cache = {}
    for q in kp1_cliques(T):
        for C1, C2 in itertools.combinations(itertools.combinations(q, T.k), 2):
            for a, b in ((C1, C2), (C2, C1)):
                rep = verify_adjacent_reduction(T, a, b, cache)
                tallies["pairs"] += 1
                if not rep.isomorphic:
                    violations.append(
                        {
                            "claim": "T'_C2 = partial move of T'_C1",
                            "detail": f"C1={a} C2={b} moved={rep.moved} {rep.detail}",
                        }
                    )
    return violations, tallies


class _HostTable(NamedTuple):
    """One host's k-clique nodes (of its clique-incidence index `inc`) as
    the argmax suites read them: per node, the pair (count, total) whose
    quotient is its mean, the floor key (total << 64) // count and the
    CliqueInfo; and `arg`, the nodes of greatest mean.

    A lower key means a strictly lower mean, so only nodes of equal key are
    compared exactly, by cross-multiplying.  Scaling a pair changes neither
    its key nor any comparison, so reduced and unreduced pairs order alike.
    Adjacency is read off `inc` (`faces`, `holders`); clique tuples are left
    to the reports (`inc.clique`)."""

    inc: object
    pairs: list
    keys: list
    infos: list
    arg: list

    @classmethod
    def of(cls, inc, pairs, infos):
        keys = [(total << 64) // count for count, total in pairs]
        table = cls(inc, pairs, keys, infos, [])
        return table._replace(arg=table.top(range(len(pairs))))

    def compare(self, i, j):
        """The sign of node i's mean minus node j's."""
        a, b = self.keys[i], self.keys[j]
        if a == b:
            p, q = self.pairs[i], self.pairs[j]
            if p == q:  # as between the faces of a k-leaf's step
                return 0
            a, b = p[1] * q[0], q[1] * p[0]
        return (a > b) - (a < b)

    def top(self, nodes):
        """The nodes of greatest mean among `nodes`, in their order."""
        keys = self.keys
        high = max(map(keys.__getitem__, nodes))
        tied = [j for j in nodes if keys[j] == high]
        if len({self.pairs[j] for j in tied}) > 1:  # only unequal pairs can differ
            best = max(tied, key=cmp_to_key(self.compare))
            tied = [j for j in tied if not self.compare(j, best)]
        return tied

    def best(self, kind):
        """A node of greatest mean among those of the given kind, or None."""
        nodes = [j for j, info in enumerate(self.infos) if info.kind == kind]
        return self.top(nodes)[0] if nodes else None

    def argmax_key(self):
        """The tally key naming the classes in the argmax."""
        return "argmax:" + "+".join(sorted({self.infos[j].kind for j in self.arg}))

    def better(self, nodes):
        """The nodes among `nodes` with an adjacent node of strictly greater
        mean: a face of one of the steps that hold them."""
        holders, faces = self.inc.holders(), self.inc.faces
        return {
            j
            for j in nodes
            if any(self.compare(i, j) > 0 for s in holders[j] for i in faces(s))
        }

    def sorted_cliques(self, nodes):
        """(clique, node) for each of `nodes`, sorted by clique."""
        return sorted((self.inc.clique(j), j) for j in nodes)


def _mean(pair):
    """A (count, total) pair's mean as a `Fraction`, for a report field."""
    count, total = pair
    return Fraction(total, count)


def _argmax_classes(T):
    """The host table of T: every pair from one pass over the host's
    clique-incidence index, and every degree as the number of steps that
    hold its node."""
    inc = T._incidence
    degree = list(map(len, inc.holders()))
    info = {d: _clique_info(d) for d in set(degree)}
    return _HostTable.of(inc, all_clique_pairs(T), [info[d] for d in degree])


def check_nonmajor_max(T, cfg):
    """Maximum sits at a non-major clique; every major clique has a better
    neighbor.  Its means come from `all_clique_means`, one characteristic
    tree per clique, and its degrees from `clique_degree`; the argmax and
    the neighbour test read the host table those make."""
    means = all_clique_means(T)
    pairs, infos = [None] * len(means), [None] * len(means)
    for C, j in T._k_cliques.items():
        m = means[C]
        pairs[j], infos[j] = (m.denominator, m.numerator), clique_degree(T, C)
    table = _HostTable.of(T._incidence, pairs, infos)
    violations = []
    tallies = Counter([table.argmax_key()])
    if all(infos[j].kind == MAJOR for j in table.arg):
        arg = table.sorted_cliques(table.arg)
        violations.append(
            {
                "claim": "argmax contains a clique of degree <= 2",
                "detail": f"argmax={[C for C, _ in arg]} "
                f"degrees={[infos[j].degree for _, j in arg]}",
                "lhs": fraction_str(means[arg[0][0]]),
            }
        )
    majors = [j for j, info in enumerate(infos) if info.kind == MAJOR]
    if majors:
        tallies["major_cliques"] = len(majors)
    better = table.better(majors)
    for C, _ in table.sorted_cliques(j for j in majors if j not in better):
        violations.append(
            {
                "claim": "major clique has a strictly better neighbor",
                "detail": f"C={C} mu={fraction_str(means[C])}",
            }
        )
    return violations, tallies


def check_end_clique_dominance(T, cfg):
    """End cliques dominate their neighbors, with the exact equality cases.
    An end clique lies in one step, so its neighbors are that step's other
    faces; each pair is tallied as `equality` or `strict`, and only a pair
    that fails builds its means, ordered by clique as `adjacent_cliques`
    orders them."""
    table = _argmax_classes(T)
    inc, pairs, infos = table.inc, table.pairs, table.infos
    pt = path_type_predicate(T)
    leafset = set(T.k_leaf_set())
    tallies = Counter()
    failed = []
    for s in range(len(inc.build)):
        faces = inc.faces(s)
        for j in faces:
            if infos[j].kind != END:
                continue
            leafy = pt and any(v in leafset for v in inc.clique(j))
            for i in faces:
                if i == j:
                    continue
                sign = table.compare(j, i)
                tallies["strict" if sign else "equality"] += 1
                predicted = infos[i].kind == END or leafy
                if sign < 0 or (not sign) != predicted:
                    failed.append(
                        (inc.clique(j), inc.clique(i), pairs[j], pairs[i], predicted)
                    )
    claim = (
        "mu(T;C1) >= mu(T;C2) for end C1, equality iff "
        "C2 end or path-type with k-leaf in C1"
    )
    violations = [
        _violation(
            TheoremReport.at_least(
                claim, f"C1={C1} C2={C2}", _mean(p), _mean(q), predicted
            )
        )
        for C1, C2, p, q, predicted in sorted(failed)
    ]
    return violations, tallies


def check_double_broom(T, cfg):
    """The double broom of parameter n (order 2n + 5) has its maximum local
    mean order at a degree-2 vertex for n >= 7 and at a leaf for n <= 2."""
    n = (T.n - 5) // 2
    table = _argmax_classes(T)
    arg = table.sorted_cliques(table.arg)
    infos = [table.infos[j] for _, j in arg]
    vertices = [v for (v,), _ in arg]
    degset = sorted({info.degree for info in infos})
    violations = []
    if n >= 7 and any(info.kind != DEGREE2 for info in infos):
        violations.append(
            {
                "claim": "argmax vertex has degree 2 for n >= 7",
                "detail": f"argmax={vertices} degrees={degset}",
            }
        )
    if n in (1, 2) and any(info.kind != END for info in infos):
        violations.append(
            {"claim": "argmax is a leaf for n in {1,2}", "detail": f"argmax={vertices}"}
        )
    return violations, Counter([f"n={n}:argmax_degrees={degset}"])


def check_bristled_star(T, cfg):
    """Every maximizer of the bristled star of parameter n (order k + 2n) is
    an end clique."""
    n = (T.n - T.k) // 2
    table = _argmax_classes(T)
    infos = [table.infos[j] for j in table.arg]
    degrees = sorted({info.degree for info in infos})
    violations = []
    if any(info.kind != END for info in infos):
        arg = [C for C, _ in table.sorted_cliques(table.arg)]
        violations.append(
            {
                "claim": "all maximizers are end cliques",
                "detail": f"argmax={arg} degrees={degrees}",
            }
        )
    return violations, Counter([f"k={T.k},n={n}:argmax_degrees={degrees}"])


def check_degree2_witness(T, cfg):
    """A host whose maximum is attained only at degree-2 cliques is a
    witness; one of order at most cfg.cap is re-checked by the oracle, and a
    disagreement is a violation.  The near miss is (gap, record), the gap
    being the best degree-2 mean minus the best end mean; the record holds
    the host and both (count, total) pairs, and `_near_record` formats the
    few that a search report keeps."""
    table = _argmax_classes(T)
    violations, witnesses, near = [], [], []
    end, deg2 = table.best(END), table.best(DEGREE2)
    if end is not None and deg2 is not None:
        (c1, t1), (c2, t2) = table.pairs[end], table.pairs[deg2]
        record = {
            "k": T.k,
            "n": T.n,
            "build": (T.base, T.build),
            "best_end": (c1, t1),
            "best_degree2": (c2, t2),
        }
        near.append((Fraction(t2 * c1 - t1 * c2, c1 * c2), record))
    if all(table.infos[j].kind == DEGREE2 for j in table.arg):
        arg = [C for C, _ in table.sorted_cliques(table.arg)]
        best = _mean(table.pairs[table.arg[0]])
        entry = {
            "k": T.k,
            "n": T.n,
            "build": _build_str(T.base, T.build),
            "argmax": [list(C) for C in arg],
            "mu": fraction_str(best),
            "mu_decimal": format_decimal(best),
        }
        try:
            oracle_means = oracle_all_clique_means(T, cap=cfg.cap)
            oracle_arg, oracle_best = argmax_cliques(T, oracle_means)
            entry["oracle_confirms"] = oracle_arg == arg and oracle_best == best
        except TooLarge:
            entry["oracle_confirms"] = None
        if entry["oracle_confirms"] is False:
            violations.append(
                {
                    "claim": "witness re-validation by the oracle",
                    "detail": "fast path and oracle disagree",
                }
            )
        witnesses.append(entry)
    return violations, Counter([table.argmax_key()]), witnesses, near


def _near_record(miss):
    """The report record of a (gap, record) near miss."""
    gap, record = miss
    return {
        **record,
        "build": _build_str(*record["build"]),
        "best_end": fraction_str(_mean(record["best_end"])),
        "best_degree2": fraction_str(_mean(record["best_degree2"])),
        "gap": fraction_str(gap),
        "gap_decimal": format_decimal(gap),
    }


def _double_brooms(ks, ns):
    for n in ns:
        yield f"broom-n{n}", gen_double_broom(n)


def _bristled_stars(ks, ns):
    for k in ks:
        for n in ns:
            yield f"bristled-k{k}-n{n}", gen_bristled_star(k, n)


class Suite(NamedTuple):
    """A suite's checker and its corpus: every k-tree of each order (class
    representatives, or random builds named by `random_id`) for the
    configured ks, or for k = 1 when `trees`; or, whatever the mode, the
    (instance_id, host) pairs family(ks, ns) for the family parameters n
    from `least` to max_n.  Every k lies in least_k..K_GUARD.  When
    `oracle_hosts`, the oracle enumerates every host, so max_n must lie
    within the enumeration cap.

    The checker returns the fields of a `Found` for a host, at least
    (violations, tallies)."""

    checker: object
    trees: bool = False
    family: object = None
    least: int = 1
    least_k: int = 1
    random_id: str = "k{k}-n{n}-r{s}"
    oracle_hosts: bool = False


SUITES = {
    "jamison-ratio": Suite(check_jamison_ratio, trees=True),
    "global-mean-bound": Suite(check_global_mean_bound, trees=True),
    "kelmans": Suite(check_kelmans_suite, trees=True),
    "partial-kelmans": Suite(check_partial_kelmans_suite, trees=True),
    "leaf-dominance": Suite(check_leaf_dominance, trees=True),
    "local-mean-reduction": Suite(check_local_mean_reduction, oracle_hosts=True),
    "chartree-adjacency": Suite(check_chartree_adjacency),
    "nonmajor-max": Suite(check_nonmajor_max),
    "end-clique-dominance": Suite(check_end_clique_dominance),
    "double-broom": Suite(check_double_broom, trees=True, family=_double_brooms),
    "bristled-star": Suite(
        check_bristled_star, family=_bristled_stars, least=3, least_k=2
    ),
    "degree2-witness": Suite(check_degree2_witness, least_k=2, random_id="k{k}-r{s}"),
}


def suite_names():
    return sorted(SUITES)


# -- drivers -------------------------------------------------------------------


class Found(NamedTuple):
    """What a host, a chunk or a whole corpus yields: violation records,
    tallies, witness entries, (gap, record) near misses and a host count."""

    violations: list
    tallies: Counter
    witnesses: tuple = ()
    near_misses: tuple = ()
    instances: int = 1


def _check_hosts(suite, cfg, hosts):
    """Yield a Found for each (instance_id, KTree) pair, with the instance
    id stamped on each of its records."""
    for inst_id, T in hosts:
        found = Found(*suite.checker(T, cfg))
        records = (r for _, r in found.near_misses)
        for item in itertools.chain(found.violations, found.witnesses, records):
            item["instance"] = inst_id
        yield found


def _near_rank(miss):
    """Near misses rank by largest gap, ties broken by id."""
    return -miss[0], miss[1]["instance"]


def _merge(results):
    """Sum Founds: records in corpus order, tallies and counts added, and the
    NEAR_MISSES near misses of largest gap kept, ties broken by id."""
    violations, witnesses, near = [], [], []
    tallies = Counter()
    instances = 0
    for r in results:
        violations += r.violations
        witnesses += r.witnesses
        tallies.update(r.tallies)
        instances += r.instances
        for miss in r.near_misses:
            if len(near) < NEAR_MISSES or _near_rank(miss) < _near_rank(near[-1]):
                insort(near, miss, key=_near_rank)
                del near[NEAR_MISSES:]
    return Found(violations, tallies, witnesses, near, instances)


def _run_chunk(payload):
    cfg, specs = payload
    hosts = (
        (inst_id, KTree.from_parts(k, base, build))
        for inst_id, k, base, build in specs
    )
    return _merge(_check_hosts(SUITES[cfg.suite], cfg, hosts))


def _chunk_payloads(cfg):
    specs = ((inst_id, T.k, T.base, T.build) for inst_id, T in iter_corpus(cfg))
    while batch := list(itertools.islice(specs, _CHUNK)):
        yield (cfg, batch)


def _run_corpus(cfg):
    """The merged Found of a validated cfg's suite over its corpus, checked
    serially or in chunks over at most one worker per CPU."""
    suite = SUITES[cfg.suite]
    if cfg.jobs == 1:
        return _merge(_check_hosts(suite, cfg, iter_corpus(cfg)))
    # imported here, so that runs without a pool never load multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    workers = min(cfg.jobs, os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return _merge(pool.map(_run_chunk, _chunk_payloads(cfg)))


def _report(cfg, schema=SCHEMA_VERIFY, config=None, shape=None):
    """Validate cfg, check its corpus and return the versioned JSON-ready
    report: its config is `config`, or else the validated copy's fields, and
    its tallies are sorted by key, then passed with the near misses through
    `shape`."""
    t0 = time.monotonic()
    cfg = cfg.validate()
    found = _run_corpus(cfg)
    tallies = dict(sorted(found.tallies.items()))
    return {
        "schema": schema,
        "suite": cfg.suite,
        "config": config or {**cfg._asdict(), "ks": list(cfg.ks)},
        "instances": found.instances,
        "violations": found.violations,
        "witnesses": found.witnesses,
        "tallies": shape(tallies, found.near_misses) if shape else tallies,
        "runtime_ms": int((time.monotonic() - t0) * 1000),
    }


def run_suite(cfg):
    """Run one suite and return the versioned JSON-ready report."""
    return _report(_require(SuiteConfig, cfg))


# -- the open-problem search ---------------------------------------------------


def search_degree2_witness(
    k,
    max_n,
    mode="exhaustive",
    budget=None,
    seed=0,
    cap=DEFAULT_CAP,
    jobs=1,
):
    """Look for a k-tree whose maximum local mean order is attained only at
    degree-2 cliques (never at an end clique): the `degree2-witness` suite
    over every host of order k + 1..max_n, its hosts checked over `jobs`
    workers as in `verify`.

    Witnesses of order at most `cap` are re-validated against the
    brute-force oracle; above it `oracle_confirms` is None.  The search
    reports whatever it finds; an empty witness list over an exhaustive
    corpus certifies absence only at those sizes.  Its tallies are the
    argmax classes and the near-miss records.
    """
    if _require_int(k, "k", error=BadK) < 2:
        raise BadK(
            "search requires k >= 2; for trees the double-broom suite already "
            "exhibits degree-2 maximizers"
        )
    if mode == "exhaustive" and budget is not None:
        raise KTreeError(f"exhaustive mode takes no budget, got budget={budget}")
    if mode == "random" and (budget is None or _require_int(budget, "budget") < 1):
        raise TooLarge(f"random mode takes a positive budget, got budget={budget}")
    cfg = SuiteConfig(
        suite="degree2-witness",
        ks=(k,),
        min_n=k + 1,
        max_n=max_n,
        mode=mode,
        trials=budget or 0,
        seed=seed,
        cap=cap,
        jobs=jobs,
    )
    # jobs changes no result, so the report's config leaves it out
    config = dict(k=k, max_n=max_n, mode=mode, budget=budget, seed=seed, cap=cap)

    def shape(classes, near):
        return {"classes": classes, "near_misses": list(map(_near_record, near))}

    return _report(cfg, SCHEMA_SEARCH, config, shape)


def _build_str(base, build):
    parts = ["base " + ",".join(map(str, base))]
    parts += [f"{v}<-({','.join(map(str, att))})" for v, att in build]
    return "; ".join(parts)


def report_to_json(report):
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
