"""Verification suites over exhaustive or random corpora, and the search
for k-trees whose maximum local mean order avoids every end clique.

Each suite replays one exact claim over a corpus of trees or k-trees and
reports violations; a violation is a build failure, not a logged warning.
Exhaustive corpora iterate labeled construction sequences, optionally
deduplicated by isomorphism class (every checked claim is invariant under
relabeling, so one representative per class gives the same verdict).
"""

from __future__ import annotations

import itertools
import json
import random as _random
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, asdict
from fractions import Fraction

from .chartree import (
    all_clique_means,
    argmax_cliques,
    local_poly_clique,
    verify_adjacent_reduction,
)
from .core import (
    KTree,
    adjacent_cliques,
    clique_degree,
    gen_bristled_star,
    gen_double_broom,
    k_cliques,
    kp1_cliques,
    random_ktree,
)
from .errors import BadK, NotATree, SizeTooSmall, TooLarge, UnknownSuite
from .isomorphism import enumerate_ktrees_up_to_iso, ISO_ENUM_GUARD
from .kelmans_ops import (
    check_kelmans_monotone,
    check_kelmans_shift,
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
    local_mean_order_vertex,
)

SCHEMA_VERIFY = "ktree-verify/1"
SCHEMA_SEARCH = "ktree-search/1"
LABELED_GUARD = 2_000_000


def labeled_count(k, n):
    """Number of labeled construction sequences: product of (1 + k*j)."""
    out = 1
    for j in range(n - k):
        out *= 1 + k * j
    return out


def enumerate_labeled_ktrees(k, n, guard=LABELED_GUARD):
    """Yield every labeled build sequence of order-n k-trees."""
    if n < k:
        raise SizeTooSmall(f"need n >= k, got {n}")
    if labeled_count(k, n) > guard:
        raise TooLarge(f"{labeled_count(k, n)} labeled builds exceed guard {guard}")
    base = tuple(range(1, k + 1))
    adds = []
    cliques = [base]

    def rec(v):
        if v > n:
            yield KTree.from_parts(k, base, list(adds), validate=False)
            return
        for i in range(len(cliques)):
            C = cliques[i]
            adds.append((v, C))
            for c in C:
                cliques.append(tuple(sorted((set(C) - {c}) | {v})))
            yield from rec(v + 1)
            del cliques[-k:]
            adds.pop()

    return rec(k + 1)


def tree_adjacency(T):
    """Adjacency mapping of a 1-tree."""
    if T.k != 1:
        raise NotATree(f"host has k={T.k}, not a tree")
    return {v: frozenset(T.neighbors(v)) for v in T.vertices}


def path_type_predicate(T):
    """Exactly two k-leaves, or small enough that the notion is vacuous."""
    if T.n <= T.k + 1:
        return True
    return len(T.k_leaf_set()) == 2


# -- configuration -------------------------------------------------------------


@dataclass
class SuiteConfig:
    """What to run and over which corpus."""

    suite: str
    ks: tuple = (2,)
    min_n: int = 0
    max_n: int = 6
    mode: str = "exhaustive"
    trials: int = 0
    seed: int = 0
    cap: int = DEFAULT_CAP
    dedupe: bool = True
    jobs: int = 1

    def validate(self):
        if not self.ks or min(self.ks) < 1:
            raise BadK(f"need at least one k and every k >= 1, got {self.ks}")
        if self.mode not in ("exhaustive", "random"):
            raise UnknownSuite(f"unknown mode {self.mode!r}")
        if self.mode == "random" and self.trials < 1:
            raise TooLarge("random mode requires trials >= 1")
        for k in self.ks:
            if self.mode == "exhaustive":
                if k == 2 and self.max_n > 11:
                    raise TooLarge("exhaustive k=2 corpora are capped at n <= 11")
                if self.dedupe and self.max_n - k > ISO_ENUM_GUARD:
                    raise TooLarge(
                        f"class enumeration capped at n - k <= {ISO_ENUM_GUARD}"
                    )
                if not self.dedupe and labeled_count(k, self.max_n) > LABELED_GUARD:
                    raise TooLarge(
                        f"labeled corpus for k={k}, n={self.max_n} exceeds "
                        f"{LABELED_GUARD} builds"
                    )
        return self

    def as_dict(self):
        d = asdict(self)
        d["ks"] = list(self.ks)
        return d


def _random_ktrees(ks, min_n, max_n, count, seed):
    """Yield (k, s, random_ktree(k, n, s)) for `count` seeded draws.

    Draw i takes k = ks[i % len(ks)], an order n drawn uniformly from
    max(min_n, k + 1)..max_n, and the host seed s = seed + i.
    """
    lo = max(min_n, max(ks) + 1)
    if lo > max_n:
        raise SizeTooSmall(f"random k-trees need max_n >= {lo}, got {max_n}")
    for i in range(count):
        k = ks[i % len(ks)]
        n = _random.Random(seed * 1_000_003 + i).randint(max(min_n, k + 1), max_n)
        yield k, seed + i, random_ktree(k, n, seed + i)


def iter_corpus(cfg):
    """Yield (instance_id, KTree) pairs for a validated config."""
    if cfg.mode == "random":
        for k, s, T in _random_ktrees(
            cfg.ks, cfg.min_n, cfg.max_n, cfg.trials, cfg.seed
        ):
            yield f"k{k}-n{T.n}-r{s}", T
        return
    for k in cfg.ks:
        lo = max(cfg.min_n, k)
        for n in range(lo, cfg.max_n + 1):
            if cfg.dedupe:
                for i, T in enumerate(enumerate_ktrees_up_to_iso(k, n)):
                    yield f"k{k}-n{n}-c{i}", T
            else:
                for i, T in enumerate(enumerate_labeled_ktrees(k, n)):
                    yield f"k{k}-n{n}-L{i}", T


# -- per-instance checkers -----------------------------------------------------


def _bad(claim, report):
    return {
        "claim": claim,
        "detail": report.instance,
        "lhs": fraction_str(report.lhs),
        "rhs": fraction_str(report.rhs),
        "equality": report.equality,
        "predicted_equality": report.predicted_equality,
    }


def check_jamison_ratio(T, cfg):
    adj = tree_adjacency(T)
    violations = []
    tallies = Counter()
    for u in sorted(adj):
        lhs, rhs, tight = jamison_ratio_check(adj, u)
        predicted = path_with_leaf_predicate(adj, u)
        tallies["tight" if tight else "strict"] += 1
        if lhs > rhs or tight != predicted:
            violations.append(
                {
                    "claim": "phi'/(1+phi) <= phi/2 with path-leaf tightness",
                    "detail": f"u={u}",
                    "lhs": fraction_str(lhs),
                    "rhs": fraction_str(rhs),
                    "equality": tight,
                    "predicted_equality": predicted,
                }
            )
    return violations, tallies


def check_global_mean_bound(T, cfg):
    adj = tree_adjacency(T)
    mu = global_mean_order_tree(adj)
    bound = Fraction(T.n + 2, 3)
    is_path = all(len(vs) <= 2 for vs in adj.values())
    violations = []
    tallies = Counter(["equality" if mu == bound else "strict"])
    if mu < bound or (mu == bound) != is_path:
        violations.append(
            {
                "claim": "mu(T) >= (n+2)/3, equality exactly on paths",
                "detail": f"n={T.n}",
                "lhs": fraction_str(mu),
                "rhs": fraction_str(bound),
                "equality": mu == bound,
                "predicted_equality": is_path,
            }
        )
    return violations, tallies


def _ordered_adjacent_pairs(adj):
    for u in sorted(adj):
        for v in sorted(adj[u]):
            yield u, v


def check_kelmans_suite(T, cfg):
    adj = tree_adjacency(T)
    violations = []
    tallies = Counter()
    for u, v in _ordered_adjacent_pairs(adj):
        rep2, rep3 = check_kelmans_shift(adj, u, v)
        for rep in (rep2, rep3):
            tallies["equality" if rep.equality else "strict"] += 1
            if not rep.ok:
                violations.append(_bad(rep.claim, rep))
        mono = check_kelmans_monotone(adj, u, v)
        tallies["equality" if mono.equality else "strict"] += 1
        if not mono.ok:
            violations.append(_bad(mono.claim, mono))
    return violations, tallies


def check_partial_kelmans_suite(T, cfg):
    adj = tree_adjacency(T)
    violations = []
    tallies = Counter()
    for u, v in _ordered_adjacent_pairs(adj):
        others = sorted(adj[v] - {u})
        for r in range(len(others) + 1):
            for W in itertools.combinations(others, r):
                rep = check_partial_kelmans_monotone(adj, u, v, W)
                tallies["equality" if rep.equality else "strict"] += 1
                if not rep.ok:
                    violations.append(_bad(rep.claim, rep))
    return violations, tallies


def check_leaf_dominance(T, cfg):
    adj = tree_adjacency(T)
    violations = []
    tallies = Counter()
    for v in sorted(adj):
        if len(adj[v]) != 1:
            continue
        (u,) = adj[v]
        rep = check_leaf_dominates_neighbor(adj, v, u)
        tallies["equality" if rep.equality else "strict"] += 1
        if not rep.ok:
            violations.append(_bad(rep.claim, rep))
    return violations, tallies


def check_local_mean_reduction(T, cfg):
    """Characteristic-tree local polynomial and mean against the oracle."""
    violations = []
    tallies = Counter()
    full = enumerate_sub_ktrees(T, cap=cfg.cap)
    for C in k_cliques(T):
        fast = local_poly_clique(T, C)
        slow = full.restricted(C).poly()
        tallies["cliques"] += 1
        if fast != slow:
            violations.append(
                {
                    "claim": "phi_{T,C} = x^(k-1) phi_{T'_C,C} (oracle mismatch)",
                    "detail": f"C={C} fast={fast} oracle={slow}",
                }
            )
            continue
        # mean equality follows from the polynomial identity; spot-check it
        fast_mu = Fraction(fast.derivative()(1), fast(1))
        slow_mu = full.restricted(C).mean()
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


def check_nonmajor_max(T, cfg):
    """Maximum sits at degree <= 2; every major clique has a better neighbor."""
    violations = []
    tallies = Counter()
    means = all_clique_means(T)
    arg, best = argmax_cliques(T, means)
    degs = {C: clique_degree(T, C) for C in means}
    if not any(degs[C].degree <= 2 for C in arg):
        violations.append(
            {
                "claim": "argmax contains a clique of degree <= 2",
                "detail": f"argmax={arg} degrees={[degs[C].degree for C in arg]}",
                "lhs": fraction_str(best),
            }
        )
    kinds = sorted({degs[C].kind for C in arg})
    tallies["argmax:" + "+".join(kinds)] += 1
    for C, info in degs.items():
        if info.degree >= 3:
            better = [D for D in adjacent_cliques(T, C) if means[D] > means[C]]
            tallies["major_cliques"] += 1
            if not better:
                violations.append(
                    {
                        "claim": "major clique has a strictly better neighbor",
                        "detail": f"C={C} mu={fraction_str(means[C])}",
                    }
                )
    return violations, tallies


def check_end_clique_dominance(T, cfg):
    """End cliques dominate their neighbors, with the exact equality cases."""
    violations = []
    tallies = Counter()
    means = all_clique_means(T)
    degs = {C: clique_degree(T, C).degree for C in means}
    pt = path_type_predicate(T)
    leafset = set(T.k_leaf_set()) if T.n > T.k else set()
    for C1, d in degs.items():
        if d != 1:
            continue
        c1_has_leaf = any(v in leafset for v in C1)
        for C2 in adjacent_cliques(T, C1):
            lhs, rhs = means[C1], means[C2]
            predicted = degs[C2] == 1 or (pt and c1_has_leaf)
            tallies["equality" if lhs == rhs else "strict"] += 1
            if lhs < rhs or (lhs == rhs) != predicted:
                violations.append(
                    {
                        "claim": "mu(T;C1) >= mu(T;C2) for end C1, equality iff "
                        "C2 end or path-type with k-leaf in C1",
                        "detail": f"C1={C1} C2={C2}",
                        "lhs": fraction_str(lhs),
                        "rhs": fraction_str(rhs),
                        "equality": lhs == rhs,
                        "predicted_equality": predicted,
                    }
                )
    return violations, tallies


_CHECKERS = {
    "jamison-ratio": (check_jamison_ratio, "trees"),
    "global-mean-bound": (check_global_mean_bound, "trees"),
    "kelmans": (check_kelmans_suite, "trees"),
    "partial-kelmans": (check_partial_kelmans_suite, "trees"),
    "leaf-dominance": (check_leaf_dominance, "trees"),
    "local-mean-reduction": (check_local_mean_reduction, "ktrees"),
    "chartree-adjacency": (check_chartree_adjacency, "ktrees"),
    "nonmajor-max": (check_nonmajor_max, "ktrees"),
    "end-clique-dominance": (check_end_clique_dominance, "ktrees"),
}

_FAMILY_SUITES = ("double-broom", "bristled-star")


def suite_names():
    return sorted(_CHECKERS) + sorted(_FAMILY_SUITES)


# -- drivers -------------------------------------------------------------------


def _run_chunk(payload):
    suite, cfg_dict, specs = payload
    cfg = SuiteConfig(**cfg_dict)
    checker, _ = _CHECKERS[suite]
    violations = []
    tallies = Counter()
    for inst_id, k, base, build in specs:
        T = KTree.from_parts(k, base, build, validate=False)
        v, t = checker(T, cfg)
        for item in v:
            item["instance"] = inst_id
        violations.extend(v)
        tallies.update(t)
    return violations, tallies, len(specs)


def _run_family_suite(cfg):
    violations = []
    tallies = Counter()
    instances = 0
    if cfg.suite == "double-broom":
        lo = max(cfg.min_n, 1)
        for n in range(lo, cfg.max_n + 1):
            T = gen_double_broom(n)
            adj = tree_adjacency(T)
            means = {v: local_mean_order_vertex(adj, v) for v in sorted(adj)}
            best = max(means.values())
            arg = sorted(v for v, m in means.items() if m == best)
            degset = sorted({len(adj[v]) for v in arg})
            instances += 1
            tallies[f"n={n}:argmax_degrees={degset}"] += 1
            if n >= 7 and degset != [2]:
                violations.append(
                    {
                        "instance": f"broom-n{n}",
                        "claim": "argmax vertex has degree 2 for n >= 7",
                        "detail": f"argmax={arg} degrees={degset}",
                    }
                )
            if n in (1, 2) and not all(len(adj[v]) == 1 for v in arg):
                violations.append(
                    {
                        "instance": f"broom-n{n}",
                        "claim": "argmax is a leaf for n in {1,2}",
                        "detail": f"argmax={arg}",
                    }
                )
    elif cfg.suite == "bristled-star":
        for k in cfg.ks:
            lo = max(cfg.min_n, 3)
            for n in range(lo, cfg.max_n + 1):
                T = gen_bristled_star(k, n)
                arg, best = argmax_cliques(T)
                degrees = sorted({clique_degree(T, C).degree for C in arg})
                instances += 1
                tallies[f"k={k},n={n}:argmax_degrees={degrees}"] += 1
                if degrees != [1]:
                    violations.append(
                        {
                            "instance": f"bristled-k{k}-n{n}",
                            "claim": "all maximizers are end cliques",
                            "detail": f"argmax={arg} degrees={degrees}",
                        }
                    )
    else:
        raise UnknownSuite(cfg.suite)
    return violations, tallies, instances


def run_suite(cfg):
    """Run one suite and return the versioned JSON-ready report."""
    t0 = time.monotonic()
    cfg.validate()
    if cfg.suite in _FAMILY_SUITES:
        violations, tallies, instances = _run_family_suite(cfg)
    elif cfg.suite in _CHECKERS:
        checker, kind = _CHECKERS[cfg.suite]
        if kind == "trees" and tuple(cfg.ks) != (1,):
            cfg.ks = (1,)
        violations = []
        tallies = Counter()
        instances = 0
        if cfg.jobs <= 1:
            for inst_id, T in iter_corpus(cfg):
                v, t = checker(T, cfg)
                for item in v:
                    item["instance"] = inst_id
                violations.extend(v)
                tallies.update(t)
                instances += 1
        else:
            payloads = _chunk_payloads(cfg)
            with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
                for v, t, c in pool.map(_run_chunk, payloads):
                    violations.extend(v)
                    tallies.update(t)
                    instances += c
    else:
        raise UnknownSuite(f"no suite named {cfg.suite!r}; try {suite_names()}")
    return {
        "schema": SCHEMA_VERIFY,
        "suite": cfg.suite,
        "config": cfg.as_dict(),
        "instances": instances,
        "violations": violations,
        "witnesses": [],
        "tallies": dict(sorted(tallies.items())),
        "runtime_ms": int((time.monotonic() - t0) * 1000),
    }


def _chunk_payloads(cfg, chunk=400):
    specs = []
    for inst_id, T in iter_corpus(cfg):
        specs.append((inst_id, T.k, T.base, T.build))
        if len(specs) >= chunk:
            yield (cfg.suite, cfg.as_dict(), specs)
            specs = []
    if specs:
        yield (cfg.suite, cfg.as_dict(), specs)


# -- the open-problem search ---------------------------------------------------


def search_degree2_witness(
    k,
    max_n,
    mode="exhaustive",
    budget=None,
    seed=0,
    dedupe=True,
    cap=DEFAULT_CAP,
):
    """Look for a k-tree whose maximum local mean order is attained only at
    degree-2 cliques (never at an end clique).

    Witnesses are re-validated against the brute-force oracle.  The search
    reports whatever it finds; an empty witness list over an exhaustive
    corpus certifies absence only at those sizes.
    """
    if k < 2:
        raise BadK(
            "search requires k >= 2; for trees the double-broom suite already "
            "exhibits degree-2 maximizers"
        )
    t0 = time.monotonic()
    witnesses = []
    violations = []
    tallies = Counter()
    near = []  # (gap, id, info)
    instances = 0

    if mode == "exhaustive":
        cfg = SuiteConfig(
            suite="nonmajor-max",
            ks=(k,),
            min_n=k + 1,
            max_n=max_n,
            mode="exhaustive",
            dedupe=dedupe,
            cap=cap,
        ).validate()
        corpus = iter_corpus(cfg)
    elif mode == "random":
        if not budget or budget < 1:
            raise TooLarge("random mode requires a positive budget")
        corpus = (
            (f"k{k}-r{s}", T)
            for _, s, T in _random_ktrees((k,), k + 1, max_n, budget, seed)
        )
    else:
        raise UnknownSuite(f"unknown mode {mode!r}")

    for inst_id, T in corpus:
        instances += 1
        means = all_clique_means(T)
        best = max(means.values())
        arg = sorted(C for C, m in means.items() if m == best)
        infos = {C: clique_degree(T, C) for C in means}
        degs = {C: info.degree for C, info in infos.items()}
        kinds = sorted({infos[C].kind for C in arg})
        tallies["argmax:" + "+".join(kinds)] += 1

        end_best = max((m for C, m in means.items() if degs[C] == 1), default=None)
        deg2_best = max((m for C, m in means.items() if degs[C] == 2), default=None)
        if end_best is not None and deg2_best is not None:
            gap = deg2_best - end_best
            near.append(
                (
                    gap,
                    inst_id,
                    {
                        "instance": inst_id,
                        "k": k,
                        "n": T.n,
                        "build": _build_str(T),
                        "best_end": fraction_str(end_best),
                        "best_degree2": fraction_str(deg2_best),
                        "gap": fraction_str(gap),
                        "gap_decimal": format_decimal(gap),
                    },
                )
            )
            near.sort(key=lambda t: (-t[0], t[1]))
            del near[8:]

        if all(degs[C] == 2 for C in arg):
            entry = {
                "instance": inst_id,
                "k": k,
                "n": T.n,
                "build": _build_str(T),
                "argmax": [list(C) for C in arg],
                "mu": fraction_str(best),
                "mu_decimal": format_decimal(best),
            }
            try:
                oracle_means = oracle_all_clique_means(T, cap=max(cap, T.n))
                oracle_best = max(oracle_means.values())
                oracle_arg = sorted(
                    C for C, m in oracle_means.items() if m == oracle_best
                )
                entry["oracle_confirms"] = oracle_arg == arg and oracle_best == best
            except TooLarge:
                entry["oracle_confirms"] = None
            if entry["oracle_confirms"] is False:
                violations.append(
                    {
                        "instance": inst_id,
                        "claim": "witness re-validation by the oracle",
                        "detail": "fast path and oracle disagree",
                    }
                )
            witnesses.append(entry)

    return {
        "schema": SCHEMA_SEARCH,
        "suite": "degree2-witness",
        "config": {
            "k": k,
            "max_n": max_n,
            "mode": mode,
            "budget": budget,
            "seed": seed,
            "dedupe": dedupe,
            "cap": cap,
        },
        "instances": instances,
        "violations": violations,
        "witnesses": witnesses,
        "tallies": {
            "classes": dict(sorted(tallies.items())),
            "near_misses": [info for _, _, info in near],
        },
        "runtime_ms": int((time.monotonic() - t0) * 1000),
    }


def _build_str(T):
    parts = ["base " + ",".join(map(str, T.base))]
    parts += [f"{v}<-({','.join(map(str, att))})" for v, att in T.build]
    return "; ".join(parts)


def report_to_json(report):
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
