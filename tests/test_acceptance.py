"""Acceptance suite: the project's exit criteria, one test per criterion.

Run `pytest tests/test_acceptance.py -v -s` to get one PASS/FAIL line per
criterion.  All comparisons are exact (integer polynomials and reduced
fractions); corpora are stated inline.  Criteria whose predicates are
invariant under relabeling use one representative per isomorphism class
where iterating every labeled build would add nothing but runtime; the
labeled corpora required at small sizes are iterated in full.
"""

import time
from fractions import Fraction

import pytest

from ktrees import chartree as CT
from ktrees import core, oracle, verify as V
from ktrees.isomorphism import enumerate_ktrees_up_to_iso
from ktrees.kelmans_ops import (
    check_kelmans,
    check_leaf_dominates_neighbor,
    check_partial_kelmans_monotone,
)
from ktrees.polynomials import global_mean_order_tree, local_mean_order_vertex
from ktrees.verify import tree_adjacency

from conftest import (
    branch_mean,
    count_and_total,
    enumerate_labeled_ktrees,
    ktree_classes,
    trees_upto,
)

RANDOM_MASTER_SEED = 20_260_810
RANDOM_TRIALS = 500


def _emit(number, ok, description, stats):
    line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {description} ({stats})"
    print(line)
    return line


def _labeled_corpus(ks, max_n):
    for k in ks:
        for n in range(k, max_n + 1):
            for i, T in enumerate(enumerate_labeled_ktrees(k, n)):
                yield f"k{k}-n{n}-L{i}", T


def _random_corpus():
    import random

    for i in range(RANDOM_TRIALS):
        k = 1 + i % 4
        n = random.Random(RANDOM_MASTER_SEED + i).randint(k + 1, 14)
        yield f"k{k}-n{n}-r{i}", core.random_ktree(k, n, RANDOM_MASTER_SEED + i)


@pytest.fixture(scope="module")
def reduction_results():
    """Shared sweep for criteria 1 and 2: every clique of every corpus host,
    characteristic-tree polynomial and mean against the brute-force oracle."""
    mean_mismatches = []
    poly_mismatches = []
    instances = 0
    cliques = 0
    t0 = time.perf_counter()
    for inst, T in list(_labeled_corpus((1, 2, 3), 8)) + list(_random_corpus()):
        instances += 1
        full = oracle.enumerate_sub_ktrees(T, cap=16)
        for C in core.k_cliques(T):
            cliques += 1
            fast_poly = CT.local_poly_clique(T, C)
            slow = full.restricted(C)
            if fast_poly != slow.poly():
                poly_mismatches.append((inst, C))
                continue
            count, total = count_and_total(fast_poly)
            fast_mu = Fraction(total, count)
            if fast_mu != slow.mean():
                mean_mismatches.append((inst, C))
    elapsed = time.perf_counter() - t0
    return {
        "instances": instances,
        "cliques": cliques,
        "elapsed": elapsed,
        "mean_mismatches": mean_mismatches,
        "poly_mismatches": poly_mismatches,
    }


def test_criterion_01_clique_mean_reduction(reduction_results):
    r = reduction_results
    ok = not r["mean_mismatches"] and not r["poly_mismatches"]
    ok = ok and r["elapsed"] < 120
    line = _emit(
        1,
        ok,
        "mu(T;C) via characteristic tree equals the oracle on exhaustive "
        "k in {1,2,3}, n <= 8 plus 500 random k <= 4, n <= 14",
        f"{r['instances']} hosts, {r['cliques']} cliques, {r['elapsed']:.1f}s",
    )
    assert ok, (line, r["mean_mismatches"][:5], r["poly_mismatches"][:5])


def test_criterion_02_local_poly_identity(reduction_results):
    r = reduction_results
    ok = not r["poly_mismatches"]
    line = _emit(
        2,
        ok,
        "phi_{T,C}(x) = x^(k-1) phi_{T'_C,C}(x) coefficientwise on the "
        "criterion-1 corpus",
        f"{r['cliques']} cliques compared",
    )
    assert ok, (line, r["poly_mismatches"][:5])


def test_criterion_03_max_at_nonmajor():
    violations = []
    instances = 0
    t0 = time.perf_counter()

    def run(T):
        nonlocal instances
        instances += 1
        v, _ = V.check_nonmajor_max(T, None)
        violations.extend(v)

    for _, T in _labeled_corpus((2,), 8):
        run(T)
    for n in (9, 10):
        for T in enumerate_ktrees_up_to_iso(2, n):
            run(T)
    for _, T in _labeled_corpus((3,), 8):
        run(T)
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 300
    line = _emit(
        3,
        ok,
        "argmax mu(T;.) contains a clique of degree <= 2 and every major "
        "clique has a strictly better neighbor (2-trees n <= 10, 3-trees "
        "n <= 8; classes at n in {9,10})",
        f"{instances} hosts, {elapsed:.1f}s",
    )
    assert ok, (line, violations[:5])


def test_criterion_04_kelmans_biconditionals():
    bad = []
    checked = 0
    for T in trees_upto(9):
        adj = tree_adjacency(T)
        for u in sorted(adj):
            for v in sorted(adj[u]):
                for rep in check_kelmans(adj, u, v):
                    checked += 1
                    if not rep.ok:
                        bad.append((T.edges(), u, v, rep.claim))
        for v in sorted(adj):
            if len(adj[v]) == 1:
                (u,) = adj[v]
                checked += 1
                if not check_leaf_dominates_neighbor(adj, v, u).ok:
                    bad.append((T.edges(), v, u, "leaf-dominance"))
    import itertools as it

    for T in trees_upto(7):
        adj = tree_adjacency(T)
        for u in sorted(adj):
            for v in sorted(adj[u]):
                others = sorted(adj[v] - {u})
                for r in range(len(others) + 1):
                    for W in it.combinations(others, r):
                        checked += 1
                        if not check_partial_kelmans_monotone(adj, u, v, W).ok:
                            bad.append((T.edges(), u, v, W))
    ok = not bad
    line = _emit(
        4,
        ok,
        "Kelmans shift/monotone/leaf inequalities hold with exact equality "
        "taxonomy on trees n <= 9 (all move subsets for n <= 7)",
        f"{checked} reports",
    )
    assert ok, (line, bad[:5])


def test_criterion_05_global_mean_path_bound():
    bad = []
    for T in trees_upto(10):
        adj = tree_adjacency(T)
        mu = global_mean_order_tree(adj)
        bound = Fraction(T.n + 2, 3)
        is_path = all(len(vs) <= 2 for vs in adj.values())
        if mu < bound or (mu == bound) != is_path:
            bad.append(T.edges())
    p4 = tree_adjacency(core.gen_path_type(1, 4))
    spot = global_mean_order_tree(p4)
    ok = not bad and spot == 2
    line = _emit(
        5,
        ok,
        "mu(T) >= (n+2)/3 on all trees n <= 10, equality exactly on paths; "
        "mu(P4) = 2",
        f"{len(trees_upto(10))} trees, spot={spot}",
    )
    assert ok, (line, bad[:5])


def test_criterion_06_adjacent_chartree_reduction():
    failures = []
    pairs = 0
    t0 = time.perf_counter()
    for inst, T in list(_labeled_corpus((1, 2, 3), 8)) + list(_random_corpus()):
        cache = {}
        for q in core.kp1_cliques(T):
            subs = [tuple(sorted(set(q) - {x})) for x in q]
            for i in range(len(subs)):
                for j in range(len(subs)):
                    if i == j:
                        continue
                    pairs += 1
                    rep = CT.verify_adjacent_reduction(T, subs[i], subs[j], cache)
                    if not rep.isomorphic:
                        failures.append((inst, subs[i], subs[j]))
    elapsed = time.perf_counter() - t0
    ok = not failures
    line = _emit(
        6,
        ok,
        "T'_C2 is the partial Kelmans image of T'_C1 for every ordered "
        "adjacent clique pair of the criterion-1 corpus",
        f"{pairs} pairs, {elapsed:.1f}s",
    )
    assert ok, (line, failures[:5])


def test_criterion_07_named_families():
    bad = []
    for n in (3, 4, 5):
        T = core.gen_bristled_star(3, n)
        arg, _ = CT.argmax_cliques(T, CT.all_clique_means(T))
        degs = sorted({core.clique_degree(T, C).degree for C in arg})
        if degs != [1]:
            bad.append(("bristled-star", n, degs))
    broom = core.gen_double_broom(7)
    adj = tree_adjacency(broom)
    means = {v: local_mean_order_vertex(adj, v) for v in adj}
    best = max(means.values())
    argdegs = sorted({len(adj[v]) for v, m in means.items() if m == best})
    if argdegs != [2]:
        bad.append(("double-broom", 7, argdegs))
    ok = not bad
    line = _emit(
        7,
        ok,
        "bristled-star k=3, n in {3,4,5} maximizes only at end cliques; "
        "double-broom n=7 maximizes at a degree-2 vertex",
        f"orders {[core.gen_bristled_star(3, n).n for n in (3, 4, 5)]} and "
        f"{broom.n}",
    )
    assert ok, (line, bad)


def test_criterion_08_end_clique_taxonomy():
    bad = []
    hosts = 0
    corpus = []
    for n in range(2, 9):
        corpus.extend(
            T for T in ktree_classes(2, n) if V.path_type_predicate(T)
        )
    for k in (1, 2, 3):
        corpus.append(core.build_from_construction(k, [(k + 1, tuple(range(1, k + 1)))]))
    for T in corpus:
        hosts += 1
        bad.extend(rep for rep in V.check_end_clique_dominance(T, None)
                   if not rep.ok)
    ok = not bad and hosts > 10
    line = _emit(
        8,
        ok,
        "end-clique dominance with its equality biconditional on path-type "
        "2-trees n <= 8 and on K_(k+1)",
        f"{hosts} hosts",
    )
    assert ok, (line, bad[:5])


def test_criterion_09_witness_search(tmp_path):
    t0 = time.perf_counter()
    report = V.search_degree2_witness(2, 10)
    elapsed = time.perf_counter() - t0
    again = V.search_degree2_witness(2, 10)
    stable = {k: v for k, v in report.items() if k != "runtime_ms"} == {
        k: v for k, v in again.items() if k != "runtime_ms"
    }
    out = tmp_path / "search-k2-n10.json"
    out.write_text(V.report_to_json(report))
    reloaded = __import__("json").loads(out.read_text())
    ok = (
        elapsed < 1800
        and stable
        and report["violations"] == []
        and reloaded["schema"] == V.SCHEMA_SEARCH
        and all(w.get("oracle_confirms") for w in report["witnesses"])
    )
    line = _emit(
        9,
        ok,
        "exhaustive k=2 search to n=10: deterministic JSON report, every "
        "witness oracle-validated (absence reported, not asserted)",
        f"{report['instances']} hosts, {len(report['witnesses'])} witnesses, "
        f"{elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_10_cross_path_consistency():
    bad = []
    vertices = 0
    for T in trees_upto(10):
        adj = tree_adjacency(T)
        full = oracle.enumerate_sub_ktrees(T)
        for u in sorted(adj):
            vertices += 1
            direct = local_mean_order_vertex(adj, u)
            if direct != full.restricted((u,)).mean():
                bad.append((T.edges(), u, "oracle"))
            for v in sorted(adj[u]):
                if branch_mean(adj, u, v) != direct:
                    bad.append((T.edges(), u, v, "branch"))
    ok = not bad
    line = _emit(
        10,
        ok,
        "direct, branch-form, and oracle local means agree on all trees "
        "n <= 10, all vertices",
        f"{vertices} vertex evaluations",
    )
    assert ok, (line, bad[:5])
