"""Tests of the benchmark itself: its independent computations agree with the
program's oracle, and every check rejects a deliberately wrong output.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import hosts  # noqa: E402
import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ktrees import chartree, core, oracle, verify  # noqa: E402
from ktrees.polynomials import IntPolynomial  # noqa: E402

SMALL = [
    ("uniform", 1, 9),
    ("biased", 1, 10),
    ("uniform", 2, 10),
    ("path", 2, 8),
    ("biased", 3, 9),
    ("bristled", 3, 9),
    ("uniform", 3, 10),
]


def small_hosts(seed=7):
    rng = random.Random(seed)
    return [hosts.make_host(f"{f}-{k}-{n}", f, k, n, rng) for f, k, n in SMALL]


def parsed(h):
    return core.parse_edge_list(h.text, h.k)


@pytest.mark.parametrize("host", small_hosts(), ids=lambda h: h.name)
def test_recursion_and_brute_force_agree_with_oracle(host):
    T = parsed(host)
    inc = ref.Incidence(host.k, host.base, host.adds)
    full = oracle.enumerate_sub_ktrees(T)
    members = ref.brute_force_sub_ktrees(
        host.k, host.n, ref.host_edges(host.k, host.base, host.adds)
    )
    assert {frozenset(s) for s in full.vertex_sets()} == members
    assert inc.cliques() == core.k_cliques(T)
    for C in inc.cliques():
        restricted = full.restricted(C)
        cnt, tot = inc.poly_pair(C)
        assert cnt == len(restricted)
        assert Fraction(tot, cnt) == restricted.mean()
        assert ref.restricted_counts(members, C) == list(restricted.poly().coeffs)
        assert inc.degree(C) == core.clique_degree(T, C).degree
        assert inc.adjacent(C) == core.adjacent_cliques(T, C)


def test_recursion_handles_deep_hosts():
    host = hosts.make_host("deep", "path", 1, 5000, random.Random(1))
    inc = ref.Incidence(host.k, host.base, host.adds)
    assert inc.mean(host.base) == ref.closed_form_mean(1, 5000)


@pytest.mark.parametrize("family,k,n", [("path", 2, 12), ("bristled", 3, 13), ("path", 3, 11)])
def test_closed_forms_hold_on_the_recursion(family, k, n):
    host = hosts.make_host("h", family, k, n, random.Random(3))
    inc = ref.Incidence(host.k, host.base, host.adds)
    for C in workloads.closed_form_cliques(host):
        assert inc.mean(C) == k + Fraction(n - k, 2)


def test_generator_is_seeded_and_hides_construction_order():
    a, b = hosts.cross_hosts(5), hosts.cross_hosts(5)
    assert [h.text for h in a] == [h.text for h in b]
    assert [h.text for h in a] != [h.text for h in hosts.cross_hosts(6)]
    T = parsed(a[0])
    assert sorted(T.edges()) == sorted(ref.host_edges(a[0].k, a[0].base, a[0].adds))


# -- each check rejects a wrong output -------------------------------------------


def mid_output(T):
    means = chartree.all_clique_means(T)
    arg, best = chartree.argmax_cliques(T, means)
    info = {C: core.clique_degree(T, C) for C in means}
    adj = {C: core.adjacent_cliques(T, C) for C in means if info[C].degree >= 3}
    return means, arg, best, info, adj


@pytest.fixture(scope="module")
def mid():
    host = hosts.make_host("mid", "bristled", 3, 15, random.Random(2))
    inc = ref.Incidence(host.k, host.base, host.adds)
    return host, inc, mid_output(parsed(host))


def test_check_mid_accepts_the_program(mid):
    host, inc, out = mid
    assert workloads.check_mid(host, inc, out) == []


def test_check_mid_rejects_a_wrong_mean(mid):
    host, inc, (means, arg, best, info, adj) = mid
    C = next(C for C in means if C not in arg)
    wrong = dict(means)
    wrong[C] = means[C] + Fraction(1, 10**9)
    problems = workloads.check_mid(host, inc, (wrong, arg, best, info, adj))
    assert any("differs from the recursion" in p for p in problems)


def test_check_mid_rejects_a_closed_form_miss(mid):
    host, inc, (means, arg, best, info, adj) = mid
    wrong = dict(means)
    wrong[host.base] = means[host.base] - 1
    problems = workloads.check_mid(host, inc, (wrong, arg, best, info, adj))
    assert any("k + (n - k)/2" in p for p in problems)


def test_check_mid_rejects_a_wrong_degree_or_adjacency(mid):
    host, inc, (means, arg, best, info, adj) = mid
    bad_info = dict(info)
    bad_info[host.base] = core.CliqueInfo(info[host.base].degree + 1, "major")
    assert workloads.check_mid(host, inc, (means, arg, best, bad_info, adj))
    major = next(iter(adj))
    bad_adj = dict(adj)
    bad_adj[major] = adj[major][:-1]
    assert workloads.check_mid(host, inc, (means, arg, best, info, bad_adj))


def test_check_large_rejects_a_wrong_mean_and_count():
    host = hosts.make_host("large", "path", 2, 40, random.Random(4))
    T = parsed(host)
    inc = ref.Incidence(host.k, host.base, host.adds)
    out = {
        C: (
            chartree.local_mean_order_clique(T, C),
            core.clique_degree(T, C),
            core.adjacent_cliques(T, C),
        )
        for C in workloads.queried_cliques(host)
    }
    assert workloads.check_large(host, inc, out) == []
    C = host.base
    mean, info, adj = out[C]
    assert workloads.check_large(host, inc, {C: (mean + 1, info, adj)})
    assert workloads.check_large(host, inc, {C: (mean, info, adj + [adj[0]])})


@pytest.fixture(scope="module")
def cross():
    host = hosts.make_host("x", "biased", 2, 9, random.Random(9))
    inc = ref.Incidence(host.k, host.base, host.adds)
    w = workloads.CrossCheck.__new__(workloads.CrossCheck)
    w.m = sys.modules["ktrees"]
    T = parsed(host)
    out = w._cross(T, inc.cliques(), inc.ordered_adjacent_pairs())
    members = ref.brute_force_sub_ktrees(
        host.k, host.n, ref.host_edges(host.k, host.base, host.adds)
    )
    sets = {frozenset(s) for s in oracle.enumerate_sub_ktrees(T).vertex_sets()}
    return host, inc, out, members, sets


def test_check_cross_accepts_the_program(cross):
    host, inc, out, members, sets = cross
    assert workloads.check_cross(host, inc, out, members, sets) == []


def test_check_cross_rejects_a_wrong_polynomial(cross):
    host, inc, out, members, sets = cross
    count, opolys, fpolys, omeans, fmeans, adjacency = out
    bad = list(fpolys)
    bad[0] = bad[0] + IntPolynomial((0, 0, 0, 1))
    problems = workloads.check_cross(
        host, inc, (count, opolys, bad, omeans, fmeans, adjacency), members, sets
    )
    assert any("oracle" in p for p in problems)
    assert any("recursion" in p for p in problems)
    assert any("brute force" in p for p in problems)


def test_check_cross_rejects_a_wrong_member_count_set_mean_or_pair(cross):
    host, inc, out, members, sets = cross
    count, opolys, fpolys, omeans, fmeans, adjacency = out
    assert workloads.check_cross(
        host, inc, (count - 1, opolys, fpolys, omeans, fmeans, adjacency), members, sets
    )
    fewer = set(sets)
    fewer.pop()
    assert workloads.check_cross(host, inc, out, members, fewer)
    C = inc.cliques()[0]
    bad_means = dict(omeans)
    bad_means[C] += 1
    assert workloads.check_cross(
        host, inc, (count, opolys, fpolys, bad_means, fmeans, adjacency), members, sets
    )
    bad_pairs = [False] + adjacency[1:]
    assert workloads.check_cross(
        host, inc, (count, opolys, fpolys, omeans, fmeans, bad_pairs), members, sets
    )


def report(instances, violations=()):
    return {"instances": instances, "violations": list(violations), "witnesses": []}


def test_check_exhaustive_rejects_a_wrong_count_or_a_violation():
    w = workloads.Exhaustive.__new__(workloads.Exhaustive)
    good = {
        name: (0, report(workloads.expected_instances(k, orders)))
        for name, _, k, orders in workloads.COMMANDS
    }
    assert all(p == [] for p in w.check(good).values())
    assert workloads.expected_instances(2, range(2, 11)) == 726
    assert workloads.expected_instances(3, range(3, 10)) == 83

    short = dict(good, **{"verify-k3": (0, report(82))})
    problems = w.check(short)["verify-k3"]
    assert problems and w.failures("verify-k3", problems) == 83

    bad = dict(good, **{"verify-k2": (1, report(726, [{"instance": "k2-n9-c3", "claim": "c"}]))})
    problems = w.check(bad)["verify-k2"]
    assert any("k2-n9-c3" in p for p in problems)
    assert w.failures("verify-k2", problems) == 726  # the exit code concerns all
    assert w.failures("verify-k2", [p for p in problems if "k2-n9" in p]) == 1


def test_check_witness_needs_oracle_and_brute_force_agreement():
    # a 2-tree whose maximum is at an end clique: not a witness
    entry = {
        "instance": "k2-n5",
        "build": "base 1,2; 3<-(1,2); 4<-(1,3); 5<-(3,4)",
        "argmax": [[1, 2]],
        "mu": "4/1",
        "oracle_confirms": True,
    }
    assert workloads.check_witness(entry)


# -- tracing ------------------------------------------------------------------------


def test_instrument_wraps_names_imported_by_callers_and_restores_them():
    originals = (verify.all_clique_means, chartree.all_clique_means)
    assert originals[0] is originals[1]
    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer)
    try:
        assert verify.all_clique_means is chartree.all_clique_means
        assert verify.all_clique_means is not originals[0]
        T = core.random_ktree(2, 7, 1)
        with tracer.span("bench.round"):
            verify.check_nonmajor_max(T, None)
    finally:
        restore()
    assert verify.all_clique_means is originals[0]
    (rows,) = tracer.tally("bench.round")
    cliques = len(core.k_cliques(T))
    assert rows["chartree.all_clique_means"][0] == 1
    assert rows["chartree.characteristic_tree"][0] == cliques
    assert rows["core.clique_degree"][0] == cliques
    total = tracer.end[0] - tracer.start[0]
    assert sum(r[1] for r in rows.values()) == pytest.approx(total)
