"""Suite drivers over class, random and family corpora, the reference
labeled builds and the label invariance of every verdict, reports, and the
witness search."""

import concurrent.futures
import json
import os

import pytest

from ktrees import verify as V
from ktrees.errors import (
    BadK, KTreeError, NotATree, SizeTooSmall, TooLarge, UnknownSuite,
)
from ktrees.isomorphism import canonical_code

from conftest import enumerate_labeled_ktrees, ktree_classes, labeled_count


def test_labeled_counts_formula():
    assert labeled_count(1, 3) == 2
    assert labeled_count(2, 3) == 1
    assert labeled_count(2, 4) == 3
    assert labeled_count(2, 8) == 10395
    assert labeled_count(3, 8) == 3640
    for k in (1, 2, 3):
        for n in range(k, 8):
            assert len(list(enumerate_labeled_ktrees(k, n))) == labeled_count(k, n)


def test_labeled_enumeration_yields_valid_ktrees():
    for T in enumerate_labeled_ktrees(2, 6):
        table = T.validate()
        assert all(got == want for got, want in table.values())


def test_verdicts_do_not_depend_on_labels():
    """Every labeled build of order at most 7 gets its class
    representative's verdict from every suite without a family: the same
    tallies, numbers of violations and witnesses, and near-miss gaps.  This
    is why exhaustive corpora check one host per class."""

    def verdict(suite, cfg, T):
        (found,) = V._check_hosts(suite, cfg, [("host", T)])
        gaps = [gap for gap, _ in found.near_misses]
        return found.tallies, len(found.violations), len(found.witnesses), gaps

    hosts = 0
    for name, suite in V.SUITES.items():
        if suite.family:
            continue
        cfg = V.SuiteConfig(suite=name)
        for k in (1,) if suite.trees else (2, 3):
            for n in range(k, 8):
                want = {
                    canonical_code(T): verdict(suite, cfg, T)
                    for T in ktree_classes(k, n)
                }
                for T in enumerate_labeled_ktrees(k, n):
                    got = verdict(suite, cfg, T)
                    assert got == want[canonical_code(T)], (name, T.build)
                    hosts += 1
    assert hosts > 11000


def test_tree_adjacency_requires_k1():
    from ktrees.core import build_from_construction

    with pytest.raises(NotATree):
        V.tree_adjacency(build_from_construction(2, [(3, (1, 2))]))


def _strip_runtime(report):
    return {k: v for k, v in report.items() if k != "runtime_ms"}


@pytest.mark.parametrize(
    "suite,ks,max_n",
    [
        ("jamison-ratio", (1,), 6),
        ("global-mean-bound", (1,), 6),
        ("kelmans", (1,), 5),
        ("partial-kelmans", (1,), 5),
        ("leaf-dominance", (1,), 6),
        ("local-mean-reduction", (2,), 6),
        ("local-mean-reduction", (3,), 6),
        ("chartree-adjacency", (2,), 6),
        ("nonmajor-max", (2,), 7),
        ("end-clique-dominance", (2,), 6),
    ],
)
def test_suites_clean_on_small_corpora(suite, ks, max_n):
    cfg = V.SuiteConfig(suite=suite, ks=ks, max_n=max_n)
    report = V.run_suite(cfg)
    assert report["schema"] == V.SCHEMA_VERIFY
    assert report["suite"] == suite
    assert report["violations"] == []
    assert report["instances"] > 0
    assert set(report) == {
        "schema",
        "suite",
        "config",
        "instances",
        "violations",
        "witnesses",
        "tallies",
        "runtime_ms",
    }


def test_suite_reports_deterministic():
    cfg = V.SuiteConfig(suite="nonmajor-max", ks=(2,), max_n=6)
    a = V.run_suite(cfg)
    cfg2 = V.SuiteConfig(suite="nonmajor-max", ks=(2,), max_n=6)
    b = V.run_suite(cfg2)
    assert _strip_runtime(a) == _strip_runtime(b)


def test_random_mode_deterministic():
    mk = lambda: V.SuiteConfig(
        suite="local-mean-reduction",
        ks=(2, 3),
        max_n=9,
        mode="random",
        trials=12,
        seed=99,
    )
    a, b = V.run_suite(mk()), V.run_suite(mk())
    assert _strip_runtime(a) == _strip_runtime(b)
    assert a["violations"] == []


def test_parallel_matches_serial():
    for base in (
        dict(suite="kelmans", ks=(1,), max_n=6),
        dict(suite="double-broom", max_n=9),
        dict(suite="bristled-star", ks=(2, 3), max_n=6),
    ):
        serial = V.run_suite(V.SuiteConfig(**base, jobs=1))
        parallel = V.run_suite(V.SuiteConfig(**base, jobs=2))
        for key in ("instances", "violations", "witnesses", "tallies"):
            assert serial[key] == parallel[key]


def test_jobs_are_clamped_to_the_cpu_count(monkeypatch):
    seen = []

    class InProcessPool:  # records the worker count and starts no process
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    base = dict(suite="kelmans", ks=(1,), max_n=6)
    pooled = V.run_suite(V.SuiteConfig(**base, jobs=100000))
    assert seen == [os.cpu_count() or 1]
    assert pooled["config"]["jobs"] == 100000
    serial = V.run_suite(V.SuiteConfig(**base, jobs=1))
    for key in ("instances", "violations", "tallies"):
        assert pooled[key] == serial[key]


def test_unknown_suite_and_bad_configs():
    with pytest.raises(UnknownSuite):
        V.run_suite(V.SuiteConfig(suite="no-such-suite"))
    with pytest.raises(TooLarge):
        V.SuiteConfig(suite="kelmans", mode="random", trials=0).validate()
    with pytest.raises(TooLarge):
        V.SuiteConfig(suite="nonmajor-max", ks=(2,), max_n=14).validate()
    # no suite takes k above K_GUARD, whatever its corpus
    k = V.K_GUARD + 1
    with pytest.raises(BadK):
        V.SuiteConfig(suite="nonmajor-max", ks=(k,), min_n=k, max_n=k).validate()
    # the search validates the same config in both modes
    with pytest.raises(TooLarge):
        V.search_degree2_witness(2, 9, mode="random")
    with pytest.raises(UnknownSuite):
        V.search_degree2_witness(2, 9, mode="sideways")
    # the bounds themselves are accepted
    V.SuiteConfig(suite="nonmajor-max", ks=(2,), max_n=13).validate()
    V.SuiteConfig(
        suite="nonmajor-max", mode="random", trials=1, max_n=V.RANDOM_GUARD
    ).validate()
    V.SuiteConfig(suite="bristled-star", ks=(2, V.K_GUARD), max_n=3).validate()


def test_validate_returns_a_copy_and_leaves_its_receiver():
    """A tree suite runs at k = 1: validation returns a copy with ks (1,),
    the config it was called on keeps its ks, and the report echoes the
    copy."""
    cfg = V.SuiteConfig(suite="kelmans", ks=(2, 3), max_n=4)
    assert cfg.validate() == cfg._replace(ks=(1,))
    assert cfg.ks == (2, 3)
    assert V.run_suite(cfg)["config"]["ks"] == [1]
    assert cfg.ks == (2, 3)
    row = V.SuiteConfig(suite="nonmajor-max", ks=(2, 3), max_n=5)
    assert row.validate() == row
    broom = V.SuiteConfig(suite="double-broom", ks=(5,), max_n=3)
    assert broom.validate().ks == (1,)


def test_class_corpora_and_class_levels_read_one_order_table():
    from ktrees.isomorphism import CLASS_MAX_ORDER, iso_levels

    # pinned: trees to n = 14, 2-trees to n = 13, 3-trees at least to n = 9
    assert CLASS_MAX_ORDER[1] == 14 and CLASS_MAX_ORDER[2] == 13
    assert CLASS_MAX_ORDER[3] >= 9
    for k, top in CLASS_MAX_ORDER.items():
        V.SuiteConfig(suite="nonmajor-max", ks=(k,), max_n=top).validate()
        with pytest.raises(TooLarge):
            V.SuiteConfig(suite="nonmajor-max", ks=(k,), max_n=top + 1).validate()
        with pytest.raises(TooLarge):
            iso_levels(k, top + 1)
    unlisted = max(CLASS_MAX_ORDER) + 1
    with pytest.raises(BadK):
        V.SuiteConfig(suite="nonmajor-max", ks=(unlisted,), max_n=unlisted).validate()
    with pytest.raises(BadK):
        iso_levels(unlisted, unlisted)
    # random corpora do not read the table
    V.SuiteConfig(
        suite="nonmajor-max", ks=(unlisted,), max_n=40, mode="random", trials=1
    ).validate()


def test_negative_cap_and_random_family_are_refused():
    with pytest.raises(KTreeError, match="cap must be at least 0"):
        V.SuiteConfig(suite="nonmajor-max", cap=-1).validate()
    with pytest.raises(KTreeError, match="cap must be at least 0"):
        V.search_degree2_witness(2, 6, cap=-5)
    V.SuiteConfig(suite="nonmajor-max", cap=0).validate()
    for suite in ("double-broom", "bristled-star"):
        with pytest.raises(KTreeError, match="no random mode"):
            V.SuiteConfig(
                suite=suite, ks=(2,), max_n=4, mode="random", trials=7, seed=2
            ).validate()


def test_family_suites():
    # n= is the family parameter, not the host order
    broom = V.run_suite(V.SuiteConfig(suite="double-broom", min_n=1, max_n=7))
    assert broom["violations"] == []
    assert broom["instances"] == 7
    assert broom["tallies"] == {
        "n=1:argmax_degrees=[1]": 1,
        "n=2:argmax_degrees=[1]": 1,
        "n=3:argmax_degrees=[1]": 1,
        "n=4:argmax_degrees=[1]": 1,
        "n=5:argmax_degrees=[1]": 1,
        "n=6:argmax_degrees=[1]": 1,
        "n=7:argmax_degrees=[2]": 1,
    }
    star = V.run_suite(
        V.SuiteConfig(suite="bristled-star", ks=(2, 3), min_n=3, max_n=4)
    )
    assert star["violations"] == []
    assert star["instances"] == 4
    assert star["tallies"] == {
        "k=2,n=3:argmax_degrees=[1]": 1,
        "k=2,n=4:argmax_degrees=[1]": 1,
        "k=3,n=3:argmax_degrees=[1]": 1,
        "k=3,n=4:argmax_degrees=[1]": 1,
    }


@pytest.mark.parametrize(
    "suite,instances",
    [
        ("global-mean-bound", 987),  # runs the trees of order 1..12
        ("double-broom", 12),
        ("bristled-star", 10),
    ],
)
def test_tree_and_family_suites_pass_the_k2_order_cap(suite, instances):
    # the k = 2 cap on exhaustive corpora (n <= 13) binds only k-tree suites;
    # these run at the default ks, (2,)
    V.SuiteConfig(suite=suite, max_n=14).validate()
    report = V.run_suite(V.SuiteConfig(suite=suite, max_n=12))
    assert report["violations"] == []
    assert report["instances"] == instances


def test_family_order_is_capped_before_any_host_is_built():
    with pytest.raises(TooLarge):
        V.SuiteConfig(
            suite="double-broom", min_n=V.FAMILY_GUARD + 1, max_n=V.FAMILY_GUARD + 1
        ).validate()
    V.SuiteConfig(suite="bristled-star", max_n=V.FAMILY_GUARD).validate()


def test_oracle_suite_refuses_an_order_above_the_cap_before_any_host():
    """local-mean-reduction enumerates every host, so validation refuses an
    order above the cap in both modes; degree2-witness re-checks only the
    witnesses within the cap, so it runs past it."""
    for mode in (dict(), dict(mode="random", trials=3, seed=1)):
        over = V.SuiteConfig(
            suite="local-mean-reduction", ks=(2,), max_n=9, cap=8, **mode
        )
        with pytest.raises(TooLarge, match="exceeds enumeration cap 8"):
            over.validate()
        V.SuiteConfig(
            suite="local-mean-reduction", ks=(2,), max_n=8, cap=8, **mode
        ).validate()
        V.SuiteConfig(suite="degree2-witness", ks=(2,), max_n=9, cap=8, **mode).validate()
    for max_n, cap in ((40, V.DEFAULT_CAP), (256, 300)):  # the cap stops at MAX_ORDER
        with pytest.raises(TooLarge):
            V.SuiteConfig(
                suite="local-mean-reduction", max_n=max_n, cap=cap, mode="random",
                trials=1, seed=1,
            ).validate()


# the first violation of each inequality suite when one equality predicate
# is negated, and the tally keys it keeps
FORCED = {
    "jamison-ratio": (
        (1,), 4, 14, {"strict", "tight"},
        {
            "claim": "phi'/(1+phi) <= phi/2 with path-leaf tightness",
            "detail": "u=1", "lhs": "1/2", "rhs": "1/2", "equality": True,
            "predicted_equality": False, "instance": "k1-n1-c0",
        },
    ),
    "global-mean-bound": (
        (1,), 4, 5, {"equality", "strict"},
        {
            "claim": "mu(T) >= (n+2)/3, equality exactly on paths",
            "detail": "n=1", "lhs": "1/1", "rhs": "1/1", "equality": True,
            "predicted_equality": False, "instance": "k1-n1-c0",
        },
    ),
    "kelmans": (
        (1,), 4, 32, {"equality", "strict"},
        {
            "claim": "mu(T; v) >= mu(G(v->u); u)",
            "detail": "n=2 edges=[(1, 2)] u=1 v=2", "lhs": "3/2", "rhs": "3/2",
            "equality": True, "predicted_equality": False, "instance": "k1-n2-c0",
        },
    ),
    "partial-kelmans": (
        (1,), 4, 10, {"equality", "strict"},
        {
            "claim": "mu(T'; v) >= mu(T; v)",
            "detail": "n=3 edges=[(1, 2), (1, 3)] u=2 v=1 W=[3]",
            "lhs": "2/1", "rhs": "2/1", "equality": True,
            "predicted_equality": False, "instance": "k1-n3-c0",
        },
    ),
    "leaf-dominance": (
        (1,), 4, 9, {"equality", "strict"},
        {
            "claim": "mu(T; v) >= mu(T; u)",
            "detail": "n=2 edges=[(1, 2)] v=1 u=2", "lhs": "3/2", "rhs": "3/2",
            "equality": True, "predicted_equality": False, "instance": "k1-n2-c0",
        },
    ),
    "end-clique-dominance": (
        (2,), 5, 14, {"equality", "strict"},
        {
            "claim": "mu(T;C1) >= mu(T;C2) for end C1, equality iff C2 end or "
            "path-type with k-leaf in C1",
            "detail": "C1=(1, 3) C2=(1, 2)", "lhs": "3/1", "rhs": "3/1",
            "equality": True, "predicted_equality": False, "instance": "k2-n4-c0",
        },
    ),
}


@pytest.mark.parametrize("suite", sorted(FORCED))
def test_forced_predicates_give_pinned_violation_records(suite, monkeypatch):
    from ktrees import kelmans_ops

    for mod, name in (
        (V, "path_with_leaf_predicate"),
        (V, "path_type_predicate"),
        (kelmans_ops, "_component_path"),
        (kelmans_ops, "_is_path"),
    ):
        real = getattr(mod, name)
        monkeypatch.setattr(mod, name, lambda *a, real=real: not real(*a))
    ks, max_n, count, keys, first = FORCED[suite]
    report = V.run_suite(V.SuiteConfig(suite=suite, ks=ks, max_n=max_n))
    assert len(report["violations"]) == count
    assert report["violations"][0] == first
    assert set(report["tallies"]) == keys


def test_witness_above_the_cap_is_not_rechecked(monkeypatch):
    from ktrees.core import DEGREE2

    real = V._argmax_classes
    faked = []

    def degree2_argmax_once(T):
        # the first host above the cap with a degree-2 clique reads as a
        # degree-2-only maximizer
        means, arg, best, infos, key = real(T)
        deg2 = [C for C in means if infos[C].kind == DEGREE2]
        if T.n > 6 and deg2 and not faked:
            faked.append(T.n)
            arg, best = deg2[:1], means[deg2[0]]
        return means, arg, best, infos, key

    monkeypatch.setattr(V, "_argmax_classes", degree2_argmax_once)
    report = V.search_degree2_witness(2, 7, cap=6)
    assert faked == [7]
    assert [w["oracle_confirms"] for w in report["witnesses"]] == [None]
    assert report["violations"] == []
    # below the cap the oracle runs and refutes the same fake witness
    faked.clear()
    report = V.search_degree2_witness(2, 7, cap=7)
    assert [w["oracle_confirms"] for w in report["witnesses"]] == [False]
    assert len(report["violations"]) == 1


def test_empty_order_range_is_rejected():
    empty = [
        dict(suite="nonmajor-max", ks=(2, 3), max_n=1),
        dict(suite="nonmajor-max", ks=(2,), min_n=8, max_n=6),
        dict(suite="jamison-ratio", ks=(1,), max_n=0),
        dict(suite="bristled-star", ks=(2,), max_n=2),
        dict(suite="double-broom", max_n=0),
    ]
    for kw in empty:
        with pytest.raises(SizeTooSmall):
            V.SuiteConfig(**kw).validate()
    # the least order of each kind still runs
    assert V.run_suite(V.SuiteConfig(suite="nonmajor-max", ks=(2, 3), max_n=2))[
        "instances"
    ] == 1
    assert V.run_suite(V.SuiteConfig(suite="double-broom", max_n=1))["instances"] == 1
    assert V.run_suite(V.SuiteConfig(suite="bristled-star", max_n=3))["instances"] == 1
    with pytest.raises(SizeTooSmall):
        V.search_degree2_witness(2, 2)


def test_search_rejects_k1():
    with pytest.raises(BadK):
        V.search_degree2_witness(1, 6)


def test_search_errors_name_its_own_suite():
    with pytest.raises(BadK, match="degree2-witness"):
        V.search_degree2_witness(300, 301)


def _witness_row(k, max_n, **kw):
    return V.SuiteConfig(
        suite="degree2-witness", ks=(k,), min_n=k + 1, max_n=max_n, **kw
    )


def test_witness_row_parallel_matches_serial():
    # 725 classes: two chunks of hosts, so near misses merge across chunks
    serial = V._run_corpus(_witness_row(2, 10).validate())
    parallel = V._run_corpus(_witness_row(2, 10, jobs=2).validate())
    assert serial.instances == parallel.instances == 725
    assert len(serial.near_misses) == V.NEAR_MISSES
    for field in ("violations", "tallies", "witnesses", "near_misses"):
        assert getattr(serial, field) == getattr(parallel, field)


def test_near_miss_merge_is_independent_of_chunking():
    cfg = _witness_row(2, 8).validate()
    hosts = list(V._check_hosts(V.SUITES[cfg.suite], cfg, V.iter_corpus(cfg)))
    whole = V._merge(hosts)
    gaps = [(-gap, r["instance"]) for gap, r in whole.near_misses]
    assert gaps == sorted(gaps) and len(gaps) == V.NEAR_MISSES
    for size in range(1, len(hosts) + 1):
        chunks = (V._merge(hosts[i : i + size]) for i in range(0, len(hosts), size))
        assert V._merge(chunks) == whole


@pytest.mark.parametrize("k", [2, 3])
def test_witness_row_and_search_agree(k):
    verified = V.run_suite(_witness_row(k, 8))
    searched = V.search_degree2_witness(k, 8)
    assert verified["schema"] == V.SCHEMA_VERIFY
    assert verified["instances"] == searched["instances"]
    assert verified["tallies"] == searched["tallies"]["classes"]
    assert verified["witnesses"] == searched["witnesses"]


def test_search_small_exhaustive():
    report = V.search_degree2_witness(2, 6)
    assert report["schema"] == V.SCHEMA_SEARCH
    assert report["witnesses"] == []
    assert report["violations"] == []
    assert report["instances"] == 9  # 2-tree classes with 3 <= n <= 6
    # every argmax so far includes an end clique
    assert all(key.startswith("argmax:") for key in report["tallies"]["classes"])
    again = V.search_degree2_witness(2, 6)
    assert _strip_runtime(again) == _strip_runtime(report)


def test_random_corpus_ids_are_pinned():
    cfg = V.SuiteConfig(
        suite="nonmajor-max", ks=(2, 3), min_n=4, max_n=9, mode="random",
        trials=5, seed=3,
    ).validate()
    ids = [inst for inst, _ in V.iter_corpus(cfg)]
    assert ids == ["k2-n4-r3", "k3-n8-r4", "k2-n8-r5", "k3-n8-r6", "k2-n8-r7"]


def test_search_random_mode():
    report = V.search_degree2_witness(2, 9, mode="random", budget=15, seed=4)
    assert report["instances"] == 15
    assert report["violations"] == []
    json.loads(V.report_to_json(report))


def test_search_near_misses_recorded():
    report = V.search_degree2_witness(2, 6)
    near = report["tallies"]["near_misses"]
    assert near, "expected near-miss records"
    gaps = [eval_fraction(x["gap"]) for x in near]
    assert gaps == sorted(gaps, reverse=True)
    assert all(g <= 0 for g in gaps)


def eval_fraction(s):
    from fractions import Fraction

    p, q = s.split("/")
    return Fraction(int(p), int(q))
