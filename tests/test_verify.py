"""Suite drivers, labeled enumeration, reports, and the witness search."""

import json

import pytest

from ktrees import verify as V
from ktrees.errors import BadK, NotATree, SizeTooSmall, TooLarge, UnknownSuite


def test_labeled_counts_formula():
    assert V.labeled_count(1, 3) == 2
    assert V.labeled_count(2, 3) == 1
    assert V.labeled_count(2, 4) == 3
    assert V.labeled_count(2, 8) == 10395
    assert V.labeled_count(3, 8) == 3640
    for k in (1, 2, 3):
        for n in range(k, 8):
            assert len(list(V.enumerate_labeled_ktrees(k, n))) == V.labeled_count(
                k, n
            )


def test_labeled_enumeration_guard():
    with pytest.raises(TooLarge):
        list(V.enumerate_labeled_ktrees(2, 12))
    with pytest.raises(SizeTooSmall):
        list(V.enumerate_labeled_ktrees(3, 2))


def test_labeled_enumeration_yields_valid_ktrees():
    for T in V.enumerate_labeled_ktrees(2, 6):
        table = T.validate()
        assert all(got == want for got, want in table.values())


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
    base = dict(suite="kelmans", ks=(1,), max_n=6)
    serial = V.run_suite(V.SuiteConfig(**base, jobs=1))
    parallel = V.run_suite(V.SuiteConfig(**base, jobs=2))
    for key in ("instances", "violations", "witnesses", "tallies"):
        assert serial[key] == parallel[key]


def test_unknown_suite_and_bad_configs():
    with pytest.raises(UnknownSuite):
        V.run_suite(V.SuiteConfig(suite="no-such-suite"))
    with pytest.raises(TooLarge):
        V.SuiteConfig(suite="kelmans", mode="random", trials=0).validate()
    with pytest.raises(TooLarge):
        V.SuiteConfig(suite="nonmajor-max", ks=(2,), max_n=12).validate()
    with pytest.raises(TooLarge):
        V.SuiteConfig(
            suite="nonmajor-max", ks=(2,), max_n=10, dedupe=False
        ).validate()


def test_family_suites():
    broom = V.run_suite(V.SuiteConfig(suite="double-broom", min_n=1, max_n=7))
    assert broom["violations"] == []
    assert broom["instances"] == 7
    star = V.run_suite(
        V.SuiteConfig(suite="bristled-star", ks=(3,), min_n=3, max_n=4)
    )
    assert star["violations"] == []
    assert star["instances"] == 2


def test_search_rejects_k1():
    with pytest.raises(BadK):
        V.search_degree2_witness(1, 6)


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
