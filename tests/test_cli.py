"""End-to-end coverage of the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ktrees import core, verify
from ktrees.cli import main


@pytest.fixture
def tri_kt(tmp_path):
    p = tmp_path / "tri.kt"
    p.write_text("ktree 1\nk 2\nn 3\nbase 1 2\nadd 3 1 2\n")
    return str(p)


@pytest.fixture
def p4_kt(tmp_path):
    p = tmp_path / "p4.kt"
    p.write_text("ktree 1\nk 1\nn 4\nbase 1\nadd 2 1\nadd 3 2\nadd 4 3\n")
    return str(p)


@pytest.fixture
def four_kt(tmp_path):
    p = tmp_path / "four.kt"
    p.write_text("ktree 1\nk 2\nn 4\nbase 1 2\nadd 3 1 2\nadd 4 1 3\n")
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_import_leaves_the_process_pool_unloaded():
    """Only --jobs > 1 starts a pool; importing multiprocessing costs every
    other run about half its start-up.  The records are named tuples, so
    neither `dataclasses` nor the `inspect` it imports loads either, and
    `traceback` loads only when a crash prints one."""
    src = Path(verify.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH")))
    ))
    code = (
        "import sys, ktrees.cli\n"
        "print(sorted({'multiprocessing', 'concurrent.futures.process', 'dataclasses',"
        " 'inspect', 'traceback'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["[]"]


def test_validate(tri_kt, capsys):
    code, out, _ = run(capsys, "validate", tri_kt)
    assert code == 0
    assert "valid 2-tree on 3 vertices" in out
    assert "FAIL" not in out


def test_validate_bad_file(tmp_path, capsys):
    p = tmp_path / "bad.kt"
    p.write_text("garbage\n")
    code, _, err = run(capsys, "validate", str(p))
    assert code == 2
    assert "error:" in err


def test_validate_non_utf8_file_exits_2(tmp_path, capsys):
    p = tmp_path / "bin.kt"
    p.write_bytes(b"\xff\xfe\x00bad")
    code, _, err = run(capsys, "validate", str(p))
    assert code == 2
    assert err.startswith("error:") and "not UTF-8" in err


def test_mean_order_clique(tri_kt, capsys):
    code, out, _ = run(capsys, "mean-order", tri_kt, "--clique", "1,2")
    assert code == 0
    assert "5/2 (2.500000)" in out


def test_clique_with_a_repeated_vertex_exits_2(tri_kt, four_kt, capsys):
    code, _, err = run(capsys, "mean-order", tri_kt, "--clique", "1,1")
    assert code == 2 and "not a 2-clique" in err
    code, _, err = run(capsys, "char-tree", four_kt, "--clique", "4,4")
    assert code == 2 and "not a 2-clique" in err


def test_mean_order_global_path(p4_kt, capsys):
    code, out, _ = run(capsys, "mean-order", p4_kt, "--global")
    assert code == 0
    assert "2/1 (2.000000)" in out


def test_mean_order_all_cliques_sorted(four_kt, capsys):
    code, out, _ = run(capsys, "mean-order", four_kt, "--all-cliques")
    assert code == 0
    labels = [ln.split(" = ")[0] for ln in out.strip().splitlines()]
    assert labels == sorted(labels)
    assert len(labels) == 5


def test_mean_order_requires_exactly_one_target(tri_kt, capsys):
    code, _, err = run(capsys, "mean-order", tri_kt)
    assert code == 2
    assert err.startswith("error: choose exactly one")
    code, _, _ = run(
        capsys, "mean-order", tri_kt, "--clique", "1,2", "--global"
    )
    assert code == 2
    code, _, err = run(capsys, "mean-order", tri_kt, "--all-cliques", "--global")
    assert code == 2
    assert err.startswith("error: choose exactly one")
    # an empty --clique names one target, and is refused as a spec
    code, _, err = run(capsys, "mean-order", tri_kt, "--clique", "")
    assert code == 2
    assert err.startswith("error: bad clique spec ''")


def test_char_tree_and_dot(four_kt, tmp_path, capsys):
    dot = tmp_path / "ct.dot"
    code, out, _ = run(
        capsys, "char-tree", four_kt, "--clique", "1,3", "--dot", str(dot)
    )
    assert code == 0
    assert "C{1,3} -- 2" in out and "C{1,3} -- 4" in out
    text = dot.read_text()
    assert text.startswith("graph chartree {")
    assert text.count("{") == text.count("}")
    # node lines: n - k + 1 of them
    node_lines = [
        ln for ln in text.splitlines() if ln.strip().startswith('"') and "--" not in ln
    ]
    assert len(node_lines) == 4 - 2 + 1


CHAR_TREE_PINS = [
    # (k, edge list, clique, stdout, DOT bytes); ids do not follow the build
    (
        1,
        "1-2 1-3 1-4 3-7 5-6 6-7",
        "4",
        "characteristic tree at {4}: 7 nodes\n  C{4} -- 1\n  1 -- 2\n  1 -- 3\n"
        "  3 -- 7\n  5 -- 6\n  6 -- 7\n",
        'graph chartree {\n  "C{4}" [shape=doublecircle];\n  "1";\n  "2";\n'
        '  "3";\n  "5";\n  "6";\n  "7";\n  "C{4}" -- "1";\n  "1" -- "2";\n'
        '  "1" -- "3";\n  "3" -- "7";\n  "5" -- "6";\n  "6" -- "7";\n}\n',
    ),
    (
        2,
        "1-4 1-7 2-6 2-7 3-4 3-6 4-5 4-6 4-7 5-6 6-7",
        "6,3",
        "characteristic tree at {3,6}: 6 nodes\n  C{3,6} -- 4\n  1 -- 7\n"
        "  2 -- 7\n  4 -- 5\n  4 -- 7\n",
        'graph chartree {\n  "C{3,6}" [shape=doublecircle];\n  "1";\n  "2";\n'
        '  "4";\n  "5";\n  "7";\n  "C{3,6}" -- "4";\n  "1" -- "7";\n'
        '  "2" -- "7";\n  "4" -- "5";\n  "4" -- "7";\n}\n',
    ),
    (
        3,
        "1-2 1-5 1-6 2-4 2-5 2-6 3-4 3-5 3-6 3-8 4-5 4-6 4-7 5-6 5-7 5-8 6-7 6-8",
        "3,5,6",
        "characteristic tree at {3,5,6}: 6 nodes\n  C{3,5,6} -- 4\n"
        "  C{3,5,6} -- 8\n  1 -- 2\n  2 -- 4\n  4 -- 7\n",
        'graph chartree {\n  "C{3,5,6}" [shape=doublecircle];\n  "1";\n'
        '  "2";\n  "4";\n  "7";\n  "8";\n  "C{3,5,6}" -- "4";\n'
        '  "C{3,5,6}" -- "8";\n  "1" -- "2";\n  "2" -- "4";\n  "4" -- "7";\n}\n',
    ),
]


@pytest.mark.parametrize("k, edges, clique, stdout, dot_text", CHAR_TREE_PINS)
def test_char_tree_stdout_and_dot_bytes_are_pinned(
    k, edges, clique, stdout, dot_text, tmp_path, capsys
):
    p = tmp_path / "host.edges"
    p.write_text("".join(e.replace("-", " ") + "\n" for e in edges.split()))
    dot = tmp_path / "ct.dot"
    code, out, _ = run(
        capsys, "char-tree", str(p), "--k", str(k), "--clique", clique, "--dot", str(dot)
    )
    assert code == 0
    assert out == stdout + f"wrote {dot}\n"
    assert dot.read_bytes() == dot_text.encode()


def test_kelmans_round_trip(p4_kt, tmp_path, capsys):
    code, out, _ = run(capsys, "kelmans", p4_kt, "--from", "3", "--to", "2")
    assert code == 0
    assert "13/5 (2.600000)" in out
    kt_text = out[out.index("ktree 1") :]
    T = core.parse_kt(kt_text)
    assert T.k == 1 and T.n == 4
    # emit/parse is bit-stable
    text2, relabel = core.format_kt(T)
    assert relabel is None and text2 == kt_text


def test_kelmans_partial_move(p4_kt, capsys):
    code, out, _ = run(
        capsys, "kelmans", p4_kt, "--from", "2", "--to", "3", "--move", "1"
    )
    assert code == 0
    assert "ktree 1" in out


def test_kelmans_rejects_k2(tri_kt, capsys):
    code, _, err = run(capsys, "kelmans", tri_kt, "--from", "1", "--to", "2")
    assert code == 2
    assert err.startswith("error:") and "not a tree" in err


@pytest.mark.parametrize("ends", [("9", "2"), ("2", "9")])
def test_kelmans_vertex_outside_the_tree_exits_2(p4_kt, ends, capsys):
    code, out, err = run(capsys, "kelmans", p4_kt, "--from", ends[0], "--to", ends[1])
    assert code == 2
    assert err.startswith("error:") and out == ""


def test_oracle_outputs(tri_kt, capsys):
    code, out, _ = run(capsys, "oracle", tri_kt)
    assert code == 0
    assert "3*x^2 + x^3" in out and "9/4 (2.250000)" in out
    code, out, _ = run(capsys, "oracle", tri_kt, "--clique", "1,2")
    assert code == 0
    assert "x^2 + x^3" in out and "5/2 (2.500000)" in out


def test_edge_list_input(tmp_path, capsys):
    p = tmp_path / "tri.edges"
    p.write_text("1 2\n2 3\n1 3\n")
    code, out, _ = run(capsys, "validate", str(p), "--k", "2")
    assert code == 0
    assert "valid 2-tree" in out


def test_verify_subcommand(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "verify",
        "--suite",
        "kelmans",
        "--k",
        "1",
        "--max-n",
        "5",
        "--out",
        str(out_path),
    )
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["violations"] == []
    assert report["suite"] == "kelmans"


def test_verify_stdout_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "jamison-ratio", "--k", "1", "--max-n", "5"
    )
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == verify.SCHEMA_VERIFY


def test_search_subcommand(tmp_path, capsys):
    out_path = tmp_path / "search.json"
    code, _, err = run(
        capsys,
        "search",
        "--k",
        "2",
        "--max-n",
        "6",
        "--out",
        str(out_path),
    )
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["witnesses"] == []
    assert "witnesses: 0" in err


def test_search_reports_the_same_bytes_over_one_or_two_workers(tmp_path, capsys):
    texts = []
    for jobs in ("1", "2"):
        out_path = tmp_path / f"search-jobs{jobs}.json"
        code, _, _ = run(
            capsys, "search", "--k", "2", "--max-n", "8", "--jobs", jobs,
            "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        texts.append([line for line in lines if '"runtime_ms":' not in line])
    assert texts[0] == texts[1]
    report = json.loads(out_path.read_text())
    assert report["instances"] == 1 + 1 + 2 + 5 + 12 + 39  # orders 3..8
    assert "jobs" not in report["config"]


def test_crash_exits_3_with_a_traceback_and_no_report(tmp_path, capsys, monkeypatch):
    def boom(T, cfg):
        raise RuntimeError("checker bug")

    suite = verify.SUITES["nonmajor-max"]
    monkeypatch.setitem(verify.SUITES, "nonmajor-max", suite._replace(checker=boom))
    out_path = tmp_path / "report.json"
    code, _, err = run(
        capsys, "verify", "--suite", "nonmajor-max", "--k", "2", "--max-n", "5",
        "--out", str(out_path),
    )
    assert code == 3
    assert "Traceback" in err and "RuntimeError: checker bug" in err
    assert not out_path.exists()


def test_search_rejects_k1(capsys):
    code, _, err = run(capsys, "search", "--k", "1", "--max-n", "6")
    assert code == 2
    assert "k >= 2" in err


def test_bad_arguments_exit_2(capsys):
    assert run(capsys, "mean-order")[0] == 2
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "verify", "--suite", "nonmajor-max", "--no-dedupe")[0] == 2


BAD_STDERR = json.loads(
    (Path(__file__).resolve().parent / "data" / "bad_input_stderr.json").read_text()
)
FOUR_KT = "ktree 1\nk 2\nn 4\nbase 1 2\nadd 3 1 2\nadd 4 1 3\n"
P4_KT = "ktree 1\nk 1\nn 4\nbase 1\nadd 2 1\nadd 3 2\nadd 4 3\n"

# ("kt" | "edges", file text, flags) run `validate` on the file; ("host", file
# text, command, flags) run the command on it; any other spec is the argv.
# Each case's whole stderr is pinned in data/bad_input_stderr.json.
BAD_INPUTS = {
    "oracle-clique-repeated": ("host", FOUR_KT, "oracle", "--clique", "3,2,3,2"),
    "oracle-pair-repeated": ("host", FOUR_KT, "oracle", "--clique", "2,2"),
    "oracle-clique-empty": ("host", FOUR_KT, "oracle", "--clique", ""),
    "mean-order-clique-repeated": ("host", FOUR_KT, "mean-order", "--clique", "1,3,1"),
    "mean-order-clique-empty": ("host", FOUR_KT, "mean-order", "--clique", ""),
    "kelmans-move-repeated": (
        "host", P4_KT, "kelmans", "--from", "2", "--to", "3", "--move", "1,1",
    ),
    "base-token": ("kt", "ktree 1\nk 2\nn 3\nbase 1 x\nadd 3 1 2\n"),
    "add-token": ("kt", "ktree 1\nk 2\nn 3\nbase 1 2\nadd 3 1 x\n"),
    "add-vertex-0": ("kt", "ktree 1\nk 2\nn 3\nbase 1 2\nadd 3 0 1\n"),
    "add-repeated": ("kt", "ktree 1\nk 2\nn 3\nbase 1 2\nadd 3 1 1\n"),
    "kt-k0": ("kt", "ktree 1\nk 0\nn 0\nbase\n"),
    "edges-k0": ("edges", "", "--n", "1", "--k", "0"),
    "edges-id-1e15": ("edges", "1 1000000000000000\n", "--k", "1"),
    "kt-k-1e15": ("kt", "ktree 1\nk 1000000000000000\nn 1000000000000000\nbase 1\n"),
    "verify-empty-k-random": (
        "verify", "--suite", "nonmajor-max", "--k", "3-1", "--mode", "random",
        "--trials", "2",
    ),
    "verify-empty-k-exhaustive": ("verify", "--suite", "nonmajor-max", "--k", "3-1"),
    "verify-order-range-below-k": (
        "verify", "--suite", "nonmajor-max", "--max-n", "-5",
    ),
    "verify-min-n-above-max-n": (
        "verify", "--suite", "nonmajor-max", "--k", "2", "--min-n", "8", "--max-n", "6",
    ),
    "verify-k-token": ("verify", "--suite", "nonmajor-max", "--k", "two"),
    "verify-k-repeated": ("verify", "--suite", "nonmajor-max", "--k", "2,2", "--max-n", "5"),
    "verify-k-range-1e12": (
        "verify", "--suite", "nonmajor-max", "--k", "1-1000000000000", "--max-n", "5",
    ),
    "verify-random-max-n-at-k": (
        "verify", "--suite", "nonmajor-max", "--k", "3", "--max-n", "3",
        "--mode", "random", "--trials", "2",
    ),
    "search-random-max-n-at-k": (
        "search", "--k", "3", "--max-n", "3", "--mode", "random", "--budget", "2",
    ),
    "verify-bristled-k1-after-k3": (
        "verify", "--suite", "bristled-star", "--k", "3,1", "--max-n", "40",
    ),
    "verify-bristled-k-1e12": (
        "verify", "--suite", "bristled-star", "--k", "1000000000000", "--max-n", "3",
    ),
    "verify-random-order-1e12": (
        "verify", "--suite", "nonmajor-max", "--mode", "random", "--trials", "1",
        "--max-n", "1000000000000",
    ),
    "search-random-order-1e12": (
        "search", "--k", "2", "--mode", "random", "--budget", "1",
        "--max-n", "1000000000000",
    ),
    "verify-jobs-0": (
        "verify", "--suite", "nonmajor-max", "--k", "2", "--max-n", "6", "--jobs", "0",
    ),
    "search-jobs-0": ("search", "--k", "2", "--max-n", "6", "--jobs", "0"),
    "verify-jobs-negative": (
        "verify", "--suite", "nonmajor-max", "--k", "2", "--max-n", "6", "--jobs", "-4",
    ),
    "verify-exhaustive-trials": (
        "verify", "--suite", "nonmajor-max", "--k", "2", "--max-n", "6", "--trials", "5",
    ),
    "verify-exhaustive-seed": (
        "verify", "--suite", "nonmajor-max", "--k", "2", "--max-n", "6", "--seed", "3",
    ),
    "search-exhaustive-budget": ("search", "--k", "2", "--max-n", "6", "--budget", "5"),
    "search-exhaustive-budget-0": ("search", "--k", "2", "--max-n", "6", "--budget", "0"),
    "search-exhaustive-seed": ("search", "--k", "2", "--max-n", "6", "--seed", "3"),
    "search-random-no-budget": ("search", "--k", "2", "--max-n", "6", "--mode", "random"),
    "search-random-budget-0": (
        "search", "--k", "2", "--max-n", "6", "--mode", "random", "--budget", "0",
    ),
    "search-random-budget-negative": (
        "search", "--k", "2", "--max-n", "6", "--mode", "random", "--budget", "-3",
    ),
    "verify-family-order-1e15": (
        "verify", "--suite", "double-broom", "--min-n", "1000000000000000",
        "--max-n", "1000000000000000",
    ),
    "verify-family-random": (
        "verify", "--suite", "double-broom", "--max-n", "4", "--mode", "random",
        "--trials", "7", "--seed", "2",
    ),
    "verify-classes-k10": ("verify", "--suite", "nonmajor-max", "--k", "10", "--max-n", "11"),
    "search-classes-k10": ("search", "--k", "10", "--max-n", "11"),
    "verify-classes-k3-n16": ("verify", "--suite", "nonmajor-max", "--k", "3", "--max-n", "16"),
    "search-classes-k3-n16": ("search", "--k", "3", "--max-n", "16"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2(case, tmp_path, capsys):
    spec = BAD_INPUTS[case]
    if spec[0] == "kt":
        p = tmp_path / "bad.kt"
        p.write_text(spec[1])
        argv = ["validate", str(p)]
    elif spec[0] == "edges":
        p = tmp_path / "bad.edges"
        p.write_text(spec[1])
        argv = ["validate", str(p), *spec[2:]]
    elif spec[0] == "host":
        p = tmp_path / "host.kt"
        p.write_text(spec[1])
        argv = [spec[2], str(p), *spec[3:]]
    else:
        argv = list(spec)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err == BAD_STDERR["bad_inputs"][case]


def test_every_bad_input_has_a_pinned_stderr():
    assert sorted(BAD_STDERR["bad_inputs"]) == sorted(BAD_INPUTS)


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--suite", "nonmajor-max", "--k", "2", "--max-n", "6"),
        ("search", "--k", "2", "--max-n", "6"),
        ("mean-order", "P4", "--global"),
        ("oracle", "P4"),
    ],
)
def test_negative_cap_exits_2(argv, p4_kt, capsys):
    pinned = BAD_STDERR["negative_cap"][" ".join(argv)]
    argv = [p4_kt if a == "P4" else a for a in argv]
    code, out, err = run(capsys, *argv, "--cap", "-1")
    assert code == 2
    assert err == pinned
    assert out == ""


def test_random_modes_are_deterministic(tmp_path, capsys):
    runs = {
        "verify": ["verify", "--suite", "nonmajor-max", "--k", "2,3", "--min-n", "4",
                   "--max-n", "9", "--mode", "random", "--trials", "5", "--seed", "3"],
        "search": ["search", "--k", "2", "--max-n", "9", "--mode", "random",
                   "--budget", "5", "--seed", "5"],
    }
    for name, argv in runs.items():
        texts = []
        for i in range(2):
            out = tmp_path / f"{name}{i}.json"
            assert run(capsys, *argv, "--out", str(out))[0] == 0
            report = json.loads(out.read_text())
            assert report["instances"] == 5
            report.pop("runtime_ms")
            texts.append(report)
        assert texts[0] == texts[1]
    near = [x["instance"] for x in texts[1]["tallies"]["near_misses"]]
    assert near == ["k2-r5", "k2-r7", "k2-r8"]
