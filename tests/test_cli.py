"""End-to-end coverage of the command-line interface."""

import json

import pytest

from ktrees import core
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


def test_mean_order_clique(tri_kt, capsys):
    code, out, _ = run(capsys, "mean-order", tri_kt, "--clique", "1,2")
    assert code == 0
    assert "5/2 (2.500000)" in out


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
    code, _, _ = run(
        capsys, "mean-order", tri_kt, "--clique", "1,2", "--global"
    )
    assert code == 2


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
    assert report["schema"] == "ktree-verify/1"


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


def test_search_rejects_k1(capsys):
    code, _, err = run(capsys, "search", "--k", "1", "--max-n", "6")
    assert code == 2
    assert "k >= 2" in err


def test_bad_arguments_exit_2(capsys):
    assert run(capsys, "mean-order")[0] == 2
    assert run(capsys, "no-such-command")[0] == 2


BAD_INPUTS = {
    "base-token": ("kt", "ktree 1\nk 2\nn 3\nbase 1 x\nadd 3 1 2\n"),
    "add-token": ("kt", "ktree 1\nk 2\nn 3\nbase 1 2\nadd 3 1 x\n"),
    "add-vertex-0": ("kt", "ktree 1\nk 2\nn 3\nbase 1 2\nadd 3 0 1\n"),
    "add-repeated": ("kt", "ktree 1\nk 2\nn 3\nbase 1 2\nadd 3 1 1\n"),
    "kt-k0": ("kt", "ktree 1\nk 0\nn 0\nbase\n"),
    "edges-k0": ("edges", "--k", "0"),
    "verify-empty-k-random": (
        "verify", "--suite", "nonmajor-max", "--k", "3-1", "--mode", "random",
        "--trials", "2",
    ),
    "verify-empty-k-exhaustive": ("verify", "--suite", "nonmajor-max", "--k", "3-1"),
    "verify-k-token": ("verify", "--suite", "nonmajor-max", "--k", "two"),
    "verify-random-max-n-at-k": (
        "verify", "--suite", "nonmajor-max", "--k", "3", "--max-n", "3",
        "--mode", "random", "--trials", "2",
    ),
    "search-random-max-n-at-k": (
        "search", "--k", "3", "--max-n", "3", "--mode", "random", "--budget", "2",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2(case, tmp_path, capsys):
    spec = BAD_INPUTS[case]
    if spec[0] == "kt":
        p = tmp_path / "bad.kt"
        p.write_text(spec[1])
        argv = ["validate", str(p)]
    elif spec[0] == "edges":
        p = tmp_path / "one.edges"
        p.write_text("")
        argv = ["validate", str(p), "--n", "1", *spec[1:]]
    else:
        argv = list(spec)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")


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
