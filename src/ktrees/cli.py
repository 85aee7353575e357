"""Command-line front door.

Subcommands: validate, mean-order, char-tree, kelmans, oracle, verify,
search.  Inputs are .kt construction files, or edge lists when --k is
given.  Every numeric result is printed as the exact fraction first and a
six-digit decimal second.  Exit codes: 0 clean, 1 violation or failed
cross-check, 2 input/config error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import chartree, core, oracle, polynomials, verify
from .errors import BadK, KTreeError
from .kelmans_ops import kelmans as apply_kelmans, partial_kelmans
from .polynomials import format_rational


def _load(args):
    text = Path(args.input).read_text(encoding="utf-8")
    if getattr(args, "k", None) is not None:
        return core.parse_edge_list(text, args.k, n=getattr(args, "n", None))
    return core.parse_kt(text)


def _parse_clique(spec):
    try:
        return tuple(sorted(int(x) for x in spec.split(",")))
    except ValueError:
        raise KTreeError(f"bad clique spec {spec!r}; expected e.g. 1,2") from None


def _clique_label(C):
    return "{" + ",".join(str(v) for v in C) + "}"


def cmd_validate(args):
    T = _load(args)
    print(f"valid {T.k}-tree on {T.n} vertices")
    for name, (got, want) in T.validate().items():
        status = "ok" if got == want else "FAIL"
        print(f"  {name:24s} {str(got):>8s} == {str(want):<8s} {status}")
    if any(got != want for got, want in T.validate().values()):
        return 1
    return 0


def cmd_mean_order(args):
    T = _load(args)
    chosen = [bool(args.clique), args.all_cliques, args.global_mean]
    if sum(chosen) != 1:
        print("choose exactly one of --clique, --all-cliques, --global",
              file=sys.stderr)
        return 2
    if args.clique:
        C = core.require_k_clique(T, _parse_clique(args.clique))
        mu = chartree.local_mean_order_clique(T, C)
        print(f"mu(T;{_clique_label(C)}) = {format_rational(mu)}")
    elif args.all_cliques:
        means = chartree.all_clique_means(T)
        for C in sorted(means):
            print(f"mu(T;{_clique_label(C)}) = {format_rational(means[C])}")
    else:
        if T.k == 1:
            mu = polynomials.global_mean_order_tree(verify.tree_adjacency(T))
        else:
            mu = oracle.oracle_global_mean(T, cap=args.cap)
        print(f"mu(T) = {format_rational(mu)}")
    return 0


def cmd_char_tree(args):
    T = _load(args)
    C = core.require_k_clique(T, _parse_clique(args.clique))
    ct = chartree.characteristic_tree(T, C)
    print(f"characteristic tree at {_clique_label(C)}: {ct.order} nodes")
    for a, b in ct.edges():
        print(f"  {a} -- {b}")
    if args.dot:
        Path(args.dot).write_text(ct.to_dot(), encoding="utf-8")
        print(f"wrote {args.dot}")
    return 0


def cmd_kelmans(args):
    T = _load(args)
    if T.k != 1:
        print("the kelmans subcommand operates on trees (k=1)", file=sys.stderr)
        return 2
    adj = verify.tree_adjacency(T)
    v, u = args.from_vertex, args.to_vertex
    if args.move is not None:
        moved = _parse_clique(args.move) if args.move else ()
        out = partial_kelmans(adj, v, u, moved)
    else:
        out = apply_kelmans(adj, v, u)
    edges = sorted(tuple(sorted(e)) for e in
                   {frozenset((a, b)) for a in out for b in out[a]})
    T2 = core.recognize_ktree(edges, 1, n=T.n)
    before_v = polynomials.local_mean_order_vertex(adj, v)
    after_v = polynomials.local_mean_order_vertex(out, v)
    before_u = polynomials.local_mean_order_vertex(adj, u)
    after_u = polynomials.local_mean_order_vertex(out, u)
    print(f"mu at v={v}: {format_rational(before_v)} -> {format_rational(after_v)}")
    print(f"mu at u={u}: {format_rational(before_u)} -> {format_rational(after_u)}")
    text, relabel = core.format_kt(T2)
    if relabel:
        mapping = " ".join(f"{a}->{b}" for a, b in sorted(relabel.items()))
        print(f"# emitted with relabeling: {mapping}")
    sys.stdout.write(text)
    return 0


def cmd_oracle(args):
    T = _load(args)
    if args.clique:
        S = _parse_clique(args.clique)
        poly = oracle.oracle_local_poly(T, S, cap=args.cap)
        mu = oracle.oracle_local_mean(T, S, cap=args.cap)
        print(f"phi(T;{_clique_label(S)}) = {poly}")
        print(f"mu(T;{_clique_label(S)}) = {format_rational(mu)}")
    else:
        poly = oracle.oracle_global_poly(T, cap=args.cap)
        mu = oracle.oracle_global_mean(T, cap=args.cap)
        print(f"Phi(T) = {poly}")
        print(f"mu(T) = {format_rational(mu)}")
    return 0


def _parse_ks(spec):
    try:
        if "-" in spec:
            lo, hi = spec.split("-", 1)
            return tuple(range(int(lo), int(hi) + 1))
        return tuple(int(x) for x in spec.split(","))
    except ValueError:
        raise BadK(f"bad k spec {spec!r}; expected e.g. 2 or 1-3 or 2,3") from None


def cmd_verify(args):
    cfg = verify.SuiteConfig(
        suite=args.suite,
        ks=_parse_ks(args.k),
        min_n=args.min_n,
        max_n=args.max_n,
        mode=args.mode,
        trials=args.trials,
        seed=args.seed,
        cap=args.cap,
        dedupe=args.dedupe,
        jobs=args.jobs,
    )
    report = verify.run_suite(cfg)
    _emit_report(report, args.out)
    return 0 if not report["violations"] else 1


def cmd_search(args):
    report = verify.search_degree2_witness(
        k=args.k,
        max_n=args.max_n,
        mode=args.mode,
        budget=args.budget,
        seed=args.seed,
        dedupe=args.dedupe,
        cap=args.cap,
    )
    _emit_report(report, args.out)
    print(f"witnesses: {len(report['witnesses'])}", file=sys.stderr)
    return 0 if not report["violations"] else 1


def _emit_report(report, out):
    text = verify.report_to_json(report)
    if out:
        Path(out).write_text(text, encoding="utf-8")
        print(
            f"suite={report['suite']} instances={report['instances']} "
            f"violations={len(report['violations'])} -> {out}"
        )
    else:
        sys.stdout.write(text)


def build_parser():
    p = argparse.ArgumentParser(
        prog="ktrees",
        description="Exact sub-k-tree polynomials, local mean orders, and "
        "theorem verification for k-trees.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_input(sp):
        sp.add_argument("input", help=".kt file (or edge list with --k)")
        sp.add_argument("--k", type=int, default=None,
                        help="treat input as an edge list for this k")
        sp.add_argument("--n", type=int, default=None,
                        help="order override for edge lists with isolated K_1")

    sp = sub.add_parser("validate", help="recognition verdict and invariants")
    add_input(sp)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("mean-order", help="exact local/global mean orders")
    add_input(sp)
    sp.add_argument("--clique", help="comma-separated clique, e.g. 1,2")
    sp.add_argument("--all-cliques", action="store_true")
    sp.add_argument("--global", dest="global_mean", action="store_true")
    sp.add_argument("--cap", type=int, default=oracle.DEFAULT_CAP)
    sp.set_defaults(func=cmd_mean_order)

    sp = sub.add_parser("char-tree", help="characteristic tree at a clique")
    add_input(sp)
    sp.add_argument("--clique", required=True)
    sp.add_argument("--dot", help="write DOT to this path")
    sp.set_defaults(func=cmd_char_tree)

    sp = sub.add_parser("kelmans", help="apply a (partial) Kelmans move to a tree")
    add_input(sp)
    sp.add_argument("--from", dest="from_vertex", type=int, required=True)
    sp.add_argument("--to", dest="to_vertex", type=int, required=True)
    sp.add_argument("--move", default=None,
                    help="comma-separated moved neighbors (default: full move)")
    sp.set_defaults(func=cmd_kelmans)

    sp = sub.add_parser("oracle", help="brute-force polynomials and means")
    add_input(sp)
    sp.add_argument("--clique", help="restrict to sub-k-trees containing this set")
    sp.add_argument("--cap", type=int, default=oracle.DEFAULT_CAP)
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("--suite", required=True, choices=verify.suite_names())
    sp.add_argument("--k", default="2", help="k values, e.g. 2 or 1-3 or 2,3")
    sp.add_argument("--min-n", type=int, default=0)
    sp.add_argument("--max-n", type=int, default=6)
    sp.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    sp.add_argument("--trials", type=int, default=0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--cap", type=int, default=oracle.DEFAULT_CAP)
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--dedupe", action=argparse.BooleanOptionalAction, default=True)
    sp.add_argument("--out", help="write the JSON report here")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("search", help="hunt for degree-2-only maximizers")
    sp.add_argument("--problem", choices=("degree2-witness",),
                    default="degree2-witness")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--max-n", type=int, required=True)
    sp.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    sp.add_argument("--budget", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--cap", type=int, default=oracle.DEFAULT_CAP)
    sp.add_argument("--dedupe", action=argparse.BooleanOptionalAction, default=True)
    sp.add_argument("--out", help="write the JSON report here")
    sp.set_defaults(func=cmd_search)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except KTreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
