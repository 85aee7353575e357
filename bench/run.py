"""Benchmark of `ktrees`: three checked workloads and a traced per-layer run.

    python3 bench/run.py --workload {exhaustive,big-hosts,cross-check} \\
        --seed N --seconds S --trace {0,1}

Run from anywhere; the package is imported from `src/` next to this
directory.  Each run is one process with no worker pool.  It samples set-up
time in fresh processes (`probe.py`), loads the inputs itself, then runs whole
rounds of the workload until S seconds of rounds have been timed.  Before each
round after the first it parses the inputs again, untimed, so no round reuses
what an earlier one cached.  Outputs of the first round are checked against
`reference.py`; every later round must reproduce them exactly.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 the layers are wrapped (`tracing.py`) and
the per-layer metrics are printed instead, and every span is written to
bench/out/.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SELF, CALLS, SIZE = 1, 0, 2
CLIQUE_QUERY = ("core.clique_degree", "core.adjacent_cliques")
REDUCTION = (
    "chartree.all_clique_means",
    "chartree.local_mean_order_clique",
    "chartree.local_poly_clique",
)
ISO = (
    "isomorphism.enumerate_ktrees_up_to_iso",
    "isomorphism.rooted_code_set",
    "isomorphism.rooted_code",
)
ENUMERATE = ISO[0]
# per-round metrics: (name, unit, field, spans whose field is summed)
ROUND_METRICS = (
    ("core.clique_query_s", "s", SELF, CLIQUE_QUERY),
    ("core.clique_query.calls", "count", CALLS, CLIQUE_QUERY),
    ("chartree.all_clique_means_s", "s", SELF, REDUCTION),
    ("chartree.characteristic_tree_s", "s", SELF, ("chartree.characteristic_tree",)),
    ("chartree.characteristic_tree.calls", "count", CALLS, ("chartree.characteristic_tree",)),
    ("chartree.construction_from_s", "s", SELF, ("chartree.construction_from",)),
    ("chartree.construction_from.calls", "count", CALLS, ("chartree.construction_from",)),
    ("chartree.adjacency_s", "s", SELF, ("chartree.verify_adjacent_reduction",)),
    ("chartree.adjacency.calls", "count", CALLS, ("chartree.verify_adjacent_reduction",)),
    ("polynomials.subtree_poly_s", "s", SELF, ("polynomials.subtree_poly_at_vertex",)),
    ("polynomials.subtree_poly.calls", "count", CALLS, ("polynomials.subtree_poly_at_vertex",)),
    ("kelmans_ops.partial_kelmans_s", "s", SELF, ("kelmans_ops.partial_kelmans",)),
    ("kelmans_ops.partial_kelmans.calls", "count", CALLS, ("kelmans_ops.partial_kelmans",)),
    ("oracle.enumerate_s", "s", SELF, ("oracle.enumerate_sub_ktrees",)),
    ("oracle.restrict_s", "s", SELF, (
        "oracle.SubKTreeSet.restricted",
        "oracle.SubKTreeSet.poly",
        "oracle.SubKTreeSet.mean",
        "oracle.oracle_all_clique_means",
    )),
    ("oracle.sub_ktrees", "count", SIZE, ("oracle.enumerate_sub_ktrees",)),
    ("isomorphism.enumerate_s", "s", SELF, ISO),
    ("isomorphism.rooted_code_set.calls", "count", CALLS, ("isomorphism.rooted_code_set",)),
    ("isomorphism.rooted_code.calls", "count", CALLS, ("isomorphism.rooted_code",)),
    ("verify.driver_s", "s", SELF, ("verify.run_suite", "verify.search_degree2_witness")),
    ("cli.main_s", "s", SELF, ("cli.main",)),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def sample_setup(workload, seed, count):
    """(raw, scaled) set-up seconds from `count` fresh processes, one after
    another."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=150,
            check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        raw, scaled = proc.stdout.split()[-2:]
        samples.append((float(raw), float(scaled)))
    return samples


def same(a, b):
    """Do two rounds agree on one operation's output (or on how it raised)?"""
    if isinstance(a, Exception) or isinstance(b, Exception):
        return repr(a) == repr(b)
    return a == b


def round_metrics(rows, within_enumerate):
    """Per-layer metrics of one traced round from its span tally."""
    out = {}
    for name, unit, field, spans in ROUND_METRICS:
        out[name] = (sum(rows[s][field] for s in spans if s in rows), unit)
    bench = sum(row[SELF] for s, row in rows.items() if s.startswith("bench."))
    out["bench.self_s"] = (bench, "s")
    enumerations = rows.get(ENUMERATE, [0, 0.0, 0, 0])
    built = enumerations[0] + within_enumerate  # one K_k base level per call
    out["isomorphism.classes_yielded"] = (enumerations[2], "count")
    out["isomorphism.classes_built"] = (built, "count")
    out["isomorphism.class_yield"] = (enumerations[2] / built if built else 0.0, "ratio")
    return out


def layer_metrics(tracer, round_times):
    """Per-layer metrics: median time over rounds; counts, which must repeat
    exactly from round to round; parse time of the single set-up."""
    rounds = [
        round_metrics(rows, rows.get("isomorphism.rooted_code_set", [0, 0, 0, 0])[3])
        for rows in tracer.tally("bench.round", within=ENUMERATE)
    ]
    out, repeated = {}, True
    for name, (_, unit) in rounds[0].items():
        values = [r[name][0] for r in rounds]
        if unit == "s":
            out[name] = (statistics.median(values), unit)
        else:
            repeated &= len(set(values)) == 1
            out[name] = (values[0], unit)
    setup = tracer.tally("bench.setup")[0]
    out["core.parse_s"] = (setup.get("core.parse_edge_list", [0, 0.0])[1], "s")
    out["bench.traced_run_s"] = (statistics.median(s for _, s in round_times), "s")
    return out, repeated


def run(args):
    OUT.mkdir(exist_ok=True)
    w = workloads.WORKLOADS[args.workload](args.seed, OUT)
    setup_samples = [] if args.trace else sample_setup(w.name, w.seed, w.probes)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        with tracer.span("bench.setup"):
            w.load(after_import=lambda: tracing.instrument(tracer))
    else:
        w.load()
    loaded = Path(sys.modules["ktrees"].__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        raise RuntimeError(f"ktrees was imported from {loaded}, not from {SRC}")

    round_times, op_times, first, drift = [], [], None, {}
    while True:
        if round_times:
            with tracer.span("bench.reparse") if tracer else nullcontext():
                w.reparse()
            gc.collect()  # every round starts from the same heap
        with tracer.span("bench.round") if tracer else nullcontext():
            raw = w.run_round(tracer.span if tracer else None)
        round_times.append((w.clock.raw, w.clock.scaled))
        op_times.append(w.op_seconds)
        outputs = w.collect(raw)
        if first is None:
            first = outputs
            # set-up plus one round: later rounds repeat it, so a run's peak
            # does not depend on how many rounds fit in --seconds
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            for op, got in outputs.items():
                if not same(got, first[op]):
                    drift[op] = drift.get(op, 0) + 1
        del raw, outputs  # only the first round's outputs outlive their round
        if sum(r for r, _ in round_times) >= args.seconds:
            break

    t0 = time.perf_counter()
    problems = w.check(first)
    check_s = time.perf_counter() - t0
    n_rounds = len(round_times)
    attempted = n_rounds * sum(w.weight(op) for op in first)
    failed = sum(
        n_rounds * w.failures(op, problems[op])
        + drift.get(op, 0) * (w.weight(op) - w.failures(op, problems[op]))
        for op in first
    )
    # a raise fails its operation; any other problem means a wrong output
    correct = not drift and all(
        not problems[op] for op, got in first.items() if not isinstance(got, Exception)
    )
    for op in first:
        for p in problems[op][:5]:
            print(f"{op}: {p}", file=sys.stderr)
        if op in drift:
            print(f"{op}: output changed between rounds", file=sys.stderr)

    if tracer:
        metrics, repeated = layer_metrics(tracer, round_times)
        correct &= repeated
        tracer.write(OUT / f"trace-{w.name}-seed{w.seed}.tsv.gz")
    else:
        metrics = {
            "setup_s": (statistics.median(s for _, s in setup_samples), "s"),
            "run_s": (statistics.median(s for _, s in round_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = dict(
        result,
        workload=w.name,
        seed=w.seed,
        trace=args.trace,
        setup_s_raw_scaled=setup_samples,
        round_s_raw_scaled=round_times,
        check_s=check_s,
        op_s=op_times,
        peak_rss_mb=peak_rss_mb,
        problems={op: ps for op, ps in problems.items() if ps},
    )
    (OUT / f"result-{w.name}-seed{w.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, default=str) + "\n", encoding="utf-8"
    )
    return result


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ktrees" / "__init__.py").is_file():
        print(f"error: no ktrees package at {SRC / 'ktrees'}", file=sys.stderr)
        return 2
    # users pay bytecode compilation once per install, not on every run
    compileall.compile_dir(str(SRC / "ktrees"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)
    result = run(args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
