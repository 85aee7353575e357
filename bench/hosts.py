"""Seeded host k-trees for the benchmark.

The benchmark grows its own hosts instead of calling `ktrees.core.random_ktree`,
so a later change to the program's generator leaves the workloads unchanged.
This module imports nothing from `ktrees`.

A host is grown on construction labels 1..n and then relabelled by a seeded
permutation, so recognition cannot peel a leaf at the lowest id each time.
The construction records (base clique and attachments, in final labels) stay
with the host: the independent checks in `reference.py` read them, the
program only ever sees the shuffled edge list.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Host:
    """One generated k-tree, its construction records and its edge list."""

    name: str
    family: str
    k: int
    base: tuple  # sorted base clique, final labels
    adds: tuple  # ((vertex, sorted attachment), ...) in construction order
    text: str  # shuffled edge list, one "u v" per line

    @property
    def n(self):
        return self.k + len(self.adds)


def _attachments(family, k, n, rng):
    """Attachment cliques, in construction labels, for vertices k+1..n."""
    base = tuple(range(1, k + 1))
    cliques = [base]
    out = []
    spokes = (n - k) // 2
    for v in range(k + 1, n + 1):
        if family == "uniform":
            attach = cliques[rng.randrange(len(cliques))]
        elif family == "biased":
            # half the vertices join the base clique: large sub-k-tree counts
            attach = base if rng.random() < 0.5 else cliques[rng.randrange(len(cliques))]
        elif family == "star":
            attach = base
        elif family == "path":
            attach = tuple(range(v - k, v))
        elif family == "bristled":
            # star-type spokes b_i on the base, then one companion per spoke
            # on {b_i} plus the base minus one base vertex (cycling)
            i = v - k
            if i <= spokes:
                attach = base
            else:
                i -= spokes
                drop = (i - 1) % k + 1
                attach = tuple(sorted({k + i} | (set(base) - {drop})))
        else:
            raise ValueError(f"unknown host family {family!r}")
        out.append(attach)
        for c in attach:
            cliques.append(tuple(sorted((set(attach) - {c}) | {v})))
    return out


def make_host(name, family, k, n, rng):
    """Grow one host of order n and hide its construction order."""
    if family == "bristled" and (k < 2 or (n - k) % 2):
        raise ValueError("a bristled star needs k >= 2 and n - k even")
    attachments = _attachments(family, k, n, rng)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)

    def relabel(vs):
        return tuple(sorted(perm[u - 1] for u in vs))

    base = relabel(range(1, k + 1))
    adds = tuple(
        (perm[v - 1], relabel(attach))
        for v, attach in zip(range(k + 1, n + 1), attachments)
    )
    edges = [(a, b) for i, a in enumerate(base) for b in base[i + 1:]]
    edges += [(v, u) for v, attach in adds for u in attach]
    rng.shuffle(edges)
    text = "".join(f"{u} {v}\n" for u, v in edges)
    return Host(name, family, k, base, adds, text)


# -- workload inputs ------------------------------------------------------------

# (family, k, n): mid-size hosts get the work of `mean-order --all-cliques`
# plus the non-major verdict; large hosts get single-clique queries.
# Four uniform hosts per k, so that their random shapes average out and the
# round time varies little from seed to seed.
BIG_MID = (
    *[("uniform", k, n) for k, n in ((1, 160), (2, 130), (3, 120)) for _ in range(4)],
    ("path", 2, 120),
    ("bristled", 3, 121),
)
BIG_LARGE = (
    ("uniform", 1, 2000),
    ("path", 2, 2000),
    ("uniform", 3, 2000),
)

CROSS_HOSTS = 480  # k cycles 1..3, n cycles 13..16, family alternates per 12


def big_hosts(seed):
    """(mid-size hosts, large hosts) of the `big-hosts` workload."""
    rng = random.Random(f"big-hosts/{seed}")
    mid = [
        make_host(f"mid{i}-k{k}-{fam}-n{n}", fam, k, n, rng)
        for i, (fam, k, n) in enumerate(BIG_MID)
    ]
    large = [
        make_host(f"large-k{k}-{fam}-n{n}", fam, k, n, rng) for fam, k, n in BIG_LARGE
    ]
    return mid, large


def cross_hosts(seed):
    """Small hosts of the `cross-check` workload, n = 13..16, k = 1..3.

    Three star-type hosts of order 16 open the list.  They have the most
    sub-k-trees of any host here, so the largest oracle enumeration runs
    first, on a clean heap, and sets the peak memory the same way for every
    seed.
    """
    rng = random.Random(f"cross-check/{seed}")
    out = [make_host(f"star-k{k}-n16", "star", k, 16, rng) for k in (1, 2, 3)]
    for i in range(CROSS_HOSTS):
        k = 1 + i % 3
        n = 13 + (i // 3) % 4
        fam = "uniform" if (i // 12) % 2 == 0 else "biased"
        out.append(make_host(f"x{i}-k{k}-{fam}-n{n}", fam, k, n, rng))
    return out


def hosts_for(workload, seed):
    """Every host whose edge list the workload's set-up parses, in order."""
    if workload == "big-hosts":
        mid, large = big_hosts(seed)
        return mid + large
    if workload == "cross-check":
        return cross_hosts(seed)
    return []
