"""The library boundary: every public function of the computing modules,
given a bad value in any one argument, returns or raises a KTreeError.

The functions are read from the modules, so a new one is covered without an
edit here.  Each is first called with valid arguments, which must succeed,
and then with a garbage value in each argument in turn.
"""

import inspect
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ktrees import chartree, core, isomorphism, kelmans_ops, oracle, polynomials, verify
from ktrees.errors import KTreeError

MODULES = (core, chartree, oracle, isomorphism, polynomials, kelmans_ops)

FOUR = core.build_from_construction(2, [(3, (1, 2)), (4, (1, 3))])
P4 = {1: {2}, 2: {1, 3}, 3: {2, 4}, 4: {3}}

# host arguments get a valid small host: a k-tree, or a tree as an adjacency
HOSTS = {"T": FOUR, "tree": P4, "graph": P4, "adj": P4}

# arguments that only hold values the package itself makes, with the reason
NO_GARBAGE = {
    "q": "a Fraction the package computed; only the formatters read it",
    "means": "the map of means that all_clique_means made for argmax_cliques",
    "cache": "the opaque per-host cache of verify_adjacent_reduction",
}
MADE = {"q": Fraction(7, 3), "means": chartree.all_clique_means(FOUR)}

# a valid value of each other argument without a default, by name; the host's
# ids are 1..4 and the tree's 1-2-3-4, so a vertex is its leaf 1 unless named
VALID = {
    "k": 2, "n": 5, "n_added": 2, "seed": 1,
    "C": (1, 2), "C1": (1, 2), "C2": (1, 3), "S": (1, 2, 3),
    "v": 1, "u": 2, "x": 1, "moved": (), "picks": [0, 1],
    "adds": [(3, (1, 2)), (4, (1, 3))], "edges": [(1, 2), (1, 3), (2, 3)],
    "text": "ktree 1\nk 2\nn 3\nbase 1 2\nadd 3 1 2\n",
}
VALID_IN = {
    ("chartree", "elimination_sequence", "v"): 4,
    ("core", "parse_edge_list", "text"): "1 2\n1 3\n2 3\n",
}

# wrong types, bools, negatives, zero, NaN, unhashable and nested values; no
# positive int, so no huge valid size is ever asked for
SCALARS = st.one_of(
    st.sampled_from([5.0, float("nan"), Fraction(1), True, False, None, 0, -1, b"3"]),
    st.integers(-3, 0),
    st.text(max_size=3),
)
SMALL = st.one_of(st.integers(1, 4), SCALARS)
GARBAGE = st.one_of(
    SCALARS,
    st.lists(SMALL, max_size=3),
    st.lists(SMALL, max_size=3).map(tuple),
    st.tuples(st.lists(st.integers(1, 3), max_size=2), st.integers(1, 3)),
    st.lists(st.lists(SMALL, max_size=2), max_size=2),
    st.dictionaries(st.integers(1, 3), SMALL, max_size=2),
    st.lists(st.tuples(SMALL, st.lists(SMALL, max_size=2).map(tuple)), max_size=2),
)


def _public_functions():
    for module in MODULES:
        name = module.__name__.rsplit(".", 1)[-1]
        for fname, f in sorted(vars(module).items()):
            if inspect.isfunction(f) and f.__module__ == module.__name__:
                if not fname.startswith("_"):
                    yield name, fname, f


def _arguments(module, fname, f):
    """Valid arguments of f, by parameter name: a default where there is one."""
    args = {}
    for p in inspect.signature(f).parameters.values():
        if p.default is not p.empty:
            args[p.name] = p.default
        elif p.name in HOSTS:
            args[p.name] = HOSTS[p.name]
        elif p.name in MADE:
            args[p.name] = MADE[p.name]
        elif (module, fname, p.name) in VALID_IN:
            args[p.name] = VALID_IN[module, fname, p.name]
        else:
            assert p.name in VALID, f"{fname}: no valid value for {p.name}"
            args[p.name] = VALID[p.name]
    return args


def _call(f, args):
    out = f(**args)
    return list(out) if inspect.isgenerator(out) else out


FUNCTIONS = list(_public_functions())
CASES = [
    pytest.param(f, _arguments(m, name, f), p, id=f"{m}.{name}-{p}")
    for m, name, f in FUNCTIONS
    for p in inspect.signature(f).parameters
    if p not in HOSTS and p not in NO_GARBAGE
]

# `verify`'s entry points, with valid arguments; each argument, the host
# too, gets the garbage.  Its `check_*` suite rows stay outside: the driver
# calls them with hosts and configs it has already read.
VERIFY_CALLS = [
    (verify.run_suite, {"cfg": verify.SuiteConfig("nonmajor-max", max_n=5)}),
    (verify.iter_corpus, {"cfg": verify.SuiteConfig("nonmajor-max", max_n=5)}),
    (verify.tree_adjacency, {"T": core.gen_path_type(1, 4)}),
    (verify.path_type_predicate, {"T": FOUR}),
    (verify.search_degree2_witness, {"k": 2, "max_n": 5, "mode": "exhaustive",
                                     "budget": None, "seed": 0, "cap": 9, "jobs": 1}),
]
VERIFY_IDS = [f"verify.{f.__name__}" for f, _ in VERIFY_CALLS]
CASES += [
    pytest.param(f, args, p, id=f"verify.{f.__name__}-{p}")
    for f, args in VERIFY_CALLS
    for p in inspect.signature(f).parameters
]


def test_the_boundary_covers_every_module():
    assert {m for m, _, _ in FUNCTIONS} == {m.__name__.rsplit(".", 1)[-1] for m in MODULES}
    assert len(CASES) > 60


@pytest.mark.parametrize("module, name, f", FUNCTIONS, ids=[f"{m}.{n}" for m, n, _ in FUNCTIONS])
def test_valid_arguments_are_accepted(module, name, f):
    _call(f, _arguments(module, name, f))


@pytest.mark.parametrize("f, args", VERIFY_CALLS, ids=VERIFY_IDS)
def test_valid_arguments_are_accepted_by_verify(f, args):
    _call(f, args)


# configs that `SuiteConfig.validate` refuses; the corpus reads only its copy
BAD_CONFIGS = [verify.SuiteConfig("nope"), verify.SuiteConfig("nonmajor-max", ks=None)]


@pytest.mark.parametrize("cfg", BAD_CONFIGS, ids=["unknown-suite", "ks-none"])
def test_the_corpus_refuses_a_config_that_fails_validation(cfg):
    with pytest.raises(KTreeError):
        list(verify.iter_corpus(cfg))


@pytest.mark.parametrize("f, args, param", CASES)
@settings(max_examples=30, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(bad=GARBAGE)
def test_garbage_gives_a_ktree_error(f, args, param, bad):
    try:
        _call(f, {**args, param: bad})
    except KTreeError:
        pass


def _with_a_bool(value):
    """The valid value with True for its int, or for the id 1 of its ids;
    None if it has neither."""
    if type(value) is int:
        return True
    if type(value) in (tuple, list) and 1 in value and {*map(type, value)} == {int}:
        return type(value)(True if v == 1 else v for v in value)
    return None


BOOL_CASES = [c for c in CASES if _with_a_bool(c.values[1][c.values[2]]) is not None]


@pytest.mark.parametrize("f, args, param", BOOL_CASES)
def test_a_bool_is_never_read_as_the_int_it_equals(f, args, param):
    """Ids, sizes, caps and seeds are ints: True in place of 1 is refused,
    or makes a predicate false."""
    try:
        out = _call(f, {**args, param: _with_a_bool(args[param])})
    except KTreeError:
        return
    assert out is False, out


# the host's public vertex queries: valid ids and what they answer
QUERIES = [
    ("neighbors", (1,), (2, 3, 4)),
    ("degree", (4,), 2),
    ("has_edge", (1, 2), True),
    ("has_edge", (4, 2), False),
]
QUERY_CASES = [
    pytest.param(name, args, i, id=f"KTree.{name}-{i}")
    for name, args, _ in QUERIES[:3]
    for i in range(len(args))
]


@pytest.mark.parametrize("name, args, want", QUERIES)
def test_vertex_queries_answer_valid_ids(name, args, want):
    assert getattr(FOUR, name)(*args) == want


@pytest.mark.parametrize("name, args, i", QUERY_CASES)
@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(bad=st.one_of(GARBAGE, st.integers(5, 9)))
def test_vertex_queries_refuse_a_bad_id(name, args, i, bad):
    """A host's vertex queries read their ids as the functions do: an id
    off the host, a bool or garbage in any argument is refused."""
    args = list(args)
    args[i] = bad
    with pytest.raises(KTreeError):
        getattr(FOUR, name)(*args)


def test_has_edge_refuses_an_id_off_the_host_on_either_side():
    for u, v in ((1, 9), (9, 1)):
        with pytest.raises(KTreeError, match="vertex 9 must belong to the host"):
            FOUR.has_edge(u, v)
    with pytest.raises(KTreeError, match="vertex 'a' is not an integer"):
        FOUR.degree("a")


def test_a_polynomial_refuses_coefficients_that_are_not_a_collection():
    assert polynomials.IntPolynomial((1, 2, 0)).coeffs == (1, 2)
    with pytest.raises(KTreeError, match="coefficients 5 are not a collection"):
        polynomials.IntPolynomial(5)
