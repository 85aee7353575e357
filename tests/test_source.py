"""Source-level rules for the package."""

import ast
import importlib
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ktrees"
BROAD = {"Exception", "BaseException"}


def _crash_handlers(tree):
    """The `except Exception` handlers of the CLI's `main` that return the
    crash exit code 3: a crash reported as a crash, never as a verdict."""
    return {
        id(node)
        for func in tree.body
        if isinstance(func, ast.FunctionDef) and func.name == "main"
        for node in ast.walk(func)
        if isinstance(node, ast.ExceptHandler)
        and getattr(node.type, "id", None) == "Exception"
        and any(
            isinstance(s, ast.Return) and getattr(s.value, "value", None) == 3
            for s in node.body
        )
    }


def test_no_broad_except():
    """A broad handler can turn a bug into a verdict; catch KTreeError.  The
    one broad handler allowed is the CLI boundary's, which exits 3."""
    broad = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = _crash_handlers(tree) if path.name == "cli.py" else set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler) or id(node) in allowed:
                continue
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(t is None or getattr(t, "id", None) in BROAD for t in types):
                broad.append(f"{path.name}:{node.lineno}")
    assert not broad, f"broad except clauses: {broad}"


RECURSION_ALLOWED = set()


def _callee(node):
    """The name a call invokes: `f(...)`, `self.f(...)` or `cls.f(...)`."""
    if not isinstance(node, ast.Call):
        return None
    f = node.func
    if isinstance(f, ast.Name):
        return f.id
    if isinstance(f, ast.Attribute) and getattr(f.value, "id", None) in ("self", "cls"):
        return f.attr
    return None


def _self_calls(tree, module):
    """Qualified names of the functions that call themselves by name."""
    found = []
    stack = [(tree, module)]
    while stack:
        node, prefix = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef) and child.name in map(
                    _callee, ast.walk(child)
                ):
                    found.append(name)
                stack.append((child, name))
            else:
                stack.append((child, prefix))
    return found


def test_no_self_recursion():
    """Host depth can reach n, far past Python's recursion limit; fold in a
    loop instead."""
    recursive = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        recursive += _self_calls(tree, path.stem)
    assert set(recursive) <= RECURSION_ALLOWED, f"self-recursive: {recursive}"


PEEL_CALLERS = {"core.recognize_ktree", "chartree.elimination_sequence"}


def _holders(tree, module, hit):
    """Qualified names of the functions holding a node for which `hit` is
    true, outside any function nested in them."""
    found = set()
    stack = [(tree, module)]
    while stack:
        node, prefix = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                stack.append((child, f"{prefix}.{child.name}"))
                continue
            if hit(child):
                found.add(prefix)
            stack.append((child, prefix))
    return found


def _callers(tree, module, name):
    """Qualified names of the functions that call `name` directly."""

    def calls(node):
        f = getattr(node, "func", None) if isinstance(node, ast.Call) else None
        return getattr(f, "id", None) == name or getattr(f, "attr", None) == name

    return _holders(tree, module, calls)


def test_k_leaf_peel_only_in_recognition_and_elimination():
    """A per-clique peel costs a pass over the whole host; rooted work walks
    the clique-incidence index instead."""
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        callers |= _callers(tree, path.stem, "_peel_k_leaves")
    assert callers <= PEEL_CALLERS, f"peel callers: {sorted(callers - PEEL_CALLERS)}"
    assert callers, "the guard found no caller at all; the search is broken"


def test_oracle_members_are_grown_in_one_place():
    """Every oracle entry point reads its host's members from the one-host
    slot, so a second call site could grow a host twice."""
    calls = 0
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls += sum(
            "_grow_all" in (getattr(n.func, "id", None), getattr(n.func, "attr", None))
            for n in ast.walk(tree)
            if isinstance(n, ast.Call)
        )
        callers |= _callers(tree, path.stem, "_grow_all")
    assert callers == {"oracle._host_set"}, f"_grow_all callers: {sorted(callers)}"
    assert calls == 1, f"{calls} call sites of _grow_all"


NODE_CALLERS = {"core._clique_node", "core.CliqueIncidence.__init__"}


def _peeks_at_the_table(node):
    """A read of the clique table that cannot build it: the table's name as
    a string, or an instance `__dict__`."""
    return (isinstance(node, ast.Constant) and node.value == "_k_cliques") or (
        isinstance(node, ast.Attribute) and node.attr == "__dict__"
    )


def test_one_way_from_a_clique_to_its_node():
    """A clique becomes its incidence node only in `core._clique_node`,
    which alone reads the clique table without building it, so every query
    validates and locates its clique the same way."""
    callers, peekers = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        callers |= _callers(tree, path.stem, "node")
        peekers |= _holders(tree, path.stem, _peeks_at_the_table)
    assert callers == NODE_CALLERS, f".node( callers: {sorted(callers)}"
    assert peekers == {"core._clique_node"}, f"table read in {sorted(peekers)}"


def test_class_levels_extend_their_parents():
    """A class representative is its parent plus one vertex, carried over
    from the parent's structures by `KTree.from_parent`, never rebuilt from
    its records; only `isomorphism._extend` makes one."""
    rebuilders, extenders = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.stem == "isomorphism":
            rebuilders = _callers(tree, path.stem, "from_parts")
        extenders |= _callers(tree, path.stem, "from_parent")
    assert not rebuilders, f"isomorphism rebuilds hosts in {sorted(rebuilders)}"
    assert extenders == {"isomorphism._extend"}, f"from_parent callers: {sorted(extenders)}"


CORPUS_CALLERS = {"verify._run_corpus", "verify._chunk_payloads"}


def test_one_host_loop_walks_the_corpus():
    """Every suite and the search reach their hosts through the shared
    driver, serially or by chunks, so no second host loop can come back."""
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        callers |= _callers(tree, path.stem, "iter_corpus")
    extra = sorted(callers - CORPUS_CALLERS)
    assert not extra, f"corpus callers outside the driver: {extra}"
    assert callers, "the guard found no caller at all; the search is broken"


REPORT_BUILDER = {"verify._report"}


def test_one_function_builds_a_report():
    """`verify` and `search` share one report builder: only it spells
    "runtime_ms" and only it reads the clock, so no second report can drift
    from the first."""
    tree = ast.parse((SRC / "verify.py").read_text(encoding="utf-8"))
    spellers = _holders(
        tree, "verify", lambda n: isinstance(n, ast.Constant) and n.value == "runtime_ms"
    )
    clock = _holders(
        tree,
        "verify",
        lambda n: isinstance(n, ast.Attribute) and getattr(n.value, "id", None) == "time",
    )
    assert spellers == REPORT_BUILDER, f"report fields spelled in {sorted(spellers)}"
    assert clock == REPORT_BUILDER, f"clock read in {sorted(clock)}"


ORACLE_FORBIDDEN = {"k_cliques", "_k_cliques", "_incidence", "build"}
ORACLE_MODULES = {"chartree", "isomorphism"}


def _identifiers(tree):
    """Every name a module spells: variables, attributes, imports, defs and
    keyword arguments."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(filter(None, (node.name, node.asname)))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.arg, ast.keyword)):
            names.add(node.arg)
    return names


def _imported_modules(tree):
    """Last dotted component of every module an import statement names."""
    mods = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            mods.add((node.module or "").rsplit(".", 1)[-1])
            if not node.module:
                mods.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            mods.update(a.name.rsplit(".", 1)[-1] for a in node.names)
    return mods


def test_oracle_reads_only_the_adjacency_masks():
    """The oracle checks the fast paths, so it must not share their data: no
    construction records, incidence index or clique list of the host, and no
    import of the characteristic-tree or isomorphism code."""
    tree = ast.parse((SRC / "oracle.py").read_text(encoding="utf-8"))
    assert not _identifiers(tree) & ORACLE_FORBIDDEN
    assert not _imported_modules(tree) & ORACLE_MODULES
    # the guard sees these names where they are used
    chartree = ast.parse((SRC / "chartree.py").read_text(encoding="utf-8"))
    assert "k_cliques" in _identifiers(chartree)
    assert "_incidence" in _identifiers(chartree)
    verify = ast.parse((SRC / "verify.py").read_text(encoding="utf-8"))
    assert "chartree" in _imported_modules(verify)


TREE_WALKERS = {"polynomials._bfs_tree"}


def _grows_what_it_walks(node):
    """A loop that appends to a list its head reads: a graph walk."""
    if isinstance(node, ast.For):
        head = node.iter
    elif isinstance(node, ast.While):
        head = node.test
    else:
        return False
    names = {n.id for n in ast.walk(head) if isinstance(n, ast.Name)}
    return any(
        isinstance(n, ast.Call)
        and getattr(n.func, "attr", None) == "append"
        and getattr(n.func.value, "id", None) in names
        for stmt in node.body
        for n in ast.walk(stmt)
    )


def test_one_walk_over_a_tree_adjacency():
    """Connectivity, rooted folds and the components of T - S all read the
    one breadth-first walk, so the tree layer has no second traversal."""
    walkers = set()
    for name in ("polynomials", "kelmans_ops"):
        tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
        walkers |= _holders(tree, name, _grows_what_it_walks)
    assert walkers == TREE_WALKERS, f"tree walks in {sorted(walkers)}"


def test_the_package_binds_only_its_modules_and_version():
    """Library code imports from the modules; a re-export list in
    `__init__` would be a second, drifting list of the public names."""
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    modules = {path.stem for path in SRC.glob("*.py")} - {"__init__"}
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # the docstring
        if isinstance(node, ast.ImportFrom) and node.level == 1 and not node.module:
            bound += [(a.name, a.asname or a.name) for a in node.names]
        elif isinstance(node, ast.Assign):
            bound += [(None, getattr(t, "id", None)) for t in node.targets]
        else:
            bound.append((None, type(node).__name__))
    odd = [
        name
        for target, name in bound
        if not (target == name and name in modules) and name != "__version__"
    ]
    assert not odd, f"__init__ binds {odd}"
    assert any(name == "__version__" for _, name in bound)


BENCH = SRC.parent.parent / "bench"

# public names with no program caller, each kept for the reason given
NO_CALLER_ALLOWED = {
    "elimination_sequence": "an independent check of recognition",
    "gen_path_type": "one of the paper's named families",
    "gen_star_type": "one of the paper's named families",
    "canonical_code": "the reference the class coder is checked against",
}
MODULES = {path.stem for path in SRC.glob("*.py")}


def _module_names(tree):
    """Names a module binds to a module: by `import`, or by importing a
    module of the package from a package."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.asname or a.name for a in node.names if a.name in MODULES)
    return names


def _references(tree):
    """Every name a module reads, every import alias, and every attribute it
    reads off a module name or off `self`/`cls`.  A field, or an attribute
    of another object, that shares a function's name is none of these, and
    nor are the strings of an `__all__`."""
    owners = _module_names(tree) | {"self", "cls"}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in owners:
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(filter(None, (node.name, node.asname)))
    return names


def _span_names(tree):
    """The dotted attribute parts named by the entries of `SPANS`."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "SPANS" for t in node.targets
        ):
            for entry in node.value.elts:
                names.update(entry.elts[1].value.split("."))
    return names


def test_every_public_function_has_a_program_caller():
    """An export only the tests read is code to keep with no user: every
    public top-level function and class of the package is named by the
    package (outside `__init__`), by the bench, or by a bench span."""
    public, referenced = set(), set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        referenced |= _references(tree)
        public |= {
            node.name
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
        }
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        referenced |= _references(tree)
        if path.name == "tracing.py":
            referenced |= _span_names(tree)
    unused = sorted(public - referenced - set(NO_CALLER_ALLOWED))
    assert not unused, f"public names with no program caller: {unused}"
    stale = sorted(set(NO_CALLER_ALLOWED) - (public - referenced))
    assert not stale, f"allowlisted names that are gone or now have a caller: {stale}"


def _opcodes(parsed):
    """Every opcode of a parsed regex, nested groups and repeats included."""
    for op, arg in parsed:
        yield op
        stack = [arg]
        while stack:
            item = stack.pop()
            if hasattr(item, "data"):  # a nested parsed subpattern
                yield from _opcodes(item)
            elif isinstance(item, (list, tuple)):
                stack.extend(item)


def test_module_regexes_compile_on_python_3_10():
    """pyproject admits Python 3.10, whose `re` has no possessive repeat or
    atomic group (both arrived in 3.11): a module-level pattern using one
    would stop `import ktrees` there."""
    try:
        from re import _constants, _parser
    except ImportError:  # Python 3.10, where importing the package is the check
        return
    newer = {_constants.POSSESSIVE_REPEAT, _constants.ATOMIC_GROUP}
    found = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"ktrees.{path.stem}")
        for name, value in vars(module).items():
            if isinstance(value, re.Pattern):
                ops = set(_opcodes(_parser.parse(value.pattern, value.flags)))
                if ops & newer:
                    found.append(f"{path.name}:{name}")
    assert not found, f"patterns needing Python 3.11: {found}"


PASS_FORBIDDEN = {"_walk", "characteristic_tree", "_phi_pair", "_phi_poly"}


def test_one_pass_and_characteristic_trees_stay_apart():
    """`core.all_clique_pairs` and the characteristic-tree path check each
    other, so neither may lean on the other: the pass walks no tree and
    folds no tree polynomial, and `chartree` never names the pass."""
    core = ast.parse((SRC / "core.py").read_text(encoding="utf-8"))
    leaning = sorted(
        name
        for name in PASS_FORBIDDEN
        if "core.all_clique_pairs" in _callers(core, "core", name)
    )
    assert not leaning, f"all_clique_pairs calls {leaning}"
    assert any(getattr(node, "name", None) == "all_clique_pairs" for node in core.body)
    chartree = ast.parse((SRC / "chartree.py").read_text(encoding="utf-8"))
    assert "all_clique_pairs" not in _identifiers(chartree)


def test_only_the_pinned_suite_walks_a_tree_per_clique():
    """`nonmajor-max` keeps one characteristic tree and one `clique_degree`
    per clique, the calls the benchmark counts; the other argmax suites take
    their means and degrees from the one pass.  Both build the one host
    table, and neither asks for a clique's neighbours."""
    tree = ast.parse((SRC / "verify.py").read_text(encoding="utf-8"))
    for name in ("all_clique_means", "clique_degree"):
        assert "verify.check_nonmajor_max" in _callers(tree, "verify", name), name
        assert "verify._argmax_classes" not in _callers(tree, "verify", name), name
    assert "verify._argmax_classes" in _callers(tree, "verify", "all_clique_pairs")
    builders = {"verify._argmax_classes", "verify.check_nonmajor_max"}
    assert builders <= _callers(tree, "verify", "of")
    for name in ("better_neighbors", "adjacent_cliques"):
        assert not builders & _callers(tree, "verify", name), name


def test_the_host_table_names_no_fraction():
    """Argmax decisions compare integer keys and pairs: the host table, its
    comparison helpers and `_argmax_classes` never name `Fraction`, which
    the checkers build only for report fields."""
    tree = ast.parse((SRC / "verify.py").read_text(encoding="utf-8"))
    held = {node.name: node for node in tree.body if hasattr(node, "name")}
    for name in ("_HostTable", "_argmax_classes"):
        assert "Fraction" not in _identifiers(held[name]), name
    assert "Fraction" in _identifiers(tree)  # the rule reads the right names


INDEX_ARRAYS = {"attach_node", "step_of", "layout"}


def test_the_incidence_tree_adjacency_has_one_home():
    """`verify` and `isomorphism` read the clique-incidence tree through
    `CliqueIncidence.nodes`, `faces` and `holders`, never through the index's
    arrays, and only `core` defines a `faces`, so the node numbering is known
    to `core` and to `chartree`'s walk alone."""
    for name in ("verify", "isomorphism"):
        tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
        spelled = sorted(_identifiers(tree) & INDEX_ARRAYS)
        assert not spelled, f"{name} spells {spelled}"
    definers = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        definers |= {
            path.stem
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.lstrip("_") == "faces"
        }
    assert definers == {"core"}, f"faces defined in {sorted(definers)}"
    # the guard sees these names where they are used
    chartree = ast.parse((SRC / "chartree.py").read_text(encoding="utf-8"))
    assert INDEX_ARRAYS <= _identifiers(chartree)
