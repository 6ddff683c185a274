"""Guards on the package's shape, mostly read from its source files: the
benchmark tooling names package functions, the package keeps its searches
free of recursion and its checks free of assert statements, it decodes JSON
in one place, it scales valuation rows in one place, into one view of
tuples per instance, which every sum outside core reads but the
allocator's and the naive share oracle's, it reaches the share kernel, the
group loop, the LPT seed and the EFX test each through its own doors, it
walks envied pairs in one place and the allocator's pick in another, it
searches for and rotates an envy cycle in one place each, it checks an
allocation given to it in one place, the share kernel's search loop makes
no call into its own module, and a slice of the committed equivalence
sweep keeps its digest."""

import ast
import dataclasses
import importlib
from fractions import Fraction
from pathlib import Path

from gmms import Instance

import equivalence

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"
PACKAGE = ROOT / "src" / "gmms"


def traced_names():
    """SPAN_FUNCTIONS + LEAF_FUNCTIONS, read from the file without running it."""
    names = {}
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in (
                    "SPAN_FUNCTIONS", "LEAF_FUNCTIONS"):
                names[target.id] = ast.literal_eval(node.value)
    return names["SPAN_FUNCTIONS"] + names["LEAF_FUNCTIONS"]


def test_traced_functions_still_exist():
    # the tracer's install step raises AttributeError on a missing name
    names = traced_names()
    assert len(names) > 10
    for qualname in names:
        module_name, func_name = qualname.split(".")
        module = importlib.import_module(f"gmms.{module_name}")
        assert callable(getattr(module, func_name, None)), qualname


def self_calls(tree):
    """(name, line) of each function, nested ones included, whose body calls
    it by name: as a bare name, or as a method on self or cls."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Name) and func.id == fn.name
                    or isinstance(func, ast.Attribute) and func.attr == fn.name
                    and isinstance(func.value, ast.Name)
                    and func.value.id in ("self", "cls")):
                found.append((fn.name, node.lineno))
    return found


def test_self_calls_are_detected():
    tree = ast.parse("def outer(x):\n"
                     "    def inner(t):\n"
                     "        return inner(t - 1) if t else 0\n"
                     "    return inner(x)\n"
                     "class C:\n"
                     "    def walk(self, t):\n"
                     "        return self.walk(t - 1)\n"
                     "    def other(self, xs):\n"
                     "        return xs.other()\n")
    assert self_calls(tree) == [("inner", 3), ("walk", 7)]


def test_package_has_no_recursion():
    # a recursive search fails on inputs deeper than the recursion limit;
    # every search in the package runs on an explicit stack instead
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders += [f"{path.name}:{line} {name}" for name, line in self_calls(tree)]
    assert offenders == []


def assert_lines(tree):
    """Line of each assert statement: `python -O` strips them, so a check
    written as one does not run there."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Assert))


def test_asserts_are_detected():
    tree = ast.parse("def f(x):\n"
                     "    assert x, 'x'\n"
                     "    if not x:\n"
                     "        raise AssertionError('x')\n"
                     "    return [y for y in x if y]\n"
                     "assert f\n")
    assert assert_lines(tree) == [2, 6]


def test_package_has_no_assert_statements():
    # every check in the package raises explicitly, so it also runs under -O
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders += [f"{path.name}:{line}" for line in assert_lines(tree)]
    assert offenders == []


def test_json_is_decoded_only_in_core():
    # core's one decoder turns every way decoding can fail (bad UTF-8, too
    # deep nesting, an integer past the digit cap) into a ParseError
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                    and isinstance(node.value, ast.Name) and node.value.id == "json"
                    or isinstance(node, ast.ImportFrom) and node.module == "json"):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def enclosing(tree):
    """A function of a line number: the name of the innermost def around
    that line, or None at module level."""
    spans = [(fn.lineno, fn.end_lineno, fn.name) for fn in ast.walk(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]

    def name(line):
        inner = [span for span in spans if span[0] <= line <= span[1]]
        return max(inner)[2] if inner else None
    return name


def references(tree, name):
    """(function, line) of every use of `name`: as a bare name, an attribute
    or an imported name. `function` is the innermost enclosing def, or None
    at module level."""
    within = enclosing(tree)
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name
                or isinstance(node, ast.ImportFrom)
                and any(alias.name == name for alias in node.names)):
            found.append((within(node.lineno), node.lineno))
    return sorted(found, key=lambda use: use[1])


def test_references_are_detected():
    tree = ast.parse("from m import kernel\n"
                     "def outer():\n"
                     "    def inner():\n"
                     "        return kernel()\n"
                     "    return m.kernel, inner\n"
                     "alias = kernel\n")
    assert references(tree, "kernel") == [(None, 1), ("inner", 4), ("outer", 5),
                                          (None, 6)]


def package_users(name):
    """(file, function) of every use of `name` in the package, files in
    name order and uses in line order (see references)."""
    return [(path.name, fn) for path in sorted(PACKAGE.glob("*.py"))
            for fn, _ in references(ast.parse(path.read_text(encoding="utf-8")),
                                    name)]


def test_share_kernel_and_group_loop_have_one_caller():
    # every share search goes through _pool_share, which maps goods to the
    # kernel and builds the witness; it serves the two share entry points
    # and the one walk over groups, _beating_groups, which pools each group
    # itself, so a change to either is made in one place
    assert package_users("_best_partition") == [("maximin.py", "_pool_share")]
    assert package_users("_pool_share") == [("maximin.py", "maximin_share"),
                                            ("maximin.py", "maximin_exceeds"),
                                            ("maximin.py", "_beating_groups")]


def loop_calls(tree, name):
    """(callee, line) of each call in a `while` loop of top-level function
    `name` to a top-level function of the same module, as a bare name or an
    attribute."""
    own = {fn.name for fn in tree.body
           if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))}
    found = set()
    for fn in tree.body:
        if getattr(fn, "name", None) != name:
            continue
        for loop in ast.walk(fn):
            if not isinstance(loop, ast.While):
                continue
            for node in ast.walk(loop):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                callee = (func.id if isinstance(func, ast.Name)
                          else func.attr if isinstance(func, ast.Attribute) else None)
                if callee in own:
                    found.add((callee, node.lineno))
    return sorted(found, key=lambda call: call[1])


def test_loop_calls_are_detected():
    tree = ast.parse("def bound(xs):\n"
                     "    return len(xs)\n"
                     "def kernel(xs):\n"
                     "    bound(xs)\n"
                     "    while xs:\n"
                     "        xs.pop()\n"
                     "        while m.bound(xs) > 2:\n"
                     "            xs.pop()\n"
                     "    return [bound(x) for x in xs]\n"
                     "def other(xs):\n"
                     "    while bound(xs):\n"
                     "        xs.pop()\n")
    assert loop_calls(tree, "kernel") == [("bound", 7)]
    assert loop_calls(tree, "other") == [("bound", 11)]


def kernel_loop():
    """maximin.py's syntax tree and the `while` loop of _best_partition."""
    tree = ast.parse((PACKAGE / "maximin.py").read_text(encoding="utf-8"))
    (kernel,) = [fn for fn in tree.body if getattr(fn, "name", None) == "_best_partition"]
    (loop,) = [node for node in kernel.body if isinstance(node, ast.While)]
    return tree, loop


def test_share_kernel_loop_makes_no_call():
    # a Python call per placement costs more than the bound it tests, so
    # the water-filling test runs in line
    tree, _ = kernel_loop()
    assert loop_calls(tree, "_best_partition") == []


def test_placement_marker_is_unique(placement_marker):
    # the kernel keeps no counter: the tests count placements by the one
    # line of its loop that carries the marker (see conftest.py)
    _, loop = kernel_loop()
    marked = [(path.name, line) for path in sorted(PACKAGE.glob("*.py"))
              for line, text in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
              if text.rstrip().endswith(placement_marker)]
    assert len(marked) == 1 and marked[0][0] == "maximin.py", marked
    assert loop.lineno < marked[0][1] <= loop.end_lineno


def callers(tree, name):
    """Top-level functions whose body, nested defs included, calls `name`
    as a bare name or an attribute."""
    found = set()
    for fn in tree.body:
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and (
                    isinstance(node.func, ast.Name) and node.func.id == name
                    or isinstance(node.func, ast.Attribute)
                    and node.func.attr == name):
                found.add(fn.name)
    return found


def test_callers_are_detected():
    tree = ast.parse("from m import kernel\n"
                     "def outer():\n"
                     "    def inner():\n"
                     "        return kernel()\n"
                     "    return inner\n"
                     "def other():\n"
                     "    return m.kernel(), kernel\n"
                     "def idle():\n"
                     "    return kernel\n")
    assert callers(tree, "kernel") == {"outer", "other"}


def test_lpt_seed_has_two_callers():
    # the share kernel decides its closed-form pools from the LPT seed, and
    # the exact search takes each agent's need from it; a second small-pool
    # path (in _pool_share or the group walker) would split the kernel
    users = sorted((path.name, fn) for path in sorted(PACKAGE.glob("*.py"))
                   for fn in callers(ast.parse(path.read_text(encoding="utf-8")),
                                     "_lpt_seed"))
    assert users == [("algorithms.py", "exact_gmms_search"),
                     ("maximin.py", "_best_partition")]


def test_efx_kernel_has_two_callers():
    # EFX is one test: is_efx runs it on each envied pair of the instance's
    # integer rows, and the exact search's leaves on the same rows, with
    # own values from its stack
    assert package_users("_efx_hit") == [("algorithms.py", None),
                                         ("algorithms.py", "leaf_passes"),
                                         ("fairness.py", "is_efx")]


def over_bundles(node):
    """Whether a loop's iterable ranges over a sequence named *bundles:
    the sequence itself, or enumerate, zip, sorted, reversed or
    range(len(...)) of it."""
    if isinstance(node, ast.Name):
        return node.id.endswith("bundles")
    if isinstance(node, ast.Attribute):
        return node.attr.endswith("bundles")
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("enumerate", "zip", "sorted", "reversed",
                                 "range", "len")
            and any(over_bundles(arg) for arg in node.args))


def pair_walks(tree):
    """(function, line) of each loop, or comprehension clause, over the
    bundles that runs inside another loop or clause: a walk over (agent,
    bundle) pairs. `function` is the innermost enclosing def."""
    within = enclosing(tree)
    inner = set()  # ids of nodes that run inside some loop
    for loop in ast.walk(tree):
        if isinstance(loop, (ast.For, ast.AsyncFor, ast.While)):
            body = loop.body + loop.orelse
        elif isinstance(loop, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            body = [loop.elt] + loop.generators[0].ifs + loop.generators[1:]
        elif isinstance(loop, ast.DictComp):
            body = [loop.key, loop.value] + loop.generators[0].ifs + loop.generators[1:]
        else:
            continue
        inner.update(id(node) for part in body for node in ast.walk(part))
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension))
                and id(node) in inner and over_bundles(node.iter)):
            found.append((within(node.iter.lineno), node.iter.lineno))
    return sorted(found, key=lambda walk: walk[1])


def test_pair_walks_are_detected():
    tree = ast.parse("def matrix(rows, bundles):\n"
                     "    return ([sum(b) for b in bundles] for row in rows)\n"
                     "def pairs(rows, alloc):\n"
                     "    return [(r, b) for r in rows\n"
                     "            for b in alloc.bundles]\n"
                     "def walk(rows, bundles):\n"
                     "    for row in rows:\n"
                     "        for j in range(len(bundles)):\n"
                     "            pass\n"
                     "def flat(rows, bundles):\n"
                     "    for row, b in zip(rows, bundles):\n"
                     "        for g in sorted(b):\n"
                     "            pass\n"
                     "    for row in rows:\n"
                     "        for x in walk(rows, bundles):\n"
                     "            pass\n"
                     "    return [row for b in bundles for row in rows]\n")
    assert pair_walks(tree) == [("matrix", 2), ("pairs", 5), ("walk", 8)]


def test_envied_pairs_have_one_walk():
    # every envy check (EF, EF1, EFX, EFL, the envy graph, the allocator's
    # cycle search and loop invariant, and the search's EFX prefilter)
    # reads its envied pairs from _envied, the package's only loop over
    # bundles inside a loop. The allocator's pick is the one column-major
    # walk (_first_unenvied): the checkers' first witness is fixed by the
    # agent-major order, and the pick's early stop by the column-major one,
    # so the two cannot share
    walks = [(path.name, fn) for path in sorted(PACKAGE.glob("*.py"))
             for fn, _ in pair_walks(ast.parse(path.read_text(encoding="utf-8")))]
    assert walks == [("fairness.py", "_envied")]
    assert package_users("_envied") == [("algorithms.py", None),
                                        ("algorithms.py", "from_allocation"),
                                        ("algorithms.py", "envied_by"),
                                        ("algorithms.py", "_assert_loop_invariants"),
                                        ("algorithms.py", "leaf_passes"),
                                        ("fairness.py", "_pair_violation")]


def test_cycle_search_has_two_users():
    # one depth-first cycle search serves the envy graph and the one
    # rotation step, which walks envied bundles lazily in its place; the
    # allocator and cycle resolution rotate through that step and never
    # build the graph
    assert package_users("_first_cycle") == [("algorithms.py", "find_cycle"),
                                             ("algorithms.py", "_rotate_first_cycle")]
    assert package_users("_rotate_first_cycle") == [
        ("algorithms.py", "resolve_envy_cycles"), ("algorithms.py", "efl_allocate")]
    graph_users = package_users("EnvyGraph")
    for fn in ("_rotate_first_cycle", "resolve_envy_cycles", "efl_allocate"):
        assert ("algorithms.py", fn) not in graph_users


def test_rows_are_scaled_only_by_the_view():
    # every integer kernel reads each agent's (D, ints, order) from the one
    # view an instance caches, so a row is scaled in one place, once
    users = [(path.name, fn) for path in sorted(PACKAGE.glob("*.py"))
             for fn, _ in references(ast.parse(path.read_text(encoding="utf-8")),
                                     "lcm")]
    assert users == [("core.py", "_units")]


def test_view_is_made_of_tuples():
    # every caller reads the same cached view, so no part of it may be
    # mutable; it is no dataclass field, so ==, hash and repr ignore it
    assert "_units" not in {f.name for f in dataclasses.fields(Instance)}
    for rows in ([[1, 0, Fraction(3, 2)], [0, 0, 0]], [[]], [[Fraction(1, 6)] * 4]):
        units = Instance.from_rows(rows)._units
        assert type(units) is tuple and len(units) == len(rows)
        for entry in units:
            denom, ints, order = entry
            assert (type(entry), type(denom), type(ints), type(order)) == (
                tuple, int, tuple, tuple)
            assert all(type(x) is int for x in ints + order)


def attribute_reads(tree, attr):
    """(function, line) of every read of attribute `attr`, on any object; a
    bare name, an assignment and an import do not count. `function` is the
    innermost enclosing def, or None at module level."""
    within = enclosing(tree)
    return sorted(((within(node.lineno), node.lineno) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr == attr
                   and isinstance(node.ctx, ast.Load)),
                  key=lambda use: use[1])


def test_attribute_reads_are_detected():
    tree = ast.parse("from m import valuations\n"
                     "def naive(inst):\n"
                     "    return inst.valuations[0]\n"
                     "def build(self, valuations):\n"
                     "    self.valuations = valuations\n"
                     "def outer(inst):\n"
                     "    def inner():\n"
                     "        return len(inst.valuations)\n"
                     "    return inner\n"
                     "rows = m.Instance.valuations\n")
    assert attribute_reads(tree, "valuations") == [("naive", 3), ("inner", 8),
                                                   (None, 10)]


def test_fraction_rows_have_two_readers_outside_core():
    # every other sum reads the integer view; the allocator keeps its
    # running sums on Fraction rows until it moves onto the view, and the
    # naive share oracle cross-checks the integer kernel on Fractions
    users = [(path.name, fn) for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "core.py"
             for fn, _ in attribute_reads(ast.parse(path.read_text(encoding="utf-8")),
                                          "valuations")]
    assert users == [("algorithms.py", "efl_allocate"),
                     ("maximin.py", "maximin_share_naive")]


def distinct_users(files, name):
    """(file, function) pairs that use `name` (see references), each once,
    in order, from (file name, source text) pairs."""
    return sorted({(file, fn) for file, text in files
                   for fn, _ in references(ast.parse(text), name)},
                  key=lambda use: (use[0], use[1] or ""))


def test_distinct_users_are_detected():
    files = [("a.py", "def pick(xs):\n"
                      "    return xs\n"
                      "def allocate(xs):\n"
                      "    return pick(xs) or pick(xs[1:])\n"),
             ("b.py", "from a import pick\n"
                      "def other(xs):\n"
                      "    return map(pick, xs)\n")]
    assert distinct_users(files, "pick") == [("a.py", "allocate"), ("b.py", None),
                                             ("b.py", "other")]
    assert distinct_users(files[:1], "pick") == [("a.py", "allocate")]


def test_pick_walk_has_one_caller():
    # the lowest unenvied agent is the allocator's question alone: a
    # checker that walked columns would change its first witness
    files = [(path.name, path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))]
    assert distinct_users(files, "_first_unenvied") == [("algorithms.py",
                                                         "efl_allocate")]


def test_allocation_is_checked_in_one_place():
    # every entry point that takes an allocation reaches core._checked,
    # which validates it and gives its integer rows and own values, so a
    # composed call checks once; the CLI checks a loaded file itself, to
    # name the file in its error
    users = [(path.name, fn) for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "core.py"
             for fn, _ in attribute_reads(ast.parse(path.read_text(encoding="utf-8")),
                                          "validate")]
    assert users == [("cli.py", "_load")]


def test_equivalence_slice_pinned():
    # the committed equivalence sweep (tests/equivalence.py) on its small
    # slice: the allocator with and without debug and under scripts, the
    # efl_tight traces, cycle resolution, every PolicyError text, the debug
    # fault of one agent taking every pick, and gmms_threshold's values and
    # InputError texts. A change that moves one of these outputs on purpose
    # re-records the digest, and the full sweep's, and says why
    assert equivalence.digest(equivalence.records(**equivalence.SLICE)) == (
        4746, "33109c5ba3ce4b7c67029eed43639693087b838fa62b8f15d1b9726f37875fc6")
