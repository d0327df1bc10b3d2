"""Every function and every parameter in ``src/entlab`` earns its place.

A top-level function or method stays only if another part of ``src/`` names
it, ``entlab/__init__.py`` exports it, or ``README.md`` names it as API.
Dunders and the ``@_criterion``-registered acceptance checks are exempt: the
interpreter and :data:`entlab.selftest.REGISTRY` call them.  The README's
list of public API that no command calls names exactly the public functions
that nothing in ``src/`` reads but functions on that list.

A parameter with a default stays only if some call passes it, by keyword or
by position, a value other than the default's own literal.  For a function
that ``entlab/__init__.py`` exports or ``README.md`` names, a call in
``src/`` or ``tests/`` counts; for any other function only a call in
``src/`` does.  :data:`KEPT_PARAMETERS` lists the exceptions with their
reasons.  Each position of a returned tuple stays only if one of the same
callers reads it; :data:`KEPT_RETURNS` lists the exceptions.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "entlab"
TESTS = ROOT / "tests"


def _is_criterion(fn) -> bool:
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_criterion"
               for d in fn.decorator_list)


def _functions(tree):
    """(qualified name, node) of each top-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def _references(node) -> Counter:
    """How often each name is read as an identifier or attribute under ``node``."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def _trees(src: Path) -> dict:
    return {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}


def _public(trees, readme: Path) -> set[str]:
    """The names ``entlab/__init__.py`` exports or ``README.md`` names."""
    exported = {alias.asname or alias.name for node in ast.walk(trees["__init__.py"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    return exported | set(re.findall(r"\w+", readme.read_text()))


def _exempt(fn) -> bool:
    """Dunders and acceptance criteria, which the interpreter and the registry call."""
    return fn.name.startswith("__") and fn.name.endswith("__") or _is_criterion(fn)


def unreached(src: Path = SRC, readme: Path = ROOT / "README.md") -> list[str]:
    trees = _trees(src)
    public = _public(trees, readme)
    references = sum(map(_references, trees.values()), Counter())
    out = []
    for module, tree in trees.items():
        for qualname, fn in _functions(tree):
            name = fn.name
            if _exempt(fn) or name in public:
                continue
            if references[name] > _references(fn)[name]:  # named outside its own body
                continue
            out.append(f"{module}:{qualname}")
    return out


def test_every_src_function_is_called_exported_or_documented():
    assert unreached() == []


def test_an_unreferenced_function_is_reported(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import exported\n")
    (tmp_path / "a.py").write_text(
        "def exported():\n    return helper()\n\n"
        "def helper():\n    return 1\n\n"
        "def orphan():\n    return orphan()\n\n"
        "def documented():\n    pass\n\n"
        "class K:\n    def __init__(self):\n        pass\n\n    def unused(self):\n        pass\n")
    readme = tmp_path / "README.md"
    readme.write_text("`documented` is public API.\n")
    assert unreached(tmp_path, readme) == ["a.py:orphan", "a.py:K.unused"]


def uncalled_public(src: Path = SRC, readme: Path = ROOT / "README.md") -> set[str]:
    """The public functions that no command or criterion reaches.

    A public function joins the set once every function, method or
    module-level statement of ``src/`` that names it, itself aside, is in
    the set; the set is grown to its fixed point."""
    trees = _trees(src)
    public = _public(trees, readme)
    names = {f"{module}:{qualname}": fn.name for module, tree in trees.items()
             for qualname, fn in _functions(tree) if fn.name in public and not _exempt(fn)}
    readers = callers(set(names.values()), src)
    out = set()
    while grown := {q for q, name in names.items() if q not in out and readers[name] - {q} <= out}:
        out |= grown
    return {names[q] for q in out}


def readme_uncalled(readme: Path = ROOT / "README.md") -> set[str]:
    """The names the README lists as "public API that no command calls"."""
    paragraph = next(p for p in readme.read_text().split("\n\n") if "no command calls" in p)
    return set(re.findall(r"`(\w+)`", paragraph.split(" are public")[0]))


def test_the_readme_lists_exactly_the_uncalled_public_api():
    assert uncalled_public() == readme_uncalled()


def test_public_api_reached_only_through_uncalled_api_is_uncalled(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import unused, shared, at_import\n")
    (tmp_path / "a.py").write_text(
        "def unused():\n    return unused() + helper() + shared()\n\n"
        "def helper():\n    return 1\n\n"
        "def shared():\n    return 2\n\n"
        "def command():\n    return shared()\n\n"
        "def at_import():\n    return 3\n\n"
        "TABLE = at_import()\n")
    readme = tmp_path / "README.md"
    readme.write_text("`helper` is public API.\n")
    # command, an internal function like a CLI handler, reaches shared
    assert uncalled_public(tmp_path, readme) == {"unused", "helper"}


# defaulted parameters kept although no src/ call sets them, each with its reason
KEPT_PARAMETERS = {
    # the only way to reach the non-convergence path and its NumericalError
    "linalg.py:lanczos_lowest(maxiter)",
    # the tests' rank-deficient density-matrix fixtures
    "states.py:random_density(rank)",
    # the console entry point passes no argv; tests pass their own
    "cli.py:main(argv)",
}


def _call_name(qualname: str) -> str:
    """The name a call site uses: the class for ``__init__``, else the function."""
    owner, _, name = qualname.rpartition(".")
    return owner if name == "__init__" else name


def _defaulted(fn, is_method: bool):
    """(parameter, position a caller passes it at or None if keyword-only, default)."""
    positional = fn.args.posonlyargs + fn.args.args
    if is_method and not any(getattr(d, "id", None) == "staticmethod"
                             for d in fn.decorator_list):
        positional = positional[1:]  # self or cls
    first = len(positional) - len(fn.args.defaults)
    for index, (arg, default) in enumerate(zip(positional[first:], fn.args.defaults), first):
        yield arg.arg, index, default
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield arg.arg, None, default


def _call_sites(trees) -> dict[str, list]:
    """Every call in the sources as ``(call, parent node)``, by the name it calls
    (a bare or attribute name)."""
    out: dict[str, list] = {}
    for tree in trees:
        for parent in ast.walk(tree):
            for node in ast.iter_child_nodes(parent):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    out.setdefault(name, []).append((node, parent))
    return out


def _calls(trees) -> dict[str, list]:
    """Every call in the sources, by the name it calls."""
    return {name: [call for call, _ in sites] for name, sites in _call_sites(trees).items()}


def _is_default(arg, default) -> bool:
    """Whether ``arg`` is the default's own literal, which sets nothing."""
    try:
        value, fallback = ast.literal_eval(arg), ast.literal_eval(default)
    except ValueError:
        return False
    return (type(value), value) == (type(fallback), fallback)


def _passes(call: ast.Call, param: str, position, default) -> bool:
    if any(k.arg is None for k in call.keywords):  # a ** unpacking
        return True
    if any(k.arg == param and not _is_default(k.value, default) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return (position is not None and position < len(call.args)
            and not _is_default(call.args[position], default))


def unset_parameters(src: Path = SRC, readme: Path = ROOT / "README.md",
                     tests: Path = TESTS) -> list[str]:
    """Defaulted parameters that no caller passes.

    The callers of an internal function are the calls in ``src/``; those of a
    public one, which ``__init__.py`` exports or ``README.md`` names, are the
    calls in ``src/`` and ``tests/``.  A constructor's calls are those of its
    class.
    """
    trees = _trees(src)
    public = _public(trees, readme)
    src_calls = _calls(trees.values())
    test_calls = _calls(ast.parse(path.read_text()) for path in sorted(tests.glob("*.py")))
    out = []
    for module, tree in trees.items():
        for qualname, fn in _functions(tree):
            name = fn.name
            if _is_criterion(fn):
                continue
            if name.startswith("__") and name.endswith("__") and name != "__init__":
                continue
            called = _call_name(qualname)
            calls = src_calls.get(called, [])
            if name in public:
                calls = calls + test_calls.get(called, [])
            for param, position, default in _defaulted(fn, "." in qualname):
                if not any(_passes(c, param, position, default) for c in calls):
                    out.append(f"{module}:{qualname.replace('.__init__', '')}({param})")
    return out


def test_every_defaulted_parameter_is_set_by_a_caller():
    assert sorted(unset_parameters()) == sorted(KEPT_PARAMETERS)


def test_an_unset_parameter_is_reported(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import exported\n")
    (tmp_path / "a.py").write_text(
        "def exported(x=1):\n    return helper(2, 5, by_key=3) + K(4).twice()\n\n"
        "def helper(a, by_position=0, by_key=0, *, never=0):\n    return a\n\n"
        "def documented(knob=0):\n    pass\n\n"
        "class K:\n    def __init__(self, x, y=0):\n        self.x = x\n\n"
        "    def twice(self, times=2):\n        return self.x * times\n\n"
        "    @staticmethod\n    def make(n=1):\n        return K(n)\n")
    readme = tmp_path / "README.md"
    readme.write_text("`documented` is public API.\n")
    tests = tmp_path / "tests"
    tests.mkdir()
    assert unset_parameters(tmp_path, readme, tests) == [
        "a.py:exported(x)", "a.py:helper(never)", "a.py:documented(knob)", "a.py:K(y)",
        "a.py:K.twice(times)", "a.py:K.make(n)"]
    # a test's call counts for a public function only
    (tests / "test_a.py").write_text("exported(x=2)\nhelper(1, never=1)\n")
    assert unset_parameters(tmp_path, readme, tests) == [
        "a.py:helper(never)", "a.py:documented(knob)", "a.py:K(y)", "a.py:K.twice(times)",
        "a.py:K.make(n)"]
    # a call that passes the default's literal, by keyword or by position, sets nothing
    (tests / "test_a.py").write_text("exported(1)\ndocumented(knob=0)\n")
    assert unset_parameters(tmp_path, readme, tests) == [
        "a.py:exported(x)", "a.py:helper(never)", "a.py:documented(knob)", "a.py:K(y)",
        "a.py:K.twice(times)", "a.py:K.make(n)"]


# returned tuple positions kept although no caller reads them, each with its reason
KEPT_RETURNS = {
    # the returned parity is the tests' only view of the parity= constraint
    "freefermion.py:ground_covariance[2]",
}


def _returned_width(fn) -> int:
    """The length of the longest tuple literal ``fn`` returns; 0 if it returns none."""
    def returns(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Return):
                yield child
            elif not isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from returns(child)

    return max((len(r.value.elts) for r in returns(fn) if isinstance(r.value, ast.Tuple)),
               default=0)


def _reads(call: ast.Call, parent, width: int) -> set[int]:
    """The positions of a returned tuple that one call site reads: all but those it
    unpacks into ``_``, the one it indexes, or all for any other use."""
    if (isinstance(parent, ast.Assign) and len(parent.targets) == 1
            and isinstance(parent.targets[0], (ast.Tuple, ast.List))
            and not any(isinstance(e, ast.Starred) for e in parent.targets[0].elts)):
        return {i for i, e in enumerate(parent.targets[0].elts)
                if not (isinstance(e, ast.Name) and e.id == "_")}
    if (isinstance(parent, ast.Subscript) and parent.value is call
            and isinstance(parent.slice, ast.Constant) and isinstance(parent.slice.value, int)):
        return {parent.slice.value % width}
    return set(range(width))


def unread_returns(src: Path = SRC, readme: Path = ROOT / "README.md",
                   tests: Path = TESTS) -> list[str]:
    """Positions of a returned tuple that no caller reads, counting callers as
    :func:`unset_parameters` does."""
    trees = _trees(src)
    public = _public(trees, readme)
    src_sites = _call_sites(trees.values())
    test_sites = _call_sites(ast.parse(path.read_text()) for path in sorted(tests.glob("*.py")))
    out = []
    for module, tree in trees.items():
        for qualname, fn in _functions(tree):
            width = _returned_width(fn)
            if not width or _exempt(fn):
                continue
            called = _call_name(qualname)
            sites = src_sites.get(called, [])
            if fn.name in public:
                sites = sites + test_sites.get(called, [])
            read = set().union(*(_reads(call, parent, width) for call, parent in sites))
            out += [f"{module}:{qualname}[{i}]" for i in range(width) if i not in read]
    return out


def test_every_returned_position_is_read_by_a_caller():
    assert sorted(unread_returns()) == sorted(KEPT_RETURNS)


def test_an_unread_returned_position_is_reported(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import exported\n")
    (tmp_path / "a.py").write_text(
        "def exported():\n    x, _ = pair()\n    return indexed()[1] + whole() + x\n\n"
        "def pair():\n    return 1, 2\n\n"
        "def indexed():\n    if True:\n        return 1, 2, 3\n    return None\n\n"
        "def whole():\n    def inner():\n        return 1, 2\n    return inner()\n\n"
        "class K:\n    def both(self):\n        return 1, 2\n\n"
        "def bare():\n    return 1\n")
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_a.py").write_text("_, y = pair()\n")
    readme = tmp_path / "README.md"
    readme.write_text("`exported` is public API.\n")
    # a test's call counts for a public function only, and nothing calls K.both
    assert unread_returns(tmp_path, readme, tests) == [
        "a.py:pair[1]", "a.py:indexed[0]", "a.py:indexed[2]", "a.py:K.both[0]", "a.py:K.both[1]"]
    readme.write_text("`pair` is public API.\n")
    assert unread_returns(tmp_path, readme, tests) == [
        "a.py:indexed[0]", "a.py:indexed[2]", "a.py:K.both[0]", "a.py:K.both[1]"]


# the only functions that may name each Hermiticity check: check_hermitian where a
# matrix enters a state, map or witness, and on the generator kinetic.symmetrize
# computes; require_hermitian on each assembled Hamiltonian.  Nothing derived from
# a validated object is checked again.
HERMITIAN_CHECK_CALLERS = {
    "check_hermitian": {"states.py:DensityMatrix.__init__", "measures.py:QuantumMap.__init__",
                        "measures.py:Witness.__init__", "kinetic.py:symmetrize"},
    "require_hermitian": {"chains.py:SpinHamiltonian.operator", "chains.py:thermal_state"},
}


def callers(names, src: Path = SRC) -> dict[str, set[str]]:
    """For each of ``names``, the top-level functions and methods that read it;
    ``<module>`` stands for a module-level statement other than an import."""
    out = {name: set() for name in names}
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = list(_functions(tree)) + [
            ("<module>", node) for node in tree.body if not isinstance(
                node, (ast.FunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom))]
        for qualname, node in scopes:
            refs = _references(node)
            for name in names:
                if refs[name]:
                    out[name].add(f"{path.name}:{qualname}")
    return out


def test_each_matrix_is_checked_for_hermiticity_where_it_enters():
    assert callers(HERMITIAN_CHECK_CALLERS) == HERMITIAN_CHECK_CALLERS


def test_a_hermiticity_check_on_a_derived_matrix_is_reported(tmp_path):
    (tmp_path / "a.py").write_text(
        "from .linalg import check_hermitian\n\n"
        "class State:\n    def __init__(self, m):\n        self.m = check_hermitian(m)\n\n"
        "def negativity(s):\n    return eig(check_hermitian(s.m.T))\n\n"
        "CHECK = check_hermitian\n")
    assert callers(["check_hermitian", "require_hermitian"], tmp_path) == {
        "check_hermitian": {"a.py:State.__init__", "a.py:negativity", "a.py:<module>"},
        "require_hermitian": set()}


# the only function that diagonalizes a map's Choi matrix after construction: Kraus
# extraction needs the eigenvectors.  Every other reader takes the spectrum a
# QuantumMap keeps from its one eigvalsh.
CHOI_EIGENSOLVERS = {"measures.py:kraus_operators"}


def choi_eigensolvers(src: Path = SRC) -> set[str]:
    """The top-level functions and methods that pass some ``<x>.choi`` to ``eigh`` or
    ``eigvalsh``, by position or by keyword."""
    out = set()
    for path in sorted(src.glob("*.py")):
        for qualname, fn in _functions(ast.parse(path.read_text())):
            calls = _calls([fn])
            for call in calls.get("eigh", []) + calls.get("eigvalsh", []):
                if any(isinstance(a, ast.Attribute) and a.attr == "choi"
                       for a in call.args + [k.value for k in call.keywords]):
                    out.add(f"{path.name}:{qualname}")
    return out


def test_only_kraus_extraction_diagonalizes_a_choi_matrix_again():
    assert choi_eigensolvers() == CHOI_EIGENSOLVERS


def test_a_repeated_choi_eigensolve_is_reported(tmp_path):
    (tmp_path / "a.py").write_text(
        "import numpy as np\nfrom numpy.linalg import eigh\n\n"
        "class Map:\n    def __init__(self, choi):\n        self.w = np.linalg.eigvalsh(choi)\n\n"
        "    def again(self):\n        return np.linalg.eigvalsh(self.choi)\n\n"
        "def kraus(q):\n    return eigh(q.choi)\n\n"
        "def by_keyword(q):\n    return np.linalg.eigvalsh(a=q.choi)\n\n"
        "def of_a_state(rho):\n    return np.linalg.eigvalsh(rho.matrix)\n")
    assert choi_eigensolvers(tmp_path) == {"a.py:Map.again", "a.py:kraus", "a.py:by_keyword"}
