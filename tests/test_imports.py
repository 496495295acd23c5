"""Stand-ins for a linter's unused-import, dead-code and unused-option rules, for a rule
that keeps the optimizer's input checks in one function, for one that keeps tolerance
guards NaN-safe, for one that keeps reductions array methods, for one that finds a
parameter every caller sets alike, for one that finds a result every caller reads one
item of and for one that keeps the library on the standard library and numpy, built on
the standard library's ``ast``."""

import ast
import sys
from collections import defaultdict
from pathlib import Path

import qmask
from helpers import library_tour

ROOT = Path(__file__).resolve().parents[1]
# public names that no pipeline, benchmark or README tour reads, each kept for a reason
UNREAD_PUBLIC_NAMES = {
    "build_distinct_spectrum": "the paper's fixed reducing family for a non-degenerate spectrum",
    "dual_bound": "re-checks any certificate from its dual point alone",
    "uniform_feasibility_boundary": "the closed-form feasibility limit of equal efficiencies",
}
# public fields, properties and methods of public classes that nothing above reads
UNREAD_PUBLIC_ATTRIBUTES = {
    "MaskingOutcome.post_selected_state": "the post-selected output state, the masking's "
                                          "physical result",
}


def unused_imports(source: str) -> list[str]:
    """Names an import binds that no expression in ``source`` reads, with their lines."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def read_names(node: ast.AST) -> set[str]:
    """Names read anywhere under ``node``, bare or as an attribute."""
    return {
        child.id if isinstance(child, ast.Name) else child.attr
        for child in ast.walk(node)
        if isinstance(child, (ast.Name, ast.Attribute)) and isinstance(child.ctx, ast.Load)
    }


def _definitions(node: ast.stmt) -> list[str]:
    """The ``_private`` function or class, or the UPPER_CASE constants, a statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        private = node.name.startswith("_") and not node.name.startswith("__")
        return [node.name] if private else []
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()]
    return []


def unread_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level ``_private`` functions and classes and UPPER_CASE constants that
    no module in ``sources`` reads, by bare name or as an attribute, outside their
    own definition."""
    defined, read = [], set()
    for module, source in sources.items():
        for statement in ast.parse(source).body:
            names = _definitions(statement)
            defined.extend((module, name, statement.lineno) for name in names)
            read |= read_names(statement) - set(names)
    return [f"{module}: {name} (line {line})" for module, name, line in defined
            if name not in read]


def test_scanner_finds_unread_definitions():
    sources = {
        "a": ("LIMIT = 1\nUNUSED = 2\nSCALE: float = 3.0\n__all__ = ['run']\n"
              "def _helper():\n    return LIMIT\n"
              "def _orphan():\n    return _orphan()\n"
              "class _Unused:\n    pass\n"
              "def run():\n    return _helper()\n"),
        "b": "import a\nvalue = a.SCALE\n",
    }
    assert unread_definitions(sources) == [
        "a: UNUSED (line 2)", "a: _orphan (line 7)", "a: _Unused (line 9)"]


def test_no_private_helper_or_constant_goes_unread():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src" / "qmask").glob("*.py"))}
    assert unread_definitions(sources) == []


def public_definitions(source: str) -> set[str]:
    """The public functions and classes a module defines at its top level."""
    return {
        node.name for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }


def pipeline_sources() -> tuple[list[str], list[str]]:
    """The library's modules (its re-exports aside), and every source that reads the library:
    those modules, the benchmark's harness and the README tour."""
    library = [path.read_text(encoding="utf-8")
               for path in (ROOT / "src" / "qmask").glob("*.py") if path.name != "__init__.py"]
    harness = [path.read_text(encoding="utf-8") for path in (ROOT / "perfbench").glob("*.py")]
    return library, [*library, *harness, library_tour()]


def test_every_public_name_is_read_or_kept_for_a_reason():
    library, readers = pipeline_sources()
    read = set().union(*(read_names(ast.parse(source)) for source in readers))
    # the exports, and every public function and class of a module, exported or not
    public = set(qmask.__all__).union(*map(public_definitions, library))
    # equality also keeps the exceptions current: each must be public and unread
    assert {name for name in public if name not in read} == set(UNREAD_PUBLIC_NAMES)


def public_attributes(source: str) -> set[str]:
    """``Class.name`` for each public field, property and method of a module's public classes."""
    found = set()
    for node in ast.parse(source).body:
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                name = item.target.id
            elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = item.name
            else:
                continue
            if not name.startswith("_"):
                found.add(f"{node.name}.{name}")
    return found


def unread_attributes(definitions: list[str], readers: list[str]) -> set[str]:
    """Public attributes of the classes in ``definitions`` whose name no source in
    ``readers`` reads, bare or as an attribute."""
    read = set().union(*(read_names(ast.parse(source)) for source in readers))
    attributes = set().union(*map(public_attributes, definitions))
    return {attribute for attribute in attributes if attribute.split(".")[1] not in read}


def test_scanner_finds_unread_attributes():
    definitions = ["@dataclass\nclass Report:\n    passed: bool\n    detail: str\n"
                   "    _cache: int = 0\n    limit = 3\n"
                   "    @property\n    def margin(self):\n        return 0\n"
                   "    def describe(self):\n        return self.detail\n"
                   "class _Hidden:\n    unused: int\n"]
    readers = [*definitions, "def check(report):\n    return report.passed and report.margin\n"]
    assert unread_attributes(definitions, readers) == {"Report.describe"}


def test_every_public_attribute_is_read_or_kept_for_a_reason():
    library, readers = pipeline_sources()
    # equality also keeps the exceptions current: each must be public and unread
    assert unread_attributes(library, readers) == set(UNREAD_PUBLIC_ATTRIBUTES)


def defaulted_parameters(source: str) -> dict[tuple[str, str], int | None]:
    """Each defaulted parameter of a public top-level function, with its position
    (None for a keyword-only one)."""
    found = {}
    for node in ast.parse(source).body:
        function = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        if function and not node.name.startswith("_"):
            positional = [*node.args.posonlyargs, *node.args.args]
            first = len(positional) - len(node.args.defaults)
            for index in range(first, len(positional)):
                found[node.name, positional[index].arg] = index
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    found[node.name, arg.arg] = None
    return found


def unset_defaults(definitions: list[str], callers: list[str]) -> list[str]:
    """Defaulted parameters of the public top-level functions in ``definitions`` that no
    call in ``callers`` (by bare name or as an attribute) sets by keyword or by position."""
    unset = {}
    for source in definitions:
        unset.update(defaulted_parameters(source))
    for source in callers:
        for call in ast.walk(ast.parse(source)):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            keywords = {keyword.arg for keyword in call.keywords}  # None for **mapping
            starred = any(isinstance(arg, ast.Starred) for arg in call.args)
            for function, parameter in [key for key in unset if key[0] == name]:
                index = unset[function, parameter]
                if (parameter in keywords or None in keywords or starred
                        or index is not None and index < len(call.args)):
                    del unset[function, parameter]
    return [f"{function}({parameter})" for function, parameter in unset]


def test_scanner_finds_unset_defaults():
    definitions = ["def build(inputs, targets=None, scale=1.0, *, tol=1e-9, mode):\n    pass\n"
                   "def load(path, strict=False):\n    pass\n"
                   "def _private(flag=True):\n    pass\n"
                   "class Masker:\n    def apply(self, copy=False):\n        pass\n"]
    callers = ["import lib\nbuild(a, b)\nlib.build(a, tol=0.1, mode=1)\n",
               "load(*paths)\n"]
    assert unset_defaults(definitions, callers) == ["build(scale)"]
    assert unset_defaults(definitions, [*callers, "build(a, **options)\n"]) == []


def test_every_default_is_set_by_some_caller():
    # a keyword that every caller leaves at its default is not an option
    library, readers = pipeline_sources()
    assert unset_defaults(library, readers) == []


def signatures(sources: list[str]) -> dict[str, list[str]]:
    """The parameters a call can set, in positional order, of each function or class defined
    once in ``sources``: a class's are its ``__init__``'s, and a method's omit ``self``."""
    found, definitions = {}, defaultdict(int)
    for source in sources:
        tree = ast.parse(source)
        owners = {item: node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                  for item in node.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            bound = node in owners and not static
            name = owners[node] if bound and node.name == "__init__" else node.name
            arguments = [*node.args.posonlyargs, *node.args.args][bound:] + node.args.kwonlyargs
            found[name] = [argument.arg for argument in arguments]
            definitions[name] += 1
    return {name: parameters for name, parameters in found.items() if definitions[name] == 1}


def literal_source(node: ast.expr | None) -> str | None:
    """The source of ``node`` where it is a literal, else None."""
    try:
        ast.literal_eval(node)
    except (ValueError, TypeError):
        return None
    return ast.unparse(node)


def uniform_arguments(sources: list[str]) -> list[str]:
    """``function(parameter) = literal`` for each parameter that two or more calls in
    ``sources`` of a function defined there all set to one literal, by position or keyword."""
    parameters = signatures(sources)
    passed = defaultdict(list)
    for source in sources:
        for call in ast.walk(ast.parse(source)):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            if name not in parameters:
                continue
            # a starred argument or a **mapping may set any parameter
            opaque = (any(isinstance(argument, ast.Starred) for argument in call.args)
                      or any(keyword.arg is None for keyword in call.keywords))
            given = dict(zip(parameters[name], call.args))
            given.update((keyword.arg, keyword.value) for keyword in call.keywords)
            for parameter in parameters[name]:
                value = None if opaque else literal_source(given.get(parameter))
                passed[name, parameter].append(value)
    return sorted(f"{name}({parameter}) = {values[0]}"
                  for (name, parameter), values in passed.items()
                  if len(values) > 1 and values[0] is not None and len(set(values)) == 1)


def test_scanner_finds_uniform_arguments():
    definitions = ("def scale(values, factor, *, label='x'):\n    return values\n"
                   "class Box:\n    def __init__(self, size, fill):\n        self.size = size\n"
                   "    def grow(self, by):\n        return by\n"
                   "    @staticmethod\n    def make(size, fill):\n        return size, fill\n"
                   "def once(flag):\n    return flag\n")
    callers = ("import a\na.scale(x, 2, label='y')\nscale(y, factor=2, label='y')\n"
               "Box(3, 0)\nBox(size=4, fill=0)\nbox.grow(1)\nbox.grow(1.0)\n"
               "Box.make(1, True)\nBox.make(1, 1)\nonce(True)\n")
    assert uniform_arguments([definitions, callers]) == [
        "Box(fill) = 0", "make(size) = 1", "scale(factor) = 2", "scale(label) = 'y'"]
    assert uniform_arguments([definitions, callers, "scale(z, **options)\n"]) == [
        "Box(fill) = 0", "make(size) = 1"]


def test_no_parameter_is_set_alike_by_every_caller():
    # a value every caller passes is a constant, not a parameter
    sources = [path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src" / "qmask").glob("*.py"))]
    assert uniform_arguments(sources) == []


def uniform_subscripts(sources: list[str]) -> list[str]:
    """``function(...)[index]`` for each private function defined in ``sources`` that is
    read there only in calls all subscripted by one literal ``index``."""
    private = {node.name for source in sources for node in ast.walk(ast.parse(source))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name.startswith("_")}
    indices = defaultdict(list)
    for source in sources:
        tree = ast.parse(source)
        # the index each subscripted call is read at, by the call's function node
        read_at = {id(node.value.func): literal_source(node.slice) for node in ast.walk(tree)
                   if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Call)}
        for node in ast.walk(tree):
            name = getattr(node, "id", getattr(node, "attr", None))
            if name in private and isinstance(getattr(node, "ctx", None), ast.Load):
                indices[name].append(read_at.get(id(node)))
    return sorted(f"{name}(...)[{values[0]}]" for name, values in indices.items()
                  if values[0] is not None and len(set(values)) == 1)


def test_scanner_finds_uniform_subscripts():
    definitions = ("def _pair():\n    return 1, 2\n"
                   "def _split():\n    return 1, 2\n"
                   "def _last():\n    return 1, 2\n"
                   "def _whole():\n    return 1, 2\n"
                   "def _passed():\n    return 1, 2\n"
                   "def _sliced():\n    return 1, 2\n")
    callers = ("a = _pair()[0] + module._pair()[0]\n"
               "b = _split()[0] + _split()[1]\n"
               "c = self._last()[-1]\n"
               "d = _whole()[0]\ne = _whole()\n"
               "f = _passed()[0]\ng = sorted(values, key=_passed)\n"
               "h = _sliced()[:1]\n")
    assert uniform_subscripts([definitions, callers]) == ["_last(...)[-1]", "_pair(...)[0]"]


def test_no_private_result_is_read_at_one_index_alone():
    # a result of which every caller reads one item computes the rest for nobody
    sources = [path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src" / "qmask").glob("*.py"))]
    assert uniform_subscripts(sources) == []


def input_policy_faults(source: str) -> list[str]:
    """Where a module checks a masking problem outside ``_solve_inputs``: a call of
    ``hermitian_matrix`` or ``square_matrix`` anywhere else, or a public function of
    (A, X_P, ...) that reaches ``_solve_inputs`` through none of the module's functions."""
    faults, calls, public = [], {}, []
    for node in ast.parse(source).body:
        called = {getattr(call.func, "id", getattr(call.func, "attr", None))
                  for call in ast.walk(node) if isinstance(call, ast.Call)}
        name = getattr(node, "name", f"line {node.lineno}")
        if name != "_solve_inputs":
            faults.extend(f"{name} calls {check}"
                          for check in sorted(called & {"hermitian_matrix", "square_matrix"}))
        if isinstance(node, ast.FunctionDef):
            calls[name] = called
            if not name.startswith("_") and [a.arg for a in node.args.args[:2]] == ["A", "X_P"]:
                public.append(name)
    checked = {"_solve_inputs"}
    while reached := {name for name, called in calls.items() if called & checked} - checked:
        checked |= reached
    return faults + [f"{name} does not reach _solve_inputs" for name in public
                     if name not in checked]


def test_scanner_finds_a_second_input_policy():
    source = ("from hilbert import hermitian_matrix, square_matrix\n"
              "def _solve_inputs(A, X_P):\n    return hermitian_matrix(A), hermitian_matrix(X_P)\n"
              "def solve(A, X_P):\n    return _solve_inputs(A, X_P)\n"
              "def residual(A, X_P, gammas):\n    return square_matrix(A)\n"
              "def feasible(A, X_P, gammas):\n    return residual(A, X_P, gammas)\n"
              "def _helper(a, x):\n    return solve(a, x)\n"
              "def bound(A, X_P):\n    return _helper(A, X_P)\n"
              "def other(A, X):\n    return A\n"
              "CHECKED = hermitian_matrix(1)\n")
    assert input_policy_faults(source) == [
        "residual calls square_matrix", "line 16 calls hermitian_matrix",
        "residual does not reach _solve_inputs", "feasible does not reach _solve_inputs"]


def test_optimizer_checks_its_inputs_in_one_place():
    source = (ROOT / "src" / "qmask" / "optimizer.py").read_text(encoding="utf-8")
    assert input_policy_faults(source) == []


# names of the thresholds a guard compares against: NORM_TOL, VERIFY_CEILING, floor, tolerance
TOLERANCE_SUFFIXES = ("_TOL", "CEILING", "floor", "tolerance")


def nan_blind_guards(source: str) -> list[str]:
    """Lines of each ``if`` whose body raises and whose test is a bare comparison with a
    tolerance: ``if error > TOL: raise`` lets a NaN error through, ``if not error <= TOL``
    does not."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
                and any(isinstance(statement, ast.Raise) for statement in node.body)):
            continue
        operands = [node.test.left, *node.test.comparators]
        names = [getattr(operand, "id", getattr(operand, "attr", "")) for operand in operands]
        if any(name.endswith(TOLERANCE_SUFFIXES) for name in names):
            found.append(f"line {node.lineno}")
    return found


def test_scanner_finds_nan_blind_guards():
    source = ("def check(error, floor, limits):\n"
              "    if error > NORM_TOL:\n        raise ValueError(error)\n"
              "    if not error <= NORM_TOL:\n        raise ValueError(error)\n"
              "    if limits.tolerance < error:\n        raise ValueError(error)\n"
              "    if error > floor:\n        return False\n"
              "    if error > 1e-9:\n        raise ValueError(error)\n"
              "    if abs(error) >= VERIFY_CEILING:\n        log(error)\n        raise ValueError\n")
    assert nan_blind_guards(source) == ["line 2", "line 6", "line 12"]


def test_tolerance_guards_let_no_nan_through():
    found = {path.name: faults for path in sorted((ROOT / "src" / "qmask").glob("*.py"))
             if (faults := nan_blind_guards(path.read_text(encoding="utf-8")))}
    assert found == {}


# numpy's module-level wrappers whose array method, broadcast or ``np.vdot`` computes the
# same without their dispatch, about 1.4 us a call on the solver's n <= 8 arrays
NUMPY_WRAPPERS = {"max", "min", "sum", "prod", "all", "any", "outer", "einsum"}


def wrapper_calls(source: str) -> list[str]:
    """Each call of a wrapper in NUMPY_WRAPPERS through ``np`` or ``numpy``, with its line:
    ``np.max(x)`` is flagged, ``x.max()``, ``np.maximum(x, y)`` and ``max(a, b)`` are not."""
    calls = [
        (node.lineno, f"{node.func.value.id}.{node.func.attr}")
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name) and node.func.value.id in ("np", "numpy")
        and node.func.attr in NUMPY_WRAPPERS
    ]
    return [f"line {line}: {name}" for line, name in sorted(calls)]


def test_scanner_finds_wrapper_calls():
    source = ("import numpy\nimport numpy as np\n"
              "def check(x, g, p, c):\n"
              "    worst = float(np.max(np.abs(x)))\n"
              "    if x.max() > max(worst, 1.0) or np.maximum.reduce(x)[0]:\n"
              "        return np.outer(g, g), np.einsum('ij,ij->', p, c.conj())\n"
              "    total = numpy.sum(x, axis=0) + np.linalg.norm(x) + x.sum()\n"
              "    return np.all(x > 0) and (x < total).any() and np.vdot(c, p)\n")
    assert wrapper_calls(source) == [
        "line 4: np.max", "line 6: np.einsum", "line 6: np.outer", "line 7: numpy.sum",
        "line 8: np.all"]


def test_reductions_are_array_methods():
    found = {path.name: calls for path in sorted((ROOT / "src" / "qmask").glob("*.py"))
             if (calls := wrapper_calls(path.read_text(encoding="utf-8")))}
    assert found == {}


def foreign_imports(source: str) -> list[str]:
    """Each absolute import of a module outside the standard library and numpy, with its line;
    relative imports stay inside the package."""
    modules = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.append((node.lineno, node.module))
    return [f"line {line}: {name}" for line, name in modules
            if name.split(".")[0] not in sys.stdlib_module_names | {"numpy"}]


def test_scanner_finds_foreign_imports():
    source = ("from __future__ import annotations\nimport math, scipy.linalg\n"
              "from fractions import Fraction\nimport numpy.linalg as la\n"
              "from . import hilbert\nfrom .hilbert import gram\n"
              "def high_precision():\n    from mpmath import mp\n    return mp\n")
    assert foreign_imports(source) == ["line 2: scipy.linalg", "line 8: mpmath"]


def test_library_imports_only_the_standard_library_and_numpy():
    found = {path.name: imports for path in sorted((ROOT / "src" / "qmask").glob("*.py"))
             if (imports := foreign_imports(path.read_text(encoding="utf-8")))}
    assert found == {}


def test_scanner_finds_unused_imports():
    source = ("from __future__ import annotations\nimport os\nimport os.path as osp\n"
              "import importlib.util\nfrom json import dumps as encode, loads\n"
              "importlib.util.find_spec(encode(osp))\n")
    assert unused_imports(source) == ["os (line 2)", "loads (line 5)"]


def test_no_module_imports_a_name_it_never_reads():
    # __init__.py imports names only to re-export them
    paths = [*(ROOT / "src" / "qmask").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    found = {
        str(path.relative_to(ROOT)): unused
        for path in sorted(paths)
        if path.name != "__init__.py"
        and (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}
