import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import fwflow

MODULES = ["fwflow"] + [f"fwflow.{m.name}" for m in pkgutil.iter_modules(fwflow.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    # a deletion must not leave a dead name behind in __all__
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ lists undefined names {missing}"


@pytest.mark.parametrize("path", sorted(Path(fwflow.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_module_rebinds_an_outer_name(path):
    # a routine bound at run time lives on the object that calls it, not in a global that a
    # function rebinds, so what a module holds is what its source says at import
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, (ast.Global, ast.Nonlocal))]
    assert not lines, f"{path.name} has a global or nonlocal statement at lines {lines}"


# the functions that run once per step, stage or zig-zag window, by module and qualified name
PER_STEP = {
    "solvers.py": ["run", "_stages", "_descent_gamma"],
    "geometry.py": [f"{cls}.{name}" for cls in ("VertexHull", "Box", "L1Ball", "NuclearBall")
                    for name in ("lmo", "violation")],
    "objectives.py": ["QuadraticDistance.value", "MatrixHuber.value"]
    + [f"{cls}.{name}" for cls in ("LeastSquares", "LogisticLoss")
       for name in ("_product", "_gradient_from", "value")],
    "diagnostics.py": ["zigzag_energy"],
}


def _functions(tree, prefix=""):
    """(qualified name, node) of every function in tree, methods named Class.method."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = prefix + node.name
            if isinstance(node, ast.FunctionDef):
                yield name, node
            yield from _functions(node, name + ".")


# numpy functions whose fromnumeric Python wrapper only calls the array method of that name
_WRAPPERS = {"argmax", "argmin", "all", "any"}


def _slow_dispatch(node) -> bool:
    """True for a @, a .sum() call, or a call to np.argmax, np.argmin, np.all or np.any."""
    if isinstance(getattr(node, "op", None), ast.MatMult):
        return True
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    func = node.func
    return func.attr == "sum" or (func.attr in _WRAPPERS and isinstance(func.value, ast.Name)
                                  and func.value.id == "np")


@pytest.mark.parametrize("module", sorted(PER_STEP))
def test_per_step_code_calls_dot_and_add_reduce(module):
    # ndarray.dot and np.add.reduce make @'s BLAS calls and .sum()'s pairwise sums, bit for
    # bit, without @'s dispatch or .sum()'s Python wrapper, and a.argmax() is np.argmax(a)
    # without its wrapper; each of these costs more than the arithmetic on a step's arrays
    path = Path(fwflow.__file__).parent / module
    found = dict(_functions(ast.parse(path.read_text(), filename=str(path))))
    for name in PER_STEP[module]:
        uses = [node.lineno for node in ast.walk(found[name]) if _slow_dispatch(node)]
        assert not uses, (f"{module}:{name} uses @, .sum(), np.argmax, np.argmin, np.all or "
                          f"np.any at lines {uses}")


def _refuses_booleans(node) -> bool:
    """True for isinstance(..., bool) or isinstance(..., (..., bool, ...)), np.bool_ included."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2):
        return False
    kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
    return any(getattr(kind, "id", getattr(kind, "attr", None)) in ("bool", "bool_")
               for kind in kinds)


# the range guards written out by hand: _number's, and those run once per step or per time,
# where a _number call would cost more than the arithmetic it guards
_RANGE_GUARDS = {"tableau.py:_number", "solvers.py:StepSchedule.gamma", "solvers.py:step",
                 "diagnostics.py:continuous_bound"}


def _range_guards(path, functions):
    """module:function of each line of path that says "positive and finite" or "and finite, got",
    the function being the innermost one around it."""
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        if "positive and finite" in line or "and finite, got" in line:
            around = [(node.lineno, name) for name, node in functions
                      if node.lineno <= lineno <= node.end_lineno]
            yield f"{path.name}:{max(around, default=(0, '<module>'))[1]}"


def test_one_number_rule():
    # every number a caller gives (a setting, a size, a seed, a tableau entry, a scalar
    # argument) is read by tableau._number, the one place that refuses a boolean and checks a
    # range; a second reader or a hand-written range check would fork the rule
    readers, checks, guards = [], [], set()
    for path in sorted(Path(fwflow.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        functions = list(_functions(tree))
        readers += [f"{path.name}:{name}" for name, node in functions
                    if name.rpartition(".")[2] in ("_number", "_size", "_check_c")]
        checks += [path.name] * sum(map(_refuses_booleans, ast.walk(tree)))
        guards.update(_range_guards(path, functions))
    assert readers == ["tableau.py:_number"], f"number readers {readers}"
    assert guards <= _RANGE_GUARDS, f"range guards outside _number {guards - _RANGE_GUARDS}"
    assert checks == ["tableau.py"], f"isinstance(..., bool) in {checks}"
    path = Path(fwflow.__file__).parent / "tableau.py"
    number = dict(_functions(ast.parse(path.read_text(), filename=str(path))))["_number"]
    assert any(map(_refuses_booleans, ast.walk(number))), "tableau._number accepts booleans"


def test_one_runner_in_the_cli():
    # run, sweep, zigzag and preset run and write through cli._runs, which calls the module
    # global run_solver (that a caller may replace by name) at its one site, passing audit=;
    # only fwflow bound, which runs no solver, writes a file of its own
    path = Path(fwflow.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    functions = list(_functions(tree))
    sites = {}  # called name -> the innermost function around each call of it
    for call in (node for node in ast.walk(tree) if isinstance(node, ast.Call)):
        callee = getattr(call.func, "id", getattr(call.func, "attr", None))
        around = [(node.lineno, name) for name, node in functions
                  if node.lineno <= call.lineno <= node.end_lineno]
        sites.setdefault(callee, []).append(max(around, default=(0, "<module>"))[1])
    uses = [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "run_solver"]
    assert sites.get("run_solver") == ["_runs"] and len(uses) == 1, f"run_solver at {uses}"
    # and that one call decides which runs are audited
    call = next(node for node in ast.walk(tree)
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "run_solver")
    assert "audit" in [keyword.arg for keyword in call.keywords], "run_solver without audit="
    writers = set(sites.get("to_csv", []) + sites.get("_write_rows", []))
    assert writers <= {"_runs", "_cmd_bound"}, f"files written in {writers}"
    gone = {"_zigzag_table", "_plans", "_trajectories"} & {name for name, _ in functions}
    assert not gone, f"second runners {gone}"
