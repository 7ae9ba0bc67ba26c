"""Library hygiene, read from the source with `ast`: every module in the
grammar of the oldest Python that `requires-python` admits, no unused
import, no import inside a function body, no module-level private name
that the library itself never refers to, no public name that only the
tests use, no module-level mutable container, no bare builtin error
raised outside `placements`, no restatement of the species split or of a
pair's length check outside `molecules`, no instance dict on a molecule,
and no `Fraction` in an interface solve's integer prices."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from chiralattice.molecules import Molecule, R

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "chiralattice"
TREES = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
# the code that uses the library, tests aside
USERS = [
    ast.parse(path.read_text())
    for folder in (SRC, ROOT / "bench", ROOT / "demos")
    for path in sorted(folder.glob("*.py"))
]


def _references(tree: ast.AST) -> set[str]:
    """Names read as variables or attributes anywhere in the tree, and the
    names that an `__all__` list re-exports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            out.update(ast.literal_eval(node.value))
    return out


def _bound_imports(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, name) for every name an import statement binds."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    return out


def _private_definitions(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) for every module-level `_name` (dunders excepted)."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        out.extend(
            (node.lineno, name) for name in names
            if name.startswith("_") and not name.startswith("__")
        )
    return out


@pytest.mark.parametrize("module", sorted(TREES))
def test_modules_parse_as_python_3_10(module):
    """`requires-python = ">=3.10"`: no module uses later syntax, such as
    `except*` or a type alias statement, that the 3.10 grammar refuses."""
    ast.parse((SRC / module).read_text(), filename=module, feature_version=(3, 10))


@pytest.mark.parametrize("module", sorted(set(TREES) - {"__init__.py"}))
def test_every_import_is_used(module):
    tree = TREES[module]
    used = _references(tree)
    unused = [
        f"{module}:{line} {name}" for line, name in _bound_imports(tree) if name not in used
    ]
    assert not unused, unused


def test_imports_are_at_module_level():
    """Every import is stated once at the top of its module, where the
    unused-import check sees it; none hides inside a function body."""
    nested = [
        f"{module}:{node.lineno} in {func.name}"
        for module, tree in TREES.items()
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not nested, nested


def test_every_private_name_is_referenced_in_the_library():
    library = set().union(*map(_references, TREES.values()))
    unreferenced = [
        f"{module}:{line} {name}"
        for module, tree in TREES.items()
        for line, name in _private_definitions(tree)
        if name not in library
    ]
    assert not unreferenced, unreferenced


def _public_definitions(tree: ast.Module) -> list[tuple[int, str, bool]]:
    """(line, name, is_method) for every public module-level function or
    class and every public method of a module-level class."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.lineno, node.name, False))
        if isinstance(node, ast.ClassDef):
            out.extend(
                (item.lineno, f"{node.name}.{item.name}", True) for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
    return [d for d in out if not d[1].rpartition(".")[2].startswith("_")]


def test_every_public_name_is_used_outside_the_tests():
    """A public function or class is read or imported, and a public method
    is read as an attribute, somewhere in the library, the benchmark or the
    demos; what only the tests use is dead code."""
    attributes, names = set(), set()
    for tree in USERS:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    names |= attributes
    unused = [
        f"{module}:{line} {name}"
        for module, tree in TREES.items()
        for line, name, is_method in _public_definitions(tree)
        if (name.rpartition(".")[2] not in attributes if is_method else name not in names)
    ]
    assert not unused, unused


_MUTABLE_DISPLAYS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)


def _binds_mutable(value: ast.expr) -> bool:
    """A dict, list or set display or comprehension, or a dict(), list() or
    set() call."""
    return isinstance(value, _MUTABLE_DISPLAYS) or (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id in ("dict", "list", "set")
    )


def test_no_module_level_mutable_state():
    """No module binds a mutable container at import time: tables are
    tuples, frozen mappings (`types.MappingProxyType`) or frozensets."""
    mutable = [
        f"{module}:{node.lineno} {ast.unparse(target)}"
        for module, tree in TREES.items()
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        and node.value is not None
        and _binds_mutable(node.value)
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
    ]
    assert not mutable, mutable


def test_no_bare_builtin_error_is_raised():
    """The library raises its own errors, `InvalidInput` and its kin, which
    the CLI maps to its exit codes; a bare `ValueError`, `TypeError`,
    `KeyError` or `IndexError` would end a run in a traceback.  The grid
    spec checks of `placements` are exempt: they guard internal
    invariants that no input reaches."""
    bare = [
        f"{module}:{node.lineno} {ast.unparse(node)}"
        for module, tree in TREES.items()
        if module != "placements.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and node.exc is not None
        for exc in [node.exc.func if isinstance(node.exc, ast.Call) else node.exc]
        if isinstance(exc, ast.Name)
        and exc.id in ("ValueError", "TypeError", "KeyError", "IndexError")
    ]
    assert not bare, bare


def test_species_split_is_stated_once():
    """Phases 1..4 are R and 5..8 are S, and only `molecules` says so
    (`phase_shape`, `phase_label`): no comparison elsewhere in the library
    has the constant 4 or 5 as an operand."""
    split = [
        f"{module}:{node.lineno} {ast.unparse(node)}"
        for module, tree in TREES.items()
        if module != "molecules.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(
            isinstance(operand, ast.Constant)
            and type(operand.value) is int and operand.value in (4, 5)
            for operand in (node.left, *node.comparators)
        )
    ]
    assert not split, split


def test_pairs_are_read_once():
    """Every pair the library takes, a normal, a point, a vertex, a centre
    or a weight pair, is read by `molecules.pair`: no module but
    `molecules` tests whether a `len(...)` equals 2 (or not)."""
    def is_len(node: ast.AST) -> bool:
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "len"

    checks = [
        f"{module}:{node.lineno} {ast.unparse(node)}"
        for module, tree in TREES.items()
        if module != "molecules.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        for op, left, right in zip(node.ops, (node.left, *node.comparators), node.comparators)
        if isinstance(op, (ast.Eq, ast.NotEq))
        and any(
            is_len(a) and isinstance(b, ast.Constant) and type(b.value) is int and b.value == 2
            for a, b in ((left, right), (right, left))
        )
    ]
    assert not checks, checks


def _self_calls(tree: ast.Module) -> set[str]:
    """Dotted names of the functions that call themselves by name, or as a
    method through `self` or `cls`."""
    out = set()

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef) and any(
                    isinstance(call, ast.Call) and (
                        isinstance(call.func, ast.Name) and call.func.id == child.name
                        or isinstance(call.func, ast.Attribute)
                        and call.func.attr == child.name
                        and isinstance(call.func.value, ast.Name)
                        and call.func.value.id in ("self", "cls")
                    )
                    for call in ast.walk(child)
                ):
                    out.add(name)
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def test_no_recursion():
    """No library function calls itself, so no search depth is capped by
    the interpreter's recursion limit; the searches walk explicit stacks."""
    recursive = [
        f"{module} {name}" for module, tree in TREES.items() for name in _self_calls(tree)
    ]
    assert not recursive, recursive


def test_molecules_hold_no_instance_dict():
    """A molecule is slotted: its shape and anchor, and no `__dict__`."""
    m = Molecule(R, (0, 0))
    assert not hasattr(m, "__dict__")
    assert Molecule.__slots__ == ("shape", "anchor")


# the interface solver's integer price path: its unit, the Q_T energy of
# the library constructions and the one list that prices them, the set-up
# and the occupancy helper, the line count of the root and of every node
# and the transposition of their boards; the wetting fill, priced on the
# same masks; and the lattice energies' side count and
# covered area in `molecules`, through which the Q_T energy and the root
# cost count
_INTEGER_PRICED = {
    "interfaces.py": (
        "_units", "_q_t_energy", "_set_up", "_occupancy", "_runs", "_transposed",
        "_wetting_fill", "_best_construction",
    ),
    "molecules.py": ("free_sides", "covered_area"),
}


def _fraction_uses(node: ast.AST) -> list[ast.AST]:
    """The nodes under node that name `Fraction`, as a name or an attribute."""
    return [
        n for n in ast.walk(node)
        if isinstance(n, ast.Name) and n.id == "Fraction"
        or isinstance(n, ast.Attribute) and n.attr == "Fraction"
    ]


def test_solves_price_in_ints():
    """A solve and a pattern bound price in ints from set-up to result:
    `Fraction` appears in none of the functions of their price path, the
    `molecules` side count and covered area included; in `solve_interface`
    only inside the `SolveResult(...)` call that builds its result; and in
    `pattern_upper_bound` only in the `return` that builds its value, and
    in the return annotation that names its type."""
    functions = {
        (module, node.name): node for module in _INTEGER_PRICED
        for node in TREES[module].body if isinstance(node, ast.FunctionDef)
    }
    found = {
        (module, name): [n.lineno for n in _fraction_uses(functions[module, name])]
        for module, names in _INTEGER_PRICED.items() for name in names
    }
    solve = functions["interfaces.py", "solve_interface"]
    result = [
        node for node in ast.walk(solve)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "SolveResult"
    ]
    allowed = {id(n) for call in result for n in _fraction_uses(call)}
    found["interfaces.py", "solve_interface"] = [n.lineno for n in _fraction_uses(solve) if id(n) not in allowed]
    bound = functions["interfaces.py", "pattern_upper_bound"]
    returns = [node for node in ast.walk(bound) if isinstance(node, ast.Return)]
    built = {id(n) for ret in returns for n in _fraction_uses(ret)}
    named = {id(n) for n in _fraction_uses(bound.returns)}
    found["interfaces.py", "pattern_upper_bound"] = [
        n.lineno for n in _fraction_uses(bound) if id(n) not in built | named
    ]
    assert not any(found.values()), found
    assert len(result) == 1 and allowed  # the result's Fractions are seen
    assert len(returns) == 1 and built  # and the pattern bound's value
