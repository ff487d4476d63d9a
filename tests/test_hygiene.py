"""Package hygiene: dead names, and one public-API list.

Dead names are module-level names nothing reads, and locals stored but never
read.  A name counts as read when it appears anywhere in `src/`, `tests/` or
`bench/` as a loaded name, an attribute or an imported name.  Dunder names are
exempt, since the interpreter reads them.

Integer contractions in the ring and NIM-rep layers have one kernel,
`rings._matmul`, so no second route can drift out of exactness.  Those layers
decide in closed form and have no budget, so a search cannot come back there
unnoticed.

A monad is a Kleisli triple, and its one point evaluator is `bind_at`, the
Kleisli extension f* = mu . T(f) at a point: the laws read single entries of
mu, T(f) and f* only through it, and no class has a point evaluator of mu
or of T(f) alone besides it.  A monad that redefines a table (`bind`, `mu` or
`t_mor`) redefines `bind_at` with it, unless the table is the inherited one.
No builtin monad redefines the EM fill, so there is one.

The essential and monadic verdicts are checked against each other by two
routes, and those stay independent.  Each states its definition once per
carrier in `monads`: the EM route in `_em_route` (its move perm -> T(perm)
and its law, read through the monad's evaluators) and the module route over
T(1) in `_module_route` (its unit inclusion, free action, move
perm (x) id_A and module law, read off the algebra's tables).  No function
of the module route reads a monad evaluator or the EM route, and no function
of the EM route reads an algebra table or the module route; they share only
the search, the orbit and the free-object lookup.  `algebra_from_strength`
and `check_mon_ess_agreement` bridge the routes and are left out.

The command line reads the environment; the library relies on its arguments
alone, so `DIVALG_BUDGET` reaches a monad verdict only through `cli`.

Each builtin is declared once.  Every catalog ring is a product rule given to
one builder, so `catalog` constructs a `FusionRing` in `_ring` alone, and the
builtin monad names are the keys of `monads.BUILTIN_MONADS`, which the command
line reads and never writes out.

The package's `__all__` is assembled from the layer modules' own lists, so
each public name is written once, in the module that defines it.

A module's underscore names are its own: no module of the package reads one
of another's, so each layer is reached through its public functions alone.
The one sharing is the integer kernels of `rings`, which `nimreps` imports by
name because the NIM-rep laws are the ring laws read on a module.
"""

import ast
from pathlib import Path

import divalg
from divalg import catalog, errors, monads, nimreps, rings

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "divalg"
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def read_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def module_level_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def own_stores(scope: ast.AST) -> set[str]:
    """Names that scope's own body binds, leaving out those bound in nested scopes."""
    stores = set()
    pending = list(ast.iter_child_nodes(scope))
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            stores.add(node.id)
        if not isinstance(node, SCOPES):
            pending.extend(ast.iter_child_nodes(node))
    return stores


def test_every_module_level_name_is_read_somewhere():
    read = set()
    for top in ("src", "tests", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            read |= read_names(parse(path))
    dead = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in sorted(module_level_names(parse(path)) - read)
    ]
    assert dead == []


def test_every_local_is_read():
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for scope in ast.walk(parse(path)):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                unread = own_stores(scope) - read_names(scope) - {"_"}
                dead += [f"{path.stem}.{scope.name}: {name}" for name in sorted(unread)]
    assert dead == []


def test_one_contraction_kernel():
    # the package calls no einsum and no int64 bound; in rings and nimreps a matrix product is written
    # only in _matmul, and in module_components, whose closure multiplies booleans
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(parse(path)):
            name = getattr(node, "attr", None) or getattr(node, "id", None)
            if name in ("einsum", "_fits_int64"):
                stray.append(f"{path.stem}:{node.lineno} {name}")
    for stem in ("rings", "nimreps"):
        for scope in parse(PACKAGE / f"{stem}.py").body:
            if getattr(scope, "name", None) in ("_matmul", "module_components"):
                continue
            stray += [
                f"{stem}:{node.lineno} @"
                for node in ast.walk(scope)
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
            ]
    assert stray == []


def test_ring_layers_have_no_budget():
    # one-sided inverses are read off the fitting columns; a search would need a budget error again
    stray = [stem for stem in ("rings", "nimreps") if "BudgetExceededError" in read_names(parse(PACKAGE / f"{stem}.py"))]
    assert stray == []


def test_only_the_command_line_reads_the_environment():
    readers = [
        path.stem
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "cli" and {"environ", "getenv"} & read_names(parse(path))
    ]
    assert readers == []


def base_names(node: ast.ClassDef) -> set[str]:
    return {getattr(base, "attr", None) or getattr(base, "id", None) for base in node.bases}


def returns_the_inherited_table(method: ast.FunctionDef) -> bool:
    """Every return of method is `super().<method>(...)`, so the table it gives is the inherited one."""
    returns = [node for node in ast.walk(method) if isinstance(node, ast.Return)]
    return bool(returns) and all(
        isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Attribute)
        and node.value.func.attr == method.name
        and isinstance(node.value.func.value, ast.Call)
        and getattr(node.value.func.value.func, "id", None) == "super"
        for node in returns
    )


def monad_classes(*tops: Path) -> list[tuple[Path, ast.ClassDef]]:
    """(path, class) for every FiniteMonad subclass defined under tops, FiniteMonad itself left out."""
    classes = [
        (path, node)
        for top in tops
        for path in sorted(top.rglob("*.py"))
        for node in ast.walk(parse(path))
        if isinstance(node, ast.ClassDef)
    ]
    monads = {"FiniteMonad"}
    while True:
        grown = monads | {node.name for _, node in classes if base_names(node) & monads}
        if grown == monads:
            break
        monads = grown
    return [(path, node) for path, node in classes if node.name != "FiniteMonad" and base_names(node) & monads]


def methods_of(node: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    return {item.name: item for item in node.body if isinstance(item, ast.FunctionDef)}


def test_every_redefined_monad_table_has_its_point_twin():
    # a FiniteMonad subclass in src/divalg or tests/ that changes bind, mu or t_mor changes bind_at with it;
    # without it the laws would check the entries of the inherited f*, not its table
    classes = monad_classes(PACKAGE, ROOT / "tests")
    missing = []
    for path, node in classes:
        methods = methods_of(node)
        missing += [
            f"{path.stem}:{node.lineno} {node.name} defines {table} without bind_at"
            for table in ("bind", "mu", "t_mor")
            if table in methods and "bind_at" not in methods and not returns_the_inherited_table(methods[table])
        ]
    assert {node.name for _, node in classes} > {"CoproductException", "FreeVectorF2", "BadFold", "Terminal"}
    assert missing == []
    # nor does any class, monad or not, give a point evaluator of mu or T(f) alone, as bind_at replaced them
    retired = {f"{table}_at" for table in ("mu", "t_mor")}
    second = [
        f"{path.stem}:{node.lineno} {node.name}.{name}"
        for top in (PACKAGE, ROOT / "tests")
        for path in sorted(top.rglob("*.py"))
        for node in ast.walk(parse(path))
        if isinstance(node, ast.ClassDef)
        for name in sorted(retired & set(methods_of(node)))
    ]
    assert second == []


def test_one_em_fill():
    # FiniteMonad.em_structure_candidates is the EM fill of every builtin monad: it checks the law at the
    # points of support 1 and 2, so a monad needs no theory of its own algebras
    classes = monad_classes(PACKAGE)
    assert {node.name for _, node in classes} >= {"CoproductException", "FreeVectorF2"}
    assert [node.name for _, node in classes if "em_structure_candidates" in methods_of(node)] == []


MODULE_ROUTE = ("_module_route", "_module_isoclasses", "enumerate_modules", "free_module", "module_isomorphic")
EM_ROUTE = ("_em_route", "_em_isoclasses", "_em_algebras", "enumerate_em_algebras", "free_algebra", "em_isomorphic")
MONAD_EVALUATORS = {
    "bind_at", "bind", "t_mor", "mu", "eta", "t_size", "theta",
    "em_structure_candidates", "_em_law_holds", "_em_law_sides", "_law_shapes",
}
ALGEBRA_TABLES = {"mult", "unit", "tensor_mor", "ambient"}


def test_the_two_monad_routes_read_nothing_of_each_other():
    functions = {node.name: node for node in parse(PACKAGE / "monads.py").body if isinstance(node, ast.FunctionDef)}
    assert set(MODULE_ROUTE + EM_ROUTE) <= set(functions)
    crossings = [
        f"{name} reads {read}"
        for route, forbidden in (
            (MODULE_ROUTE, MONAD_EVALUATORS | set(EM_ROUTE)),
            (EM_ROUTE, ALGEBRA_TABLES | set(MODULE_ROUTE)),
        )
        for name in route
        for read in sorted(read_names(functions[name]) & forbidden)
    ]
    assert crossings == []


def test_each_builtin_is_declared_once():
    def called(node):
        return isinstance(node, ast.Call) and (getattr(node.func, "attr", None) or getattr(node.func, "id", None))

    builders = [
        getattr(top, "name", f"line {top.lineno}")
        for top in parse(PACKAGE / "catalog.py").body
        if any(called(node) == "FusionRing" for node in ast.walk(top))
    ]
    assert builders == ["_ring"]
    literals = {
        node.value
        for node in ast.walk(parse(PACKAGE / "cli.py"))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    assert len(monads.BUILTIN_MONADS) == 4
    assert literals & set(monads.BUILTIN_MONADS) == set()


# the rings kernels nimreps imports by name, the one sharing of underscore names between modules
SHARED_PRIVATE = {
    ("nimreps", "rings"): {
        "_as_int_array", "_freeze", "_labels", "_matmul", "_record", "_require_nonzero", "_row_products",
        "_total", "_vector",
    },
}


def test_no_module_reads_another_modules_underscore_names():
    layers = {path.stem for path in PACKAGE.glob("*.py")}

    def private(name):
        return name.startswith("_") and not name.endswith("__")

    reads = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = parse(path)
        # the package modules this one binds by name, as `from . import catalog` does
        bound = {
            alias.asname or alias.name: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
            for alias in node.names
            if alias.name in layers
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in layers:
                reads += [(path.stem, node.module, alias.name) for alias in node.names if private(alias.name)]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound:
                if private(node.attr):
                    reads.append((path.stem, bound[node.value.id], node.attr))
    allowed = {(reader, owner, name) for (reader, owner), names in SHARED_PRIVATE.items() for name in names}
    assert sorted(f"{reader} reads {owner}.{name}" for reader, owner, name in set(reads) - allowed) == []
    # and the list names no kernel that nimreps has stopped reading
    assert set(reads) == allowed


# every name the package exported while its `__all__` was written out by hand
PUBLIC_API = {
    "__version__",
    "CatalogEntry", "builtin_ring", "entries",
    "DivalgError", "StructuralError", "ZeroObjectError", "CatalogError",
    "DecomposableModuleError", "DegenerateMonadError", "BudgetExceededError",
    "FiniteMonad", "CoproductException", "FreeVectorF2", "maybe_monad", "identity_monad",
    "builtin_monad", "EmAlgebra", "AdjunctionVerdict", "StrengthIsoVerdict", "MonoidAlgebra",
    "AlgebraModule", "validate_monad", "enumerate_em_algebras", "free_algebra", "em_isomorphic",
    "check_adjunction_trivial", "check_strength", "is_very_strong", "algebra_from_strength",
    "enumerate_modules", "free_module", "module_isomorphic", "check_mon_ess_agreement",
    "check_comparison_fully_faithful",
    "NimRep", "regular_nimrep", "validate_nimrep", "act", "is_simple_module_object",
    "module_components", "classify_internal_end_nimrep", "cross_check_internal_end",
    "FusionRing", "ValidationReport", "Violation", "ClassificationReport", "validate_ring",
    "tensor", "length", "is_simple", "dual_object", "is_left_invertible", "is_right_invertible",
    "fp_dimension", "classify_internal_end",
}


def test_public_api_is_the_module_lists():
    layers = (catalog, errors, monads, nimreps, rings)
    assert divalg.__all__ == ["__version__", *(name for layer in layers for name in layer.__all__)]
    assert len(set(divalg.__all__)) == len(divalg.__all__)
    for name in divalg.__all__:
        assert hasattr(divalg, name), name
    assert set(divalg.__all__) == PUBLIC_API | {"DisjointUnion", "CartesianProduct"}
