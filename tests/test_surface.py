"""The package's shape: the README sketch runs, src/ holds only what runs,
no public default is a mode that only the tests select, and every exception
class is one that src/ catches by type or the README names."""

import ast
import builtins
import json
import re
import sys
from pathlib import Path

import leadersel

ROOT = Path(__file__).resolve().parents[1]

# No production path calls these oracles, but the benchmark's per-layer
# metrics (BENCHMARK.json) trace them, so they stay in src/ under their names.
BENCH_BOUND_ORACLES = {
    "stability.singleton_lambda_mins",  # per-node eigensolves vs SingletonPhase.lambda_star
    "coherence.normalized_from_inverses",  # explicit inverses of Q_{S+v} vs WoodburyScorer
    "coherence.SystemContext.normalized_coherence",  # per-subset vs greedy and exhaustive sweep
    "linalg.spd_inverse",  # explicit inverses, the tests' reference for WoodburyScorer
    "linalg.sherman_morrison_update",  # the greedy's former rank-one step; test_linalg only
}

# Defaults that no src/ call overrides: ``main(argv)`` is the documented
# in-process entry, which the benchmark and the tests call with ``argv``.
ENTRY_DEFAULTS = {"cli.main argv"}


def test_every_bench_per_layer_metric_resolves():
    """Each per-layer key of BENCHMARK.json names something the tracer finds:
    a renamed or deleted function would read null in every traced run."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from tracer import Tracer
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    tracer = Tracer()
    names = [entry["name"] for entry in
             json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert len(names) > 40
    missing = [name for name in names
               if name != "trace.overhead_s" and tracer.value({}, name) is None]
    assert missing == []


def _imported_packages(path: Path) -> set[str]:
    """The top-level package of every absolute import in ``path``, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_imports_are_declared_dependencies():
    """src/ imports only the stdlib, numpy and itself; the tests add their
    declared extras, conftest, and the benchmark's tracer (perfbench/, in
    this repository).  Packages that happen to be installed (scipy, mpmath,
    sympy) are refused here, before a CI install without them fails."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "leadersel"}
    test_extras = {"pytest", "hypothesis", "jsonschema", "conftest", "tracer"}
    stray = {}
    for folder, extra in (("src", set()), ("tests", test_extras)):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if outside := _imported_packages(path) - allowed - extra:
                stray[str(path.relative_to(ROOT))] = sorted(outside)
    assert stray == {}


def test_readme_library_sketch_runs(capsys):
    section = (ROOT / "README.md").read_text().split("## Library sketch", 1)[1]
    sketch = re.search(r"```python\n(.*?)```", section, re.S)[1]
    exec(compile(sketch, "README.md", "exec"), {})
    assert capsys.readouterr().out.split()[2] == "True"  # the certificate holds
    imported = {alias.name for node in ast.walk(ast.parse(sketch))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(leadersel.__all__) == sorted(imported)


def _names_read(tree: ast.AST) -> list[str]:
    """Every name and attribute read; an attribute read off a bare name
    also counts as "owner.attribute"."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
            if isinstance(node.value, ast.Name):
                names.append(f"{node.value.id}.{node.attr}")
    return names


def _is_classmethod(node: ast.AST) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "classmethod"
               for d in getattr(node, "decorator_list", ()))


def _public_definitions(tree: ast.Module):
    """(qualified name, node, the reads that reach it): public top-level
    functions and classes, and the public methods of those classes.  A
    classmethod is reached only as ``Owner.name`` or ``cls.name``, so a
    method of the same name on another class does not count for it."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
            yield node.name, node, (node.name,)
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and item.name[0] != "_":
                    reads = ((f"{node.name}.{item.name}", f"cls.{item.name}")
                             if _is_classmethod(item) else (item.name,))
                    yield f"{node.name}.{item.name}", item, reads


def test_src_holds_what_runs():
    """Every public definition is read somewhere in src/ outside its own body,
    as a name or an attribute; re-exports in ``__init__.py`` do not count.
    So is every ``Tolerances`` field.  Code (and a tolerance) that only the
    tests reach belongs in the tests."""
    modules = {path.stem: ast.parse(path.read_text())
               for path in sorted((ROOT / "src" / "leadersel").glob("*.py"))
               if path.name != "__init__.py"}
    read = [name for tree in modules.values() for name in _names_read(tree)]
    unused = {f"{module}.{qualified}" for module, tree in modules.items()
              for qualified, node, reads in _public_definitions(tree)
              if sum(map(read.count, reads)) <= sum(map(_names_read(node).count, reads))}
    assert unused == BENCH_BOUND_ORACLES
    table = next(node for node in modules["linalg"].body
                 if isinstance(node, ast.ClassDef) and node.name == "Tolerances")
    fields = [item.target.id for item in table.body if isinstance(item, ast.AnnAssign)]
    assert len(fields) > 10
    assert [name for name in fields if read.count(name) <= _names_read(table).count(name)] == []


def _callee(call: ast.Call) -> set[str]:
    """The names a call goes by, as ``_names_read`` spells them."""
    func = call.func
    if isinstance(func, ast.Name):
        return {func.id}
    if isinstance(func, ast.Attribute):
        owner = [f"{func.value.id}.{func.attr}"] if isinstance(func.value, ast.Name) else []
        return {func.attr, *owner}
    return set()


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether ``call`` passes the parameter ``name``, by keyword or at
    ``position`` (0 is the first argument the caller writes; None for a
    keyword-only parameter, which only a keyword passes)."""
    return ((position is not None and position < len(call.args))
            or any(kw.arg == name for kw in call.keywords))


def test_every_default_is_overridden_somewhere():
    """Every parameter default of a public function or method is overridden by
    some call in src/ outside the function's own body, by keyword or by
    position: a default that no caller ever changes is a mode that only the
    tests reach, and it belongs in the tests.  ``cli.main``'s ``argv`` is
    the exemption.  A method's callers are matched by its bare name (a
    classmethod's by ``Owner.name`` or ``cls.name``), so a call of another
    method of the same name counts for it too."""
    modules = {path.stem: ast.parse(path.read_text())
               for path in sorted((ROOT / "src" / "leadersel").glob("*.py"))
               if path.name != "__init__.py"}
    calls = [node for tree in modules.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    unpassed = set()
    for module, tree in modules.items():
        for qualified, node, reads in _public_definitions(tree):
            if isinstance(node, ast.ClassDef):
                continue
            own = {id(inner) for inner in ast.walk(node)}
            callers = [call for call in calls
                       if id(call) not in own and _callee(call) & set(reads)]
            # a method's self or cls is bound, so the caller's first argument is the next one
            positional = node.args.posonlyargs + node.args.args
            positional = positional[1:] if "." in qualified else positional
            defaulted = [(arg.arg, i) for i, arg in enumerate(positional)
                         if i >= len(positional) - len(node.args.defaults)]
            defaulted += [(arg.arg, None) for arg, default in
                          zip(node.args.kwonlyargs, node.args.kw_defaults) if default is not None]
            unpassed |= {f"{module}.{qualified} {name}" for name, i in defaulted
                         if not any(_passes(call, name, i) for call in callers)}
    assert unpassed == ENTRY_DEFAULTS


def _exception_classes(modules: dict[str, ast.Module]) -> set[str]:
    """Classes that derive, through src/ or the builtins, from BaseException."""
    bases = {node.name: [_type_name(base) for base in node.bases]
             for tree in modules.values() for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef)}
    found = set()
    while True:
        more = {name for name, parents in bases.items() if name not in found and any(
            parent in found or (isinstance(getattr(builtins, parent, None), type)
                                and issubclass(getattr(builtins, parent), BaseException))
            for parent in parents)}
        if not more:
            return found
        found |= more


def _type_name(node: ast.expr) -> str:
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def test_every_exception_class_is_caught_or_documented():
    """Every exception class defined in src/ is caught by type in some
    ``except`` clause in src/, or named in README.md: a class that nothing
    catches and no reader is told of only splits what its message says."""
    modules = {path.stem: ast.parse(path.read_text())
               for path in sorted((ROOT / "src" / "leadersel").glob("*.py"))}
    caught = set()
    for tree in modules.values():
        for handler in ast.walk(tree):
            if isinstance(handler, ast.ExceptHandler) and handler.type is not None:
                types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
                caught |= {_type_name(node) for node in types}
    readme = (ROOT / "README.md").read_text()
    classes = _exception_classes(modules)
    assert {"LeaderSelError", "UsageError"} <= classes
    assert sorted(name for name in classes
                  if name not in caught and not re.search(rf"\b{name}\b", readme)) == []
