import ast
import importlib
from pathlib import Path

import pytest

import mickepler

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mickepler"


def package_imports(path: Path) -> set[str]:
    """Sibling modules a package module imports anywhere in its body."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                module = node.module
            elif node.level == 0 and (node.module or "").startswith("mickepler."):
                module = node.module[len("mickepler."):]
            else:
                continue
            if module is None:   # from . import a, b
                names.update(alias.name for alias in node.names)
            else:
                names.add(module.split(".")[0])
        elif isinstance(node, ast.Import):
            names.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("mickepler."))
    return names


def test_intra_package_imports_are_acyclic():
    modules = {p.stem: p for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    graph = {name: package_imports(path) & modules.keys() for name, path in modules.items()}
    done: set[str] = set()

    def visit(name: str, path: list[str]) -> None:
        if name in path:
            raise AssertionError("import cycle: " + " -> ".join(path[path.index(name):] + [name]))
        if name in done:
            return
        for target in sorted(graph[name]):
            visit(target, path + [name])
        done.add(name)

    for name in sorted(graph):
        visit(name, [])


def test_every_exported_name_resolves():
    missing = [f"mickepler.{name}" for name in mickepler.__all__
               if not hasattr(mickepler, name)]
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"mickepler.{path.stem}")
        missing += [f"mickepler.{path.stem}.{name}"
                    for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


# the closed-form oracles: the verify suite and the tests hold production code to them
ORACLES = {"expansion_coefficient", "expansion_coefficient_cg", "clebsch_gordan_continued",
           "hyp3f2_unit_scaled", "kummer_terminating"}


def test_only_verify_imports_the_oracle_module():
    importers = {path.stem for path in PACKAGE.glob("*.py") if "numkernel" in package_imports(path)}
    assert importers == {"verify"}


def test_oracles_live_in_numkernel_and_are_not_exported():
    numkernel = importlib.import_module("mickepler.numkernel")
    defined = {name for name, obj in vars(numkernel).items()
               if getattr(obj, "__module__", None) == numkernel.__name__}
    assert ORACLES <= defined
    assert not (defined | {"numkernel"}) & set(mickepler.__all__)
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem not in ("__init__", "numkernel"):
            module = importlib.import_module(f"mickepler.{path.stem}")
            assert not ORACLES & set(getattr(module, "__all__", ())), path.stem


def test_sources_parse_as_python_3_10():
    # the oldest Python the project supports; no 3.11-only syntax such as except*
    root = PACKAGE.parents[1]
    paths = [path for folder in ("src", "tests", "scripts", "perfbench")
             for path in sorted((root / folder).rglob("*.py"))]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
