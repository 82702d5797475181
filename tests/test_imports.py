import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
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


def private_imports(path: Path) -> set[tuple[str, str]]:
    """(sibling module, name) of each private name a package module imports."""
    return {(node.module, alias.name) for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
            for alias in node.names if alias.name.startswith("_")}


def test_only_the_kernel_self_checks_reach_into_bases():
    # the wavefunctions are evaluated through the public bases functions, a
    # list of states included; verify keeps the Laguerre and angular kernels to
    # hold them to the exact polynomials
    reached = {(path.stem, name) for path in sorted(PACKAGE.glob("*.py"))
               for module, name in private_imports(path) if module == "bases"}
    assert reached == {("verify", "_angular"), ("verify", "_laguerre_factor")}


def test_no_module_reaches_into_spheroidal():
    # the CLI takes every spheroidal result from the public sweep; verify takes
    # the solve and V from interbasis and holds the residuals and limits itself
    reached = {(path.stem, name) for path in sorted(PACKAGE.glob("*.py"))
               for module, name in private_imports(path) if module == "spheroidal"}
    assert reached == set()


PRODUCTION = ("bases", "cli", "coords", "interbasis", "qnum", "spheroidal")
# the parabolic side M + R diag(beta) of the spheroidal operator, the names it
# was kept under and the limits that read V: verify's alone
PARABOLIC_SIDE = {"m_diag", "m_off", "betas", "parabolic_bands", "_parabolic_side", "_limits"}


def identifiers(tree: ast.AST) -> set[str]:
    """Every name a tree defines, reads, imports, passes as a keyword or looks up."""
    names = referenced_names(tree)
    for sub in ast.walk(tree):
        if isinstance(sub, (ast.FunctionDef, ast.ClassDef)):
            names.add(sub.name)
        elif isinstance(sub, ast.arg):
            names.add(sub.arg)
        elif isinstance(sub, ast.keyword) and sub.arg:
            names.add(sub.arg)
    return names


def test_no_production_module_builds_the_parabolic_side():
    # the names are live: verify, the one module allowed to, uses all but the method
    assert PARABOLIC_SIDE - {"parabolic_bands"} <= identifiers(
        ast.parse((PACKAGE / "verify.py").read_text()))
    for stem in PRODUCTION:
        tree = ast.parse((PACKAGE / f"{stem}.py").read_text())
        assert not identifiers(tree) & PARABOLIC_SIDE, stem
        # a beta is formed one label at a time, by the public separation constant
        callers = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)
                   and "_separation_constant" in referenced_names(node)}
        assert callers <= {"parabolic_separation_constant"}, stem


# the closed-form oracles: the verify suite and the tests hold production code to them
ORACLES = {"clebsch_gordan_block", "hyp3f2_terminating", "jacobi_exact", "laguerre_exact"}


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
    paths = [path for folder in ("src", "tests", "perfbench")
             for path in sorted((root / folder).rglob("*.py"))]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


def referenced_names(node: ast.AST) -> set[str]:
    """Every name a node reads, imports or looks up as an attribute."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def test_every_definition_is_referenced():
    # a module-level function or class that nothing in the package names,
    # its own body aside, is dead code unless the package exports it or the
    # tests hold production code to it (an oracle)
    statements = [(path, node) for path in sorted(PACKAGE.glob("*.py"))
                  for node in ast.parse(path.read_text()).body]
    definitions = [(path, node) for path, node in statements
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    assert sum(node.name.startswith("_") for _, node in definitions) > 40
    kept = set(mickepler.__all__) | ORACLES
    unreferenced = [f"{path.stem}.{node.name}" for path, node in definitions
                    if node.name not in kept
                    and not any(node.name in referenced_names(other)
                                for _, other in statements if other is not node)]
    assert unreferenced == []


def test_every_memo_keyed_on_arguments_is_bounded():
    # a module-level functools memo lives as long as the process; keyed on
    # arguments (ring strengths among them), an unbounded one grows with every
    # new point a long-running caller visits, while one without arguments holds
    # a single entry
    memos, unbounded = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(
            "mickepler" if path.stem == "__init__" else f"mickepler.{path.stem}")
        for name, obj in vars(module).items():
            if (getattr(obj, "__module__", None) != module.__name__
                    or not callable(getattr(obj, "cache_info", None))):
                continue
            memos.add(f"{path.stem}.{name}")
            if (inspect.signature(obj.__wrapped__).parameters
                    and obj.cache_info().maxsize is None):
                unbounded.append(f"{path.stem}.{name}")
    # the scan sees the package's memos, with and without arguments
    assert {"qnum._derive_constants", "verify._laguerre", "verify._jacobi",
            "cli._kernel_tables", "cli._parser"} <= memos
    assert unbounded == []


# Run in a fresh interpreter: records every import of scipy.linalg with the
# files on the stack that asked for it, then runs the CLI commands given
# as a JSON list of argument lists and prints the records as JSON.
IMPORT_SPY = """
import importlib.abc, io, json, sys, traceback
from contextlib import redirect_stdout

importers = []

class Spy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy.linalg":
            importers.append([frame.filename for frame in traceback.extract_stack()[:-1]
                              if not frame.filename.startswith("<")])
        return None

sys.meta_path.insert(0, Spy())
import mickepler.cli
loaded = []
for argv in json.loads(sys.argv[1]):
    with redirect_stdout(io.StringIO()):
        assert mickepler.cli.main(argv) == 0, argv
    loaded.append("scipy.linalg" in sys.modules)
print(json.dumps({"importers": importers, "loaded": loaded}))
"""


def test_cli_commands_do_not_import_scipy_linalg():
    # the tridiagonal eigensolves run through numpy alone; the only import of
    # scipy.linalg left is scipy.special's own Gauss-rule generator (roots_*
    # diagonalizes its Jacobi matrix with scipy.linalg), which verify calls
    from mickepler.cli import MATRIX_KINDS

    commands = [["sweep", "--n", "6", "--m", "1", "--R-grid", "0:20:300", "--vectors"]]
    commands += [["coefficients", "--kind", kind, "--s", "1/2", "--c1", "0.3", "--c2", "0.7",
                  "--n", "9/2", "--m", "1/2", *(["--R", "2.5"] if "spheroidal" in kind else [])]
                 for kind in MATRIX_KINDS]
    commands += [["verify", "--n-max", "2"]]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_SPY, json.dumps(commands)],
                          capture_output=True, text=True, env=env, timeout=300, check=True)
    record = json.loads(proc.stdout)
    assert record["loaded"][:-1] == [False] * (len(commands) - 1), record["importers"]
    roots_generator = str(Path("scipy", "special", "_orthogonal.py"))
    for stack in record["importers"]:
        assert any(path.endswith(roots_generator) for path in stack), stack
