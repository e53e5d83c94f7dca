"""Only the brute-force oracles load numpy, each command loads only the
modules it runs, and no module imports a name it never uses.

numpy is imported by ``search.py`` (the simplex scans of ``verify``) and
``information.py`` (``loss --exhaustive``) alone: the package import, every
file kind and every other command, ``smooth`` included, run on the
standard library, and without numpy the two oracles exit 8 with one error
line.  Each numpy case runs in a fresh interpreter, since this test
process has numpy loaded already.  The scan and exhaustive cases check
that the probe can see numpy being loaded.  Likewise, the standard
library commands leave ``dataclasses``, ``inspect`` and ``decimal``
unloaded, and only keys that tie as floats load ``decimal``.  The package
loads a submodule when one of its names is first read, so ``--help``
loads no library module but ``bayesfuse.errors``, and neither ``hashlib``
nor ``json``.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bayesfuse

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import json, sys
{code}
print(json.dumps({{"rc": rc, "numpy": "numpy" in sys.modules}}))
"""

_RUN_CLI = """
from bayesfuse.cli import main
try:
    rc = main(sys.argv[1:])
except SystemExit as exc:
    rc = exc.code
"""


# The stdlib modules that start-up must not pay for, when the interpreter
# itself has not loaded them already.
_STARTUP_PROBE = """
import json, sys
unloaded = {{"dataclasses", "inspect", "decimal"}} - sys.modules.keys()
{code}
print(json.dumps({{"rc": rc, "loaded": sorted(unloaded & sys.modules.keys())}}))
"""


# The package's modules a call loads, and which of ``hashlib`` and ``json``
# it loads of those the interpreter had not loaded already.
_MODULES_PROBE = """
import sys
unloaded = {{"hashlib", "json"}} - sys.modules.keys()
{code}
modules = sorted(m for m in sys.modules if m.partition(".")[0] == "bayesfuse")
stdlib = sorted(unloaded & sys.modules.keys())
import json
print(json.dumps({{"rc": rc, "modules": modules, "stdlib": stdlib, "unloaded": sorted(unloaded)}}))
"""

_HIDE_NUMPY = """
import sys
sys.modules["numpy"] = None
from bayesfuse.cli import main
sys.exit(main(sys.argv[1:]))
"""


def run_python(code: str, *argv: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def probe(code: str, *argv: str, template: str = _PROBE) -> dict:
    proc = run_python(template.format(code=code), *argv)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _package_sources() -> dict[str, str]:
    """The source of every module of the package, by file name."""
    return {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted((SRC / "bayesfuse").glob("*.py"))
    }


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("imports")

    def write(name, payload):
        path = tmp / name
        path.write_text(json.dumps(payload))
        return str(path)

    return {
        "prior": write("prior.json", {"kind": "discrete", "atoms": [["0", 0.5], ["1", 0.5]]}),
        "like": write("like.json", {"kind": "discrete", "atoms": [["0", 0.8], ["1", 0.2]]}),
        "post": write("post.json", {"kind": "discrete", "atoms": [["0", 0.8], ["1", 0.2]]}),
        "grid": write("grid.json", {"kind": "grid", "origin": 0, "delta": 1, "densities": [1]}),
        "family": write(
            "family.json",
            {
                "kind": "family",
                "family": "uniform",
                "params": {"lower": 0, "upper": 1},
                "grid": {"origin": 0, "delta": 0.5, "cells": 2},
            },
        ),
        # Equal as floats, so loading them sorts the keys exactly, by Decimal.
        "tie": write(
            "tie.json",
            {"kind": "discrete", "atoms": [["0.1", 0.5], ["0.10000000000000000001", 0.5]]},
        ),
        "out": str(tmp / "out.json"),
    }


@pytest.mark.parametrize(
    "code",
    [
        "import bayesfuse; rc = 0",
        "from bayesfuse import bayes_posterior, max_loss; rc = 0",
        "import bayesfuse; rc = 0 if bayesfuse.errors.FileFormatError and bayesfuse.dists else 1",
        "from bayesfuse.search import default_resolution; rc = 0 if default_resolution(3) == 200 else 1",
    ],
    ids=["package", "from-import", "submodule-attribute", "search"],
)
def test_importing_the_package_leaves_numpy_unloaded(code):
    assert probe(code) == {"rc": 0, "numpy": False}


@pytest.mark.parametrize(
    "argv, numpy",
    [
        (["--help"], False),
        (["compat", "prior", "like"], False),
        (["posterior", "prior", "like", "--out", "out"], False),
        (["posterior", "prior", "like", "--w0", "2", "--wL", "1", "--out", "out"], False),
        (["loss", "post", "prior", "like"], False),
        (["mlr", "post", "prior", "like"], False),
        (["compat", "grid", "grid"], False),
        (["posterior", "grid", "grid", "--out", "out"], False),
        (["compat", "family", "family"], False),
        (["posterior", "family", "family", "--out", "out"], False),
        (["loss", "family", "family", "family"], False),
        (["mlr", "family", "family", "family"], False),
        (["smooth", "prior", "--epsilon", "0.5", "--delta", "0.25", "--out", "out"], False),
        (["smooth", "grid", "--epsilon", "0.5", "--delta", "0.5", "--out", "out"], False),
        (["smooth", "family", "--epsilon", "0.5", "--delta", "0.25", "--out", "out"], False),
        (["loss", "post", "prior", "like", "--exhaustive"], True),
        (["verify", "prior", "like", "--K", "4"], True),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else str(value),
)
def test_cli_loads_numpy_only_for_families_scans_and_exhaustive_loss(paths, argv, numpy):
    result = probe(_RUN_CLI, *(paths.get(arg, arg) for arg in argv))
    assert result == {"rc": 0, "numpy": numpy}


def test_verify_rejects_grids_before_loading_numpy(paths):
    assert probe(_RUN_CLI, "verify", paths["grid"], paths["grid"]) == {"rc": 3, "numpy": False}


@pytest.mark.parametrize(
    "argv",
    [["verify", "prior", "like", "--K", "4"], ["loss", "post", "prior", "like", "--exhaustive"]],
    ids=" ".join,
)
def test_oracles_without_numpy_exit_eight_with_one_error_line(paths, argv):
    proc = run_python(_HIDE_NUMPY, *(paths.get(arg, arg) for arg in argv))
    assert (proc.returncode, proc.stdout) == (8, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "pip install 'bayesfuse[oracles]'" in proc.stderr
    assert "Traceback" not in proc.stderr


_START = ["bayesfuse", "bayesfuse.cli", "bayesfuse.errors"]
_READ = sorted([*_START, "bayesfuse.dists", "bayesfuse.fileio"])
_PAIR = sorted([*_READ, "bayesfuse.combine"])


@pytest.mark.parametrize(
    "argv, rc", [(["--help"], 0), (["compat", "prior"], 2)], ids=["help", "usage-error"]
)
def test_a_call_that_stops_in_argparse_loads_no_library_module(paths, argv, rc):
    result = probe(_RUN_CLI, *(paths.get(arg, arg) for arg in argv), template=_MODULES_PROBE)
    assert (result["rc"], result["modules"], result["stdlib"]) == (rc, _START, [])


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["compat", "prior", "like"], _PAIR),
        (["posterior", "prior", "like", "--out", "out"], _PAIR),
        (["compat", "grid", "grid"], _PAIR),
        (["posterior", "grid", "grid", "--out", "out"], _PAIR),
        (["compat", "family", "family"], _PAIR),
        (["posterior", "family", "family", "--out", "out"], _PAIR),
        (["smooth", "prior", "--epsilon", "0.5", "--delta", "0.25", "--out", "out"], _READ),
        (["loss", "post", "prior", "like"], [*_PAIR, "bayesfuse.information"]),
        (["loss", "post", "prior", "like", "--exhaustive"], [*_PAIR, "bayesfuse.information"]),
        (["mlr", "post", "prior", "like"], [*_PAIR, "bayesfuse.ratios"]),
        (
            ["verify", "prior", "like", "--K", "4"],
            [*_PAIR, "bayesfuse.information", "bayesfuse.search"],
        ),
    ],
    ids=lambda value: None if value[0].startswith("bayesfuse") else " ".join(value),
)
def test_each_command_loads_only_the_modules_it_runs(paths, argv, modules):
    """Reading a file loads ``hashlib`` and ``json``, which shows the probe
    can see the two modules that an argparse exit leaves unloaded."""
    result = probe(_RUN_CLI, *(paths.get(arg, arg) for arg in argv), template=_MODULES_PROBE)
    assert (result["rc"], result["modules"]) == (0, modules)
    assert result["stdlib"] == result["unloaded"]


def test_the_package_loads_a_module_when_one_of_its_names_is_read():
    result = probe(
        "import bayesfuse; rc = 0 if bayesfuse.max_loss is bayesfuse.information.max_loss else 1",
        template=_MODULES_PROBE,
    )
    assert result["rc"] == 0
    assert result["modules"] == [
        "bayesfuse",
        "bayesfuse.combine",
        "bayesfuse.dists",
        "bayesfuse.errors",
        "bayesfuse.information",
    ]
    assert probe("import bayesfuse; rc = 0", template=_MODULES_PROBE)["modules"] == ["bayesfuse"]


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["--help"], []),
        (["compat", "prior", "like"], []),
        (["posterior", "prior", "like", "--out", "out"], []),
        (["loss", "post", "prior", "like"], []),
        (["mlr", "post", "prior", "like"], []),
        (["smooth", "prior", "--epsilon", "0.5", "--delta", "0.25", "--out", "out"], []),
        (["compat", "tie", "tie"], ["decimal"]),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) and value else None,
)
def test_cli_start_up_leaves_dataclasses_inspect_and_decimal_unloaded(paths, argv, loaded):
    """Only keys that tie as floats load ``decimal``; that case shows the
    probe can see a module being loaded."""
    argv = [paths.get(arg, arg) for arg in argv]
    assert probe(_RUN_CLI, *argv, template=_STARTUP_PROBE) == {"rc": 0, "loaded": loaded}


def _numpy_importers(sources: dict[str, str]) -> list[str]:
    """Modules that import numpy anywhere: at the top, in a function or
    under ``if TYPE_CHECKING``."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                found.append(module)
                break
    return sorted(found)


def test_only_the_brute_force_oracles_import_numpy():
    assert _numpy_importers(_package_sources()) == ["information.py", "search.py"]


def test_numpy_import_guard_sees_nested_and_type_checking_imports():
    sources = {
        "a.py": "def f():\n    import numpy as np\n    return np\n",
        "b.py": (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from numpy import ndarray\n"
        ),
        "c.py": "import numpy.linalg\n",
        "d.py": "import numpydoc\nfrom . import numpy\n",
    }
    assert _numpy_importers(sources) == ["a.py", "b.py", "c.py"]


def test_every_public_name_resolves_and_is_listed():
    listed = dir(bayesfuse)
    for name in bayesfuse.__all__:
        assert getattr(bayesfuse, name) is not None
        assert name in listed
    with pytest.raises(AttributeError):
        bayesfuse.no_such_name


def test_the_lazy_namespace_gives_each_module_its_own_objects():
    for name in bayesfuse.__all__:
        value = getattr(bayesfuse, name)
        assert value is getattr(sys.modules[f"bayesfuse.{bayesfuse._SOURCE[name]}"], name)
    assert bayesfuse.search is sys.modules["bayesfuse.search"]
    assert bayesfuse.cli is sys.modules["bayesfuse.cli"]
    message = "^module 'bayesfuse' has no attribute 'no_such_name'$"
    with pytest.raises(AttributeError, match=message):
        bayesfuse.no_such_name


def test_version_is_the_project_version():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    text = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert bayesfuse.__version__ == tomllib.loads(text)["project"]["version"]


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg):
                yield arg and arg.annotation


def _names_read(tree: ast.Module) -> set[str]:
    """Names a module reads, in code or in annotations.

    Quoted annotations are parsed too, so a name used only in
    ``-> "DiscreteDist"`` or under ``if TYPE_CHECKING`` counts as used.
    """
    trees = [tree]
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                trees.append(ast.parse(node.value, mode="eval"))
    return {
        n.id
        for t in trees
        for n in ast.walk(t)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, in code or in annotations."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    return sorted(imported - _names_read(tree))


@pytest.mark.parametrize(
    "module",
    sorted(p.name for p in (SRC / "bayesfuse").glob("*.py") if p.name != "__init__.py"),
)
def test_module_uses_every_name_it_imports(module):
    source = (SRC / "bayesfuse" / module).read_text(encoding="utf-8")
    assert _unused_imports(source) == []


def test_unused_import_guard_sees_annotations_and_leftovers():
    source = (
        "from typing import TYPE_CHECKING\n"
        "from decimal import Decimal, localcontext\n"
        "import os.path\n"
        "if TYPE_CHECKING:\n"
        "    import numpy as np\n"
        "def f(x: np.ndarray) -> 'Decimal':\n"
        "    return x\n"
    )
    assert _unused_imports(source) == ["localcontext", "os"]


def _dead_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level ``_names`` that no module reads, by name or as an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        read |= _names_read(tree)
        read.update(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute))
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            dead += [
                f"{module}:{name}"
                for name in names
                if name.startswith("_") and not name.startswith("__") and name not in read
            ]
    return sorted(dead)


def test_every_private_module_name_is_read_in_the_package():
    assert _dead_private_names(_package_sources()) == []


def test_dead_private_name_guard_sees_a_leftover():
    sources = {
        "a.py": (
            "import re\n"
            "_USED = 1\n"
            "_CANONICAL = re.compile('x')\n"
            "def _helper():\n"
            "    return _USED\n"
            "class _Kept:\n"
            "    pass\n"
            "kept: '_Kept'\n"
        ),
        "b.py": "from . import a\na._helper()\n",
    }
    assert _dead_private_names(sources) == ["a.py:_CANONICAL"]


def _joint_arithmetic(source: str) -> list[str]:
    """Code that computes joint terms: a power whose exponent is the name
    ``a`` or ``b``, or a read of an aligned pair's raw ``u`` or ``v``.
    Docstrings, which write ``p0**a * pL**b``, are not code."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Pow)
            and isinstance(node.right, ast.Name)
            and node.right.id in ("a", "b")
        ):
            found.append(f"**{node.right.id}")
        elif isinstance(node, ast.Attribute) and node.attr in ("u", "v"):
            found.append(f".{node.attr}")
    return found


def test_conflation_arithmetic_lives_in_combine():
    """The aligned pair owns the joint terms, the subnormal test and the
    compatibility rule: no other module names them or computes the terms,
    and the rule is written once."""
    sources = _package_sources()
    for name in ("_joint_terms", "_MIN_NORMAL"):
        users = [m for m, source in sources.items() if re.search(rf"\b{name}\b", source)]
        assert users == ["combine.py"], name
    rules = [
        m for m, source in sources.items() for _ in re.finditer(r"0\.0 < [\w.]+ < math\.inf", source)
    ]
    assert rules == ["combine.py"]
    computers = [m for m, source in sources.items() if _joint_arithmetic(source)]
    assert computers == ["combine.py"]


def test_joint_arithmetic_guard_sees_code_not_docstrings():
    source = (
        'def f(aligned, rows, a, b):\n'
        '    """Divide ``rows`` by ``u**a * v**b``."""\n'
        '    u, v = aligned.u, aligned.v\n'
        '    return rows / (u**a * v**b), rows**2, u**a2\n'
    )
    assert _joint_arithmetic(source) == [".u", ".v", "**a", "**b"]


def _module_level_names(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, name) for every function, class and assignment at module level."""
    found = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append((module, node.name))
            elif isinstance(node, ast.Assign):
                found += [(module, t.id) for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                found.append((module, node.target.id))
    return found


def test_file_format_errors_are_raised_only_by_the_file_reader():
    """``load_distribution`` names the file in every error about it, so no
    other module translates a file's errors."""
    sources = _package_sources()
    raisers = [m for m, text in sources.items() if re.search(r"raise FileFormatError\b", text)]
    assert raisers == ["fileio.py"]


def test_the_cli_catches_errors_only_in_main():
    """Each error is raised once, where it is detected; the CLI only maps
    its type to an exit code, in one ``except`` in ``main``."""
    tree = ast.parse(_package_sources()["cli.py"])
    owners = [
        getattr(node, "name", None)
        for node in tree.body
        for inner in ast.walk(node)
        if isinstance(inner, ast.ExceptHandler)
    ]
    assert owners == ["main"]


def test_weights_are_arguments_of_one_function_per_objective():
    """Each loss objective is one function taking ``w0`` and ``wL``: no module
    defines a ``WeightedPair`` or a public weighted twin.  The weighted
    posterior stays, since its errors rank differently from the product rule's."""
    names = _module_level_names(_package_sources())
    weighted = [(m, n) for m, n in names if "weighted" in n and not n.startswith("_")]
    assert weighted == [("combine.py", "weighted_posterior")]
    assert [(m, n) for m, n in names if n == "WeightedPair"] == []
