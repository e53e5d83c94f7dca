"""Discrete commands and the package import run without loading numpy.

Each case runs in a fresh interpreter, since this test process has numpy
loaded already.  The family, scan and exhaustive cases check that the
probe can see numpy being loaded.
"""

import json
import os
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


def probe(code: str, *argv: str) -> dict:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE.format(code=code), *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


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
        "out": str(tmp / "out.json"),
    }


@pytest.mark.parametrize(
    "code",
    [
        "import bayesfuse; rc = 0",
        "from bayesfuse import bayes_posterior, max_loss; rc = 0",
        "import bayesfuse; rc = 0 if bayesfuse.errors.FileFormatError and bayesfuse.dists else 1",
        "from bayesfuse.search import SimplexGrid; rc = 0 if SimplexGrid(3, 4).count == 15 else 1",
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
        (["compat", "family", "family"], True),
        (["loss", "post", "prior", "like", "--exhaustive"], True),
        (["verify", "prior", "like", "--K", "4"], True),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else str(value),
)
def test_cli_loads_numpy_only_for_families_scans_and_exhaustive_loss(paths, argv, numpy):
    result = probe(_RUN_CLI, *(paths.get(arg, arg) for arg in argv))
    assert result == {"rc": 0, "numpy": numpy}


def test_every_public_name_resolves_and_is_listed():
    listed = dir(bayesfuse)
    for name in bayesfuse.__all__:
        assert getattr(bayesfuse, name) is not None
        assert name in listed
    with pytest.raises(AttributeError):
        bayesfuse.no_such_name
