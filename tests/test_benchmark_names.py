"""Every timed per-layer benchmark metric names a function the tracer can see.

The traced benchmark patches span recorders onto the public functions each
``bayesfuse`` module defines, so a metric ``<layer>.<fn>_s`` silently reads
0 once ``fn`` is renamed, made private, or turned into a generator.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_NOT_FUNCTIONS = {"self_s", "import_s"}


def _timed_metrics():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [metric["name"] for metric in benchmark["per_layer"]]
    return [
        tuple(name.split(".", 1))
        for name in names
        if name.endswith("_s") and name.split(".", 1)[1] not in _NOT_FUNCTIONS
    ]


@pytest.mark.parametrize("layer, metric", _timed_metrics(), ids=lambda part: part)
def test_metric_names_a_public_function(layer, metric):
    module = importlib.import_module(f"bayesfuse.{layer}")
    name = metric[: -len("_s")]
    if name == "from_pairs":
        assert isinstance(inspect.getattr_static(module.DiscreteDist, name), classmethod)
        return
    fn = vars(module).get(name)
    assert not name.startswith("_")
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__
    if inspect.isgeneratorfunction(fn):
        # A span around a generator call would close before its work runs, so
        # the tracer times generators only through an explicit span of its own.
        tracing = (ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8")
        assert f'span("{layer}.{name}")' in tracing
