"""The names that bench/tracing.py wraps must exist in the package.

The tracer patches each (module, attribute) in its LAYERS and binds the
arguments of mc_entropy_estimate by name, so a renamed function or
parameter would break a traced benchmark run (`bench/run.py --trace 1`).
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from qentropy.montecarlo import mc_entropy_estimate


def _tracing_layers():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("module,attr", _tracing_layers())
def test_traced_layer_resolves(module, attr):
    obj = importlib.import_module(f"qentropy.{module}")
    for name in attr.split("."):
        obj = getattr(obj, name)
    assert callable(obj)


def test_mc_entropy_estimate_binds_samples_and_mode():
    # the call form of the mc command
    call = inspect.signature(mc_entropy_estimate).bind("spectrum", 1000, "rng", workers=2)
    call.apply_defaults()
    assert (call.arguments["samples"], call.arguments["mode"]) == (1000, "sphere")
