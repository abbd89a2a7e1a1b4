"""The benchmark tracer's view of the package: every function it wraps
exists, and the arguments it reads sit where it reads them.

A rename or a moved argument then fails here with a plain message rather
than inside the benchmark's smoke subprocess.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    for mod_name, fn_name in _tracer().TARGETS:
        mod = importlib.import_module(f"splitkern.{mod_name}")
        fn = getattr(mod, fn_name, None)
        assert callable(fn), f"splitkern.{mod_name}.{fn_name} is gone"


# the positional arguments the tracer's work counters read
@pytest.mark.parametrize("target, position, name", [
    ("kernels.gram", 1, "points"),
    ("estimator.spectral_model", 1, "x"),
    ("estimator.fit_iterative", 1, "filt"),
    ("estimator.fit_iterative", 2, "lam"),
    ("estimator.predict", 0, "expansion"),
    ("estimator.predict", 1, "x"),
    ("distributed.fit_distributed", 5, "part"),
])
def test_traced_arguments_keep_their_positions(target, position, name):
    assert target in _tracer().WORK
    mod_name, fn_name = target.split(".")
    fn = getattr(importlib.import_module(f"splitkern.{mod_name}"), fn_name)
    params = list(inspect.signature(fn).parameters)
    assert params[position] == name, f"{target} takes {params}"
