"""The benchmark tracer names functions that exist in the package.

``bench/tracer.py`` wraps qksim functions by name, and a name it requires
that is renamed or moved reads 0 in the benchmark's per-layer metrics.
"""
import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("qksim_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_required_name_is_a_public_function_of_its_module():
    missing = []
    for name in load_tracer().REQUIRED:
        layer, attr = name.split(".")
        if layer == "lapack":  # numpy's eigensolvers, wrapped by the tracer itself
            continue
        module = importlib.import_module(f"qksim.{layer}")
        func = getattr(module, attr, None)
        if not (
            inspect.isfunction(func)
            and func.__module__ == module.__name__
            and not attr.startswith("_")
        ):
            missing.append(name)
    assert missing == []
