"""The benchmark tracer's bindings exist in the package.

`perfbench/tracing.py` wraps the functions named in its TARGETS at the module
bindings their callers resolve.  A binding the package no longer has breaks
every traced benchmark run, so this checks them with the rest of the suite.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_targets() -> tuple[tuple[str, str, str], ...]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.TARGETS


def test_every_traced_binding_is_a_callable_of_the_package():
    targets = _tracing_targets()
    assert targets
    for module_name, attribute, _span in targets:
        module = importlib.import_module(f"dp1alpha.{module_name}")
        assert callable(getattr(module, attribute, None)), f"dp1alpha.{module_name}.{attribute}"
