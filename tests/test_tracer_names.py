"""The benchmark's tracer patches program functions by name; each of those
names must exist in the program."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

from stressgrid.protocol import CommandChannel

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.FUNCTIONS
    for module, func in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"stressgrid.{module}"), func, None)), (module, func)
    # the apply wrapper takes (channel, home, level), one command per call
    assert list(inspect.signature(CommandChannel.apply).parameters) == ["self", "home", "level"]
