"""The benchmark's tracer (bench/tracing.py) patches package functions by name.

Its own test sits outside the default test paths, so this checks here that
every name it patches still exists.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for mod_name, attr, _ in tracing.TRACED:
        owner = importlib.import_module(f"papaformer.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            # the tracer patches the method from the class's own __dict__
            found = meth in vars(getattr(owner, cls_name, object))
        else:
            found = callable(getattr(owner, attr, None))
        if mod_name not in tracing.MODULES or not found:
            missing.append(f"{mod_name}.{attr}")
    assert not missing, f"bench/tracing.py patches names the package no longer has: {missing}"
