"""The benchmark (bench/run.py, bench/tracing.py) calls and patches package functions.

Its own test sits outside the default test paths, so this checks here that
every name the tracer patches still exists and that the benchmark's call
shapes still bind to the package's signatures.
"""

import importlib
import importlib.util
import inspect
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


# (module, attribute, positional arguments, keyword names) of each call the benchmark makes;
# run_paths and parallel_layer_forward are only patched, which the test above covers
CALL_SHAPES = [
    ("model", "forward", 2, ()),
    ("analysis", "generate", 3, ("top_n",)),
    ("analysis", "trace_routing", 2, ()),
    ("blocks", "causal_mha", 3, ()),
    ("blocks", "layer_block", 3, ()),
    ("blocks", "rope", 2, ()),
    ("blocks", "swiglu_ffn", 2, ()),
    ("parallel", "gumbel_v1_forward", 5, ()),
    ("losses", "cross_entropy", 2, ()),
    # the tracer's counting wrapper calls Tensor.__init__(t, data, requires_grad, _parents, _backward)
    ("tensor", "Tensor.__init__", 5, ()),
]


def test_benchmark_call_shapes_bind():
    unbound = []
    for mod_name, attr, n_args, kwargs in CALL_SHAPES:
        fn = importlib.import_module(f"papaformer.{mod_name}")
        for part in attr.split("."):
            fn = getattr(fn, part)
        try:
            inspect.signature(fn).bind(*range(n_args), **{k: None for k in kwargs})
        except TypeError as e:
            unbound.append(f"{mod_name}.{attr}: {e}")
    assert not unbound, f"bench/run.py call shapes no longer bind: {unbound}"
