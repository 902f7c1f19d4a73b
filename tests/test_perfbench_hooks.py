"""The benchmark's hooks name attributes that exist in hdlab.

perfbench/tracing.py (PATCH_POINTS) and perfbench/workloads.py (each
workload's capture_points) replace hdlab functions by name. Without this
test a rename in hdlab would surface only when the benchmark runs with
--trace 1. The two files are loaded read-only: nothing is written next to
them.
"""

import importlib
import importlib.util
import os
import sys

import hdlab

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


def load(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, os.path.join(PERFBENCH, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def missing(tracing, hooks):
    """The (target path, attribute) pairs that do not resolve in hdlab."""
    out = []
    for path, attr in hooks:
        importlib.import_module("hdlab." + path.split(".")[0])
        try:
            target = tracing.resolve(hdlab, path)
        except AttributeError:
            out.append((path, attr))
            continue
        found = target.get(attr) if isinstance(target, dict) else getattr(target, attr, None)
        if not callable(found):
            out.append((path, attr))
    return out


def test_patch_points_resolve():
    tracing = load("tracing")
    assert len(tracing.PATCH_POINTS) > 20
    assert missing(tracing, [(path, attr) for path, attr, _, _ in tracing.PATCH_POINTS]) == []


def test_capture_points_resolve():
    tracing = load("tracing")
    workloads = load("workloads")
    hooks = [tuple(path.rsplit(".", 1)) for workload in workloads.WORKLOADS.values()
             for path, _ in workload.capture_points]
    assert len(workloads.WORKLOADS) == 3 and hooks
    assert missing(tracing, hooks) == []
