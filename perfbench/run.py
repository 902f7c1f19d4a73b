"""hdlab benchmark: one workload per process, every time at reference speed.

    python3 perfbench/run.py --workload endogeneity --seed 1 --seconds 44 --trace 0

Run from the root of a source checkout; hdlab is imported from ./src. The
process pins BLAS and OpenMP to one thread before NumPy loads. It sets up
(imports hdlab afresh and builds the fixed inputs) several times, then runs
ops of the workload until --seconds have passed, checks each op's output
outside the timed region, and prints one JSON object as its last line:

  --trace 0: setup_s, op_s, peak_rss_mb (see BENCHMARK.json)
  --trace 1: the per-layer metrics, from ops run in pairs: the same seed
             untraced, then traced, so the tracing overhead is measured too.

Earlier lines carry the machine, the library versions, the reference kernel
times and the raw wall seconds, which are not gated. A full record of the
run, and for --trace 1 the spans, are written under perfbench/out/.
"""

import argparse
import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
PINNED_THREADS = "1"
for _var in THREAD_VARS:
    os.environ[_var] = PINNED_THREADS

import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import refclock  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Capture, op_seed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 7
SUBMODULES = ("cli", "data", "diagnostics", "dimred", "experiments", "kernels",
              "penalties", "report", "screening", "solvers", "svgplot")

LAYER_TIMES = {
    # metric -> (kind, span name); kind is "incl" or "self"
    "kernels.s": ("incl", "kernels.cd_weighted_l1"),
    "solvers.cross_validate_s": ("incl", "solvers.cross_validate"),
    "solvers.cross_validate_self_s": ("self", "solvers.cross_validate"),
    "solvers.coord_descent_s": ("incl", "solvers.coord_descent"),
    "solvers.ols_refit_s": ("incl", "solvers.ols_refit"),
    "solvers.lla_s": ("incl", "solvers.lla"),
    "solvers.dantzig_s": ("incl", "solvers.dantzig"),
    "simplex.s": ("incl", "simplex.linprog_simplex"),
    "screening.s": ("incl", "screening.sis_select"),
    "diagnostics.endogeneity_s": ("incl", "diagnostics.endogeneity"),
    "diagnostics.ks_s": ("incl", "diagnostics.ks"),
    "diagnostics.overid_s": ("incl", "diagnostics.overid"),
    "diagnostics.greedy_s": ("incl", "diagnostics.greedy"),
    "diagnostics.rcv_s": ("incl", "diagnostics.rcv"),
    "dimred.pca_s": ("incl", "dimred.pca"),
    "dimred.pairwise_s": ("incl", "dimred.pairwise"),
    "dimred.rp_s": ("incl", "dimred.rp"),
    "data.gen_s": ("incl", "data.gen"),
    "data.standardize_s": ("incl", "data.standardize"),
    "report.write_s": ("incl", "report.write"),
    "svgplot.s": ("incl", "svgplot.svg"),
}
LAYER_COUNTS = {
    "kernels.calls": "count", "kernels.sweeps": "count", "kernels.coord_visits": "count",
    "kernels.nonconverged": "count", "solvers.lla_rounds": "count",
    "simplex.pivots": "count", "screening.survivors": "count",
    "diagnostics.ks_calls": "count", "dimred.pca_calls": "count", "dimred.pairs": "count",
    "dimred.cov_mb": "MB", "report.bytes": "B",
}
LAYERS = ("kernels", "solvers", "simplex", "screening", "diagnostics", "dimred", "data",
          "report", "svgplot", "experiments")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fresh_import(no_cache_dir):
    """Import hdlab and its submodules from ./src, dropping earlier copies.

    Bytecode is neither read from nor written to any cache (no_cache_dir is
    an empty directory), so every set-up compiles hdlab from source whatever
    __pycache__ directories or PYTHONDONTWRITEBYTECODE the checkout has.
    """
    for name in [m for m in sys.modules if m == "hdlab" or m.startswith("hdlab.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    saved = sys.pycache_prefix, sys.dont_write_bytecode
    sys.pycache_prefix, sys.dont_write_bytecode = no_cache_dir, True
    try:
        hd = importlib.import_module("hdlab")
        for sub in SUBMODULES:
            importlib.import_module("hdlab." + sub)
    finally:
        sys.pycache_prefix, sys.dont_write_bytecode = saved
    if os.path.dirname(os.path.dirname(os.path.abspath(hd.__file__))) != SRC:
        raise ImportError("hdlab was imported from %s, not from %s" % (hd.__file__, SRC))
    return hd


def environment(hd):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "backend": hd.kernels.BACKEND,
        "pinned_threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def run_setups(clock, workload, no_cache_dir):
    """Set up SETUP_REPEATS times after one untimed import; returns (hd, timings).

    The untimed import loads the standard-library modules hdlab needs, so
    each timed set-up does the same work.
    """
    timings = []
    fresh_import(no_cache_dir)
    clock.between()
    for _ in range(SETUP_REPEATS):
        clock.start()
        hd = fresh_import(no_cache_dir)
        workload.setup(hd)
        timings.append(clock.stop())
        clock.between()
    return hd, timings


class OpRunner:
    """Runs, times and checks ops; one record per op."""

    def __init__(self, hd, workload, clock, capture):
        self.hd, self.workload, self.clock, self.capture = hd, workload, clock, capture
        self.records = []
        self.stats = {}

    def run(self, op_seed, tracer=None):
        wl, clock, capture = self.workload, self.clock, self.capture
        capture.clear()
        patches = tracing.Patches()
        if tracer is not None:
            tracer.install(self.hd, patches)
            tracer.begin_op()
        result, error = None, None
        clock.start()
        try:
            result = wl.op(op_seed, capture)
        except Exception:
            error = traceback.format_exc()
        timing = clock.stop()
        if tracer is not None:
            tracer.end_op()
            patches.restore()
        clock.between()
        problems = []
        if error is None:
            try:
                problems = wl.check(result, self.stats)
            except Exception:
                error = traceback.format_exc()
        if result is not None:
            wl.cleanup(result)
        for text in ([error] if error else []) + problems:
            print("perfbench: %s op seed %d failed: %s" % (wl.name, op_seed, text),
                  file=sys.stderr)
        rec = {"seed": op_seed, "traced": tracer is not None, "timing": timing,
               "ok": error is None and not problems, "wrong": bool(problems)}
        self.records.append(rec)
        return rec


def per_layer_metrics(tracer, runner):
    traced = [r for r in runner.records if r["traced"]]
    plain = [r for r in runner.records if not r["traced"]]
    scale = [1.0 / r["timing"].speed for r in traced]
    inclusive, self_time, layer_self, counts = tracer.summarize(scale)
    m = {}
    for name, (kind, span) in LAYER_TIMES.items():
        m[name] = ((inclusive if kind == "incl" else self_time).get(span, 0.0), "s")
    for name, unit in LAYER_COUNTS.items():
        m[name] = (counts.get(name, 0), unit)
    visits = counts.get("kernels.coord_visits", 0)
    m["kernels.ns_per_visit"] = (m["kernels.s"][0] / visits * 1e9 if visits else 0.0, "ns")
    m["solvers.kkt_max"] = (runner.stats.get("kkt_max", 0.0), "1")
    for layer in LAYERS:
        m["%s.self_s" % layer] = (layer_self.get(layer, 0.0), "s")
    traced_s = [r["timing"].scaled for r in traced]
    plain_s = [r["timing"].scaled for r in plain]
    m["trace.op_s"] = (statistics.fmean(traced_s), "s")
    m["trace.glue_s"] = (layer_self.get(tracing.ROOT, 0.0), "s")
    m["trace.self_sum_s"] = (sum(layer_self.values()), "s")
    m["trace.untraced_op_s"] = (statistics.fmean(plain_s), "s")
    m["trace.overhead_s"] = (statistics.median([t - u for t, u in zip(traced_s, plain_s)]), "s")
    m["trace.spans"] = (len(tracer.spans) / max(len(traced), 1), "count")
    return m


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hdlab", "__init__.py")):
        print("perfbench: no hdlab sources under %s; run from a source checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    scratch = os.path.join(OUT, "tmp-%d" % os.getpid())
    os.makedirs(scratch, exist_ok=True)
    try:
        return measure(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, scratch):
    workload = WORKLOADS[args.workload](scratch)
    traced = bool(args.trace)
    clock = refclock.ReferenceClock()
    no_cache_dir = os.path.join(scratch, "no-bytecode-cache")
    os.makedirs(no_cache_dir)
    hd, setups = run_setups(clock, workload, no_cache_dir)

    capture = Capture()
    patches = tracing.Patches()
    for path, key in workload.capture_points:
        module, attr = path.rsplit(".", 1)
        patches.replace(tracing.resolve(hd, module), attr, lambda fn, k=key: capture.wrap(k, fn))
    runner = OpRunner(hd, workload, clock, capture)
    tracer = tracing.Tracer(clock.net_time) if traced else None

    # Ops run back to back (a closed loop with one caller). A new op starts
    # only if, taking as long as the last one, it would end within --seconds.
    start = time.perf_counter()
    index = 0
    while True:
        t0 = time.perf_counter()
        seed = op_seed(args.seed, index)
        runner.run(seed)
        if traced:
            runner.run(seed, tracer)
        index += 1
        now = time.perf_counter()
        if now - start + (now - t0) > args.seconds:
            break
    patches.restore()

    records = runner.records
    failed = sum(1 for r in records if not r["ok"])
    # Op times come from the ops that passed; if none did, from all of them.
    timed = [r for r in records if not r["traced"]]
    timed = [r for r in timed if r["ok"]] or timed
    setup_scaled = [t.scaled for t in setups]
    op_scaled = [r["timing"].scaled for r in timed]
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": environment(hd),
        "reference": {"nominal_s": refclock.NOMINAL_S,
                      "measured_median_s": statistics.median(clock.samples),
                      "measured_mean_s": statistics.fmean(clock.samples),
                      "samples": len(clock.samples)},
        "raw": {"setup_s": statistics.median([t.net for t in setups]),
                "op_s": statistics.fmean([r["timing"].net for r in timed]),
                "speed": statistics.median([r["timing"].speed for r in records])},
        "ops": len(records),
        "op_scaled_s": op_scaled,
    }
    if traced:
        metrics = per_layer_metrics(tracer, runner)
        tracer.write(os.path.join(OUT, "spans-%s-seed%d.jsonl" % (args.workload, args.seed)))
    else:
        metrics = {
            "setup_s": (statistics.median(setup_scaled), "s"),
            # The mean, not the median: an endogeneity run holds only 4-6 ops
            # whose work differs by seed by up to 1.5x (see README.md).
            "op_s": (statistics.fmean(op_scaled), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
        }
    result = {
        "correct": bool(records) and not any(r["wrong"] for r in records),
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT, "result-%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    print("perfbench-info " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
