"""Spans around the calls into each hdlab layer, made from outside hdlab.

The traced run replaces the names each caller looks up (a module attribute,
a class attribute or a registry entry) with a wrapper that records a span:
name, start, end and the index of the enclosing span. Spans stay in memory
and are written out when the run ends. Per-layer self time is a span's
duration less the time its direct children cover, so the self times of all
spans of one op, the op's own root span included, add up to the op's time.
Span times are read from a clock that excludes the reference kernel's runs
inside ops (see refclock), and are scaled to reference speed per op.
"""

import json
import os


def _kernel_counts(args, result):
    sweeps, converged = result
    return {"kernels.calls": 1, "kernels.sweeps": sweeps,
            "kernels.coord_visits": sweeps * args[0].shape[1],
            "kernels.nonconverged": 0 if converged else 1}


def _write_bytes(args, result):
    return {"report.bytes": sum(os.path.getsize(p) for p in result)}


def _pca_counts(args, result):
    d = args[0].X.shape[1]
    return {"dimred.pca_calls": 1, "dimred.cov_mb": ("max", 8.0 * d * d / 1e6)}


# (target, attribute, span name, counter). The target is a dotted path from
# the hdlab package: a module, a class, or a dict (for the CLI registry). The
# counter, if any, turns (args, result) into counts added to the span's op;
# a ("max", v) count keeps the op's largest value instead of the sum.
PATCH_POINTS = (
    ("kernels", "cd_weighted_l1", "kernels.cd_weighted_l1", _kernel_counts),
    ("solvers", "coord_descent_l1", "solvers.coord_descent", None),
    ("solvers", "coord_descent_weighted_l1", "solvers.coord_descent", None),
    ("solvers", "cross_validate", "solvers.cross_validate", None),
    ("solvers", "lla", "solvers.lla",
     lambda a, r: {"solvers.lla_rounds": r.iterations}),
    ("solvers", "ols_refit", "solvers.ols_refit", None),
    ("solvers", "dantzig_selector", "solvers.dantzig", None),
    ("solvers", "linprog_simplex", "simplex.linprog_simplex",
     lambda a, r: {"simplex.pivots": r[2]}),
    ("experiments", "coord_descent_l1", "solvers.coord_descent", None),
    ("experiments", "cross_validate", "solvers.cross_validate", None),
    ("experiments", "ols_refit", "solvers.ols_refit", None),
    ("screening", "sis_select", "screening.sis_select",
     lambda a, r: {"screening.survivors": r.survivors.size}),
    ("experiments", "endogeneity_diagnostic", "diagnostics.endogeneity", None),
    ("experiments", "overid_check", "diagnostics.overid", None),
    ("diagnostics", "ks_distance", "diagnostics.ks",
     lambda a, r: {"diagnostics.ks_calls": 1}),
    ("diagnostics", "greedy_spurious_support", "diagnostics.greedy", None),
    ("diagnostics", "rcv_variance", "diagnostics.rcv", None),
    ("experiments", "pca", "dimred.pca", _pca_counts),
    ("experiments", "pairwise_distances", "dimred.pairwise",
     lambda a, r: {"dimred.pairs": r.size}),
    ("experiments", "random_projection", "dimred.rp", None),
    ("data", "gen_linear", "data.gen", None),
    ("experiments", "gen_linear", "data.gen", None),
    ("experiments", "gen_spiked", "data.gen", None),
    ("data", "standardize", "data.standardize", None),
    ("experiments", "standardize", "data.standardize", None),
    ("report.ExperimentReport", "write", "report.write", _write_bytes),
    ("cli", "histogram_svg", "svgplot.svg", None),
    ("cli", "line_chart_svg", "svgplot.svg", None),
    ("cli", "scatter_svg", "svgplot.svg", None),
    ("cli._FIGURES", "endo", "experiments.endogeneity_experiment", None),
    ("cli._FIGURES", "11", "experiments.projection_error_experiment", None),
)

ROOT = "op"


def resolve(hd_package, path):
    obj = hd_package
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Patches:
    """Replaces attributes (or dict entries) and puts them back."""

    def __init__(self):
        self._saved = []

    def replace(self, target, attr, make_wrapper):
        if isinstance(target, dict):
            original = target[attr]
            target[attr] = make_wrapper(original)
        else:
            original = getattr(target, attr)
            setattr(target, attr, make_wrapper(original))
        self._saved.append((target, attr, original))

    def restore(self):
        for target, attr, original in reversed(self._saved):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._saved = []


class Tracer:
    """Keeps spans [name, start, end, parent, op] and per-op counts."""

    def __init__(self, clock):
        self.clock = clock        # net of reference-kernel time inside ops
        self.spans = []
        self.counts = []          # one dict per op
        self._stack = []
        self._op = -1

    def wrap(self, name, fn, counter=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1, self._op]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                self._add(counter(args, result))
            return result
        return traced

    def _add(self, counts):
        mine = self.counts[self._op]
        for key, value in counts.items():
            if isinstance(value, tuple):
                mine[key] = max(mine.get(key, 0.0), value[1])
            else:
                mine[key] = mine.get(key, 0) + value

    def begin_op(self):
        self._op += 1
        self.counts.append({})
        self.spans.append([ROOT, self.clock(), None, -1, self._op])
        self._stack.append(len(self.spans) - 1)

    def end_op(self):
        root = self._stack.pop()
        self.spans[root][2] = self.clock()

    def install(self, hd_package, patches):
        for path, attr, name, counter in PATCH_POINTS:
            target = resolve(hd_package, path)
            patches.replace(target, attr, lambda fn, n=name, c=counter: self.wrap(n, fn, c))

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

    def summarize(self, scale):
        """Per-op mean of inclusive time, self time and counts.

        scale[op] multiplies the span times of that op (the reference-speed
        factor). Inclusive time of a name counts only spans with no ancestor
        of the same name, so nested calls (coord_descent_l1 calling its
        weighted form) are not counted twice.
        """
        ops = max(self._op + 1, 1)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += (end - start) * scale[op]
        inclusive, self_time, layer_self = {}, {}, {}
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            dur = (end - start) * scale[op]
            own = dur - child[i]
            self_time[name] = self_time.get(name, 0.0) + own
            layer = name.split(".")[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + own
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                inclusive[name] = inclusive.get(name, 0.0) + dur
        counts = {}
        for per_op in self.counts:
            for key, value in per_op.items():
                counts[key] = counts.get(key, 0) + value
        return tuple({k: v / ops for k, v in d.items()}
                     for d in (inclusive, self_time, layer_self, counts))
