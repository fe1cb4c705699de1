"""Outside-in span tracing of the semiflow modules.

`install()` wraps the public functions of every semiflow module, the task
runners of the CLI, the state constructors and the descriptor distance, and
re-binds each wrapper wherever the original is bound by name (module
attributes and module-level dicts such as the CLI's task table).  Bindings are
matched on the identity of the originals, captured before anything is
patched, so a function imported under another name (`distance as
grid_distance`) is wrapped too.  Family step closures are wrapped on the
descriptor that `build_family` returns.

Spans (name, start, end, parent, experiment id) are kept in flat arrays in
memory and written out by `write_spans` when the run ends.  A layer is the
module a span's function is defined in; a span's self time is its duration
minus the part covered by its child spans.  Counter bookkeeping done by the
wrappers is timed separately and charged to no layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import statistics
import sys
from array import array
from time import perf_counter

import numpy as np

MODULES = ("state_space", "chernoff", "families_linear", "families_nonlinear",
           "diagnostics", "cli")
TASKS = ("evolve", "defect", "generator", "certificate", "audit", "monotonicity")
DIAG_TASK_SPANS = {
    "certificate": {"lipschitz_certificate", "symmetric_lipschitz_certificate"},
    "audit": {"alpha_beta_audit"},
    "generator": {"generator_estimate"},
    "monotonicity": {"partition_monotonicity_check"},
}
SETUP = -1  # experiment id of spans recorded while parsing and building
# bindings under another module's name that must end up wrapped
REQUIRED_BINDINGS = {
    "families_nonlinear": ("heat_multi_step", "gbm_step", "with_values",
                           "grid_distance"),
    "chernoff": ("grid_distance",),
    "diagnostics": ("grid_distance",),
    "cli": ("write_csv", "read_csv_table"),
}


class TraceError(RuntimeError):
    """A tracing self-check failed."""


class Tracer:
    def __init__(self):
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.exp = array("q")
        self.hook = array("d")  # counter bookkeeping time charged to no layer
        self.names: list[str] = []
        self.layers: list[str] = []
        self.open_by_name: list[int] = []
        self.open_by_layer: dict[str, int] = {m: 0 for m in MODULES}
        self.stack = [-1]
        self.exp_id = SETUP
        self.c = _Counters()
        self.nid: dict[str, int] = {}  # span name id of each wrapped function
        self.step_ids: dict[str, int] = {}  # span name id of `step`, per layer

    def name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        self.open_by_name.append(0)
        return len(self.names) - 1

    def enter(self, nid: int) -> int:
        i = len(self.start)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.hook.append(0.0)
        self.parent.append(self.stack[-1])
        self.name.append(nid)
        self.exp.append(self.exp_id)
        self.stack.append(i)
        self.open_by_name[nid] += 1
        self.open_by_layer[self.layers[nid]] += 1
        return i

    def leave(self, i: int, nid: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()
        self.open_by_name[nid] -= 1
        self.open_by_layer[self.layers[nid]] -= 1

    def charge_hook(self, t0: float) -> None:
        """Charge time since t0 to the innermost open span's bookkeeping."""
        if self.stack[-1] >= 0:
            self.hook[self.stack[-1]] += perf_counter() - t0

    def begin_experiment(self, exp_id: int) -> None:
        """Start an experiment; counts made while setting up are dropped."""
        if self.exp_id == SETUP:
            self.c.__init__()
        self.exp_id = exp_id
        self.c.seen_dt.clear()
        self.c.seen_state.clear()


class _Counters:
    def __init__(self):
        self.heat_taps: list[int] = []
        self.heat_flop = 0.0
        self.steps = 0
        self.steps_in_limit = 0
        self.steps_in_partition = 0
        self.dt_reuse = 0
        self.seen_dt: set = set()
        self.nonlinear_steps = 0
        self.nonlinear_candidates = 0
        self.diag_steps = 0
        self.diag_repeats = 0
        self.seen_state: set = set()
        self.limits = 0
        self.limit_levels = 0
        self.limit_converged = 0
        self.limit_steps_total = 0
        self.grid_deltas = 0
        self.constructs = 0
        self.validated_bytes = 0
        self.csv_rows = 0


def _candidates(family) -> int:
    p = family.params
    if "n_lambda" in p:
        return int(p["n_lambda"])
    return len(p["pairs"]) if "pairs" in p else 1


def _heat_counts(tr: Tracer, args, cutoff_sigmas: float):
    """Taps per candidate and axis, and 2*n*taps*C flop, of heat_multi_step,
    with the kernel reach of families_linear._heat_axis_apply."""
    f, t, drifts, sigmas = args[:4]
    if t == 0.0:
        return
    drifts = np.atleast_2d(np.asarray(drifts, dtype=np.float64))
    sigmas = np.asarray(sigmas, dtype=np.float64)
    if sigmas.ndim == 1:
        sigmas = np.repeat(sigmas[:, None], f.grid.dim, axis=1)
    n = f.grid.n_nodes * f.codomain_dim
    for a, h in enumerate(f.grid.h):
        for c in range(drifts.shape[0]):
            s = sigmas[c, a] * math.sqrt(t)
            if s == 0.0:
                continue
            shift = drifts[c, a] * t
            reach = cutoff_sigmas * s + h
            taps = math.floor((reach - shift) / h) - math.ceil((-reach - shift) / h) + 1
            tr.c.heat_taps.append(taps)
            tr.c.heat_flop += 2.0 * n * taps


def install() -> Tracer:
    """Wrap semiflow in place and return the tracer that records its spans."""
    tr = Tracer()
    mods = {m: importlib.import_module(f"semiflow.{m}") for m in MODULES}
    from semiflow.chernoff import GeneratingFamilyDescriptor
    from semiflow.families_linear import KERNEL_CUTOFF_SIGMAS
    from semiflow.state_space import GridFunction, VectorState

    originals = {}  # id(original) -> (original, name, layer)
    for layer, mod in mods.items():
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and (not attr.startswith("_") or attr.startswith("_task_"))):
                name = f"task.{attr[6:]}" if attr.startswith("_task_") else attr
                originals[id(obj)] = (obj, name, layer)

    def on_heat(args, result):
        _heat_counts(tr, args, KERNEL_CUTOFF_SIGMAS)

    def on_limit(args, result):
        state, rep = result
        tr.c.limits += 1
        tr.c.limit_levels += rep.n_last - rep.n_min + 1 if rep.steps_total else 0
        tr.c.limit_converged += bool(rep.converged)
        tr.c.limit_steps_total += rep.steps_total
        if isinstance(state, GridFunction):
            tr.c.grid_deltas += len(rep.deltas)

    def on_csv_write(args, result):
        tr.c.csv_rows += args[0].grid.n_nodes

    def on_csv_read(args, result):
        tr.c.csv_rows += result[1].shape[0]

    def on_build(args, result):
        family, _ = result
        family.step = _traced_step(tr, family, family.step)

    counts_after = {"heat_multi_step": on_heat, "chernoff_limit": on_limit,
                    "write_csv": on_csv_write, "read_csv_table": on_csv_read,
                    "build_family": on_build}
    wrappers = {}
    for key, (fn, name, layer) in originals.items():
        tr.nid[name] = tr.name_id(name, layer)
        wrappers[key] = _wrap(tr, fn, tr.nid[name], counts_after.get(name))

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "semiflow" or mod_name.startswith("semiflow."):
            _rebind(vars(mod), wrappers)

    def on_construct(args, result):
        self = args[0]
        arr = self.values if isinstance(self, GridFunction) else self.coordinates
        tr.c.constructs += 1
        tr.c.validated_bytes += arr.nbytes

    for cls, attr, name, layer, hook in (
            (GridFunction, "__post_init__", "GridFunction", "state_space", on_construct),
            (VectorState, "__post_init__", "VectorState", "state_space", on_construct),
            (GeneratingFamilyDescriptor, "distance", "descriptor.distance", "chernoff", None),
            (GeneratingFamilyDescriptor, "norm_of", "descriptor.norm_of", "chernoff", None)):
        fn = getattr(cls, attr)
        originals[id(fn)] = (fn, name, layer)
        setattr(cls, attr, _wrap(tr, fn, tr.name_id(name, layer), hook))

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "semiflow" or mod_name.startswith("semiflow."):
            left = _find_originals(vars(mod), originals)
            if left:
                raise TraceError(f"{mod_name} still binds unwrapped {left}")
    for layer, attrs in REQUIRED_BINDINGS.items():
        for attr in attrs:
            if not hasattr(getattr(mods[layer], attr), "__wrapped_original__"):
                raise TraceError(f"semiflow.{layer}.{attr} is not traced")
    return tr


def _wrap(tr: Tracer, fn, nid: int, after=None):
    if after is None:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tr.enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tr.leave(i, nid)
    else:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tr.enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.leave(i, nid)
            t0 = perf_counter()
            after(args, result)
            tr.charge_hook(t0)
            return result
    traced.__wrapped_original__ = fn
    return traced


def _rebind(namespace: dict, wrappers: dict) -> None:
    for attr, obj in list(namespace.items()):
        if id(obj) in wrappers:
            namespace[attr] = wrappers[id(obj)]
        elif isinstance(obj, dict):
            for k, v in list(obj.items()):
                if id(v) in wrappers:
                    obj[k] = wrappers[id(v)]


def _find_originals(namespace: dict, originals: dict) -> list[str]:
    left = []
    for attr, obj in namespace.items():
        if id(obj) in originals and originals[id(obj)][0] is obj:
            left.append(attr)
        elif isinstance(obj, dict):
            left += [f"{attr}[{k!r}]" for k, v in obj.items()
                     if id(v) in originals and originals[id(v)][0] is v]
    return left


def _traced_step(tr: Tracer, family, step):
    """Wrap one descriptor's step; the layer is the module defining it."""
    layer = step.__module__.rsplit(".", 1)[-1]
    nid = tr.step_ids.get(layer)
    if nid is None:
        nid = tr.step_ids[layer] = tr.name_id("step", layer)
    nonlinear = layer == "families_nonlinear"
    candidates = _candidates(family)
    limit_id = tr.nid["chernoff_limit"]
    partition_id = tr.nid["apply_partition"]
    c = tr.c

    def traced(t, x):
        i = tr.enter(nid)
        try:
            result = step(t, x)
        finally:
            tr.leave(i, nid)
        t0 = perf_counter()
        c.steps += 1
        if tr.open_by_name[limit_id]:
            c.steps_in_limit += 1
        if tr.open_by_name[partition_id]:
            c.steps_in_partition += 1
        key = (id(family), t)
        if key in c.seen_dt:
            c.dt_reuse += 1
        else:
            c.seen_dt.add(key)
        if nonlinear:
            c.nonlinear_steps += 1
            c.nonlinear_candidates += candidates
        if tr.open_by_layer["diagnostics"]:
            c.diag_steps += 1
            arr = x.coordinates if hasattr(x, "coordinates") else x.values
            skey = (id(family), t, hash(arr.tobytes()))
            if skey in c.seen_state:
                c.diag_repeats += 1
            else:
                c.seen_state.add(skey)
        tr.charge_hook(t0)
        return result

    traced.__wrapped_original__ = step
    return traced


def _arrays(tr: Tracer):
    start = np.frombuffer(tr.start, dtype=np.float64)
    end = np.frombuffer(tr.end, dtype=np.float64)
    parent = np.frombuffer(tr.parent, dtype=np.int64)
    name = np.frombuffer(tr.name, dtype=np.int64)
    exp = np.frombuffer(tr.exp, dtype=np.int64)
    hook = np.frombuffer(tr.hook, dtype=np.float64)
    dur = end - start
    covered = hook.copy()
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur, dur - covered, parent, name, exp


def _outer_time(tr, dur, parent, name, names: set[str]) -> float:
    """Summed duration of spans named in `names` with no such ancestor."""
    ids = {i for i, n in enumerate(tr.names) if n in names}
    total = 0.0
    for i in np.flatnonzero(np.isin(name, list(ids))):
        p = parent[i]
        while p >= 0 and name[p] not in ids:
            p = parent[p]
        if p < 0:
            total += dur[i]
    return float(total)


def layer_metrics(tr: Tracer, wall_s: float) -> dict:
    """Per-layer metrics of the timed phase (experiment id >= 0)."""
    dur, self_s, parent, name, exp = _arrays(tr)
    run = exp >= 0
    c = tr.c
    layers = np.asarray(tr.layers)

    def self_of(mask):
        return float(np.sum(self_s[mask]))

    def by_name(*ns, phase=run, inclusive=False):
        ids = [i for i, n in enumerate(tr.names) if n in ns]
        mask = phase & np.isin(name, ids)
        return float(np.sum(dur[mask])) if inclusive else self_of(mask)

    m = {}
    heat_s = by_name("heat_multi_step")
    taps = c.heat_taps
    m["linear.heat_s"] = heat_s
    m["linear.heat_calls"] = int(np.sum(run & (name == tr.nid["heat_multi_step"])))
    m["linear.heat_taps_p50"] = float(statistics.median(taps)) if taps else 0.0
    m["linear.heat_taps_max"] = int(max(taps)) if taps else 0
    m["linear.heat_gflop"] = c.heat_flop / 1e9
    m["linear.heat_gflops_rate"] = c.heat_flop / 1e9 / heat_s if heat_s else 0.0
    m["linear.gbm_s"] = by_name("gbm_step")
    m["linear.gbm_calls"] = int(np.sum(run & (name == tr.nid["gbm_step"])))
    m["linear.dt_reuse_share"] = c.dt_reuse / c.steps if c.steps else 0.0
    m["nonlinear.self_s"] = self_of(run & (layers[name] == "families_nonlinear"))
    m["nonlinear.candidates_mean"] = (c.nonlinear_candidates / c.nonlinear_steps
                                      if c.nonlinear_steps else 0.0)
    m["nonlinear.ode_step_s"] = by_name("ode_euler_step", inclusive=True)
    m["chernoff.partition_self_s"] = by_name("apply_partition")
    chernoff_self = self_of(run & (layers[name] == "chernoff"))
    m["chernoff.overhead_us_per_step"] = (chernoff_self * 1e6 / c.steps_in_partition
                                          if c.steps_in_partition else 0.0)
    m["chernoff.steps"] = c.limit_steps_total
    m["chernoff.levels_per_limit"] = c.limit_levels / c.limits if c.limits else 0.0
    m["chernoff.converged_ratio"] = c.limit_converged / c.limits if c.limits else 0.0
    for task, span_names in DIAG_TASK_SPANS.items():
        m[f"diag.{task}_s"] = _outer_time(tr, np.where(run, dur, 0.0), parent, name,
                                          span_names)
    m["diag.step_calls"] = c.diag_steps
    m["diag.repeat_share"] = c.diag_repeats / c.diag_steps if c.diag_steps else 0.0
    m["state.construct_s"] = by_name("GridFunction", "VectorState")
    m["state.construct_calls"] = c.constructs
    m["state.validated_mb"] = c.validated_bytes / 1e6
    m["state.distance_s"] = by_name("distance")
    m["state.csv_write_s"] = by_name("write_csv", inclusive=True)
    m["state.csv_read_s"] = by_name("read_csv_table", inclusive=True)
    m["state.csv_rows"] = c.csv_rows
    setup = exp == SETUP
    m["cli.parse_s"] = by_name("parse_config", phase=setup, inclusive=True)
    m["cli.build_family_s"] = by_name("build_family", phase=setup, inclusive=True)
    for task in TASKS:
        m[f"cli.task_s.{task}"] = by_name(f"task.{task}", inclusive=True)
    for layer in MODULES:
        m[f"layer.{layer}.self_s"] = self_of(run & (layers[name] == layer))
    for layer in MODULES:
        m[f"share.{layer}"] = m[f"layer.{layer}.self_s"] / wall_s
    m["share.covered"] = sum(m[f"share.{layer}"] for layer in MODULES)
    m["trace.spans"] = int(len(dur))
    return m


def self_checks(tr: Tracer, m: dict) -> list[str]:
    """Tracing invariants; returns the failed ones."""
    c = tr.c
    bad = []
    if c.steps_in_limit != c.limit_steps_total:
        bad.append(f"step calls under chernoff_limit ({c.steps_in_limit}) != "
                   f"sum of steps_total ({c.limit_steps_total})")
    distance_calls = int(np.sum(np.frombuffer(tr.name, dtype=np.int64)
                                == tr.nid["distance"]))
    if distance_calls < c.grid_deltas:
        bad.append(f"distance calls ({distance_calls}) < grid-state deltas "
                   f"({c.grid_deltas}): distance is not traced everywhere")
    if m["share.covered"] < 0.9:
        bad.append(f"named layers cover {m['share.covered']:.3f} < 0.9 of traced wall time")
    return bad


def write_spans(tr: Tracer, path, exp_names: list[str]) -> None:
    """One JSON object per line: name, layer, start, end, parent, experiment."""
    t0 = tr.start[0] if len(tr.start) else 0.0
    labels = [json.dumps(n) for n in tr.names]
    layers = [json.dumps(n) for n in tr.layers]
    exps = {SETUP: '"setup"', **{i: json.dumps(e) for i, e in enumerate(exp_names)}}
    with open(path, "w") as fh:
        for i in range(len(tr.start)):
            n = tr.name[i]
            fh.write(f'{{"i": {i}, "name": {labels[n]}, "layer": {layers[n]}, '
                     f'"start": {tr.start[i] - t0:.9f}, "end": {tr.end[i] - t0:.9f}, '
                     f'"parent": {tr.parent[i]}, "experiment": {exps[tr.exp[i]]}}}\n')
