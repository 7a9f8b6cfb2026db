"""Runtime span tracing of binident's public functions.

:class:`Tracer` wraps the public entry points of each module while it is
active (``with Tracer(pkg) as tr:``) and restores the originals on exit; no
file of the library is edited.  Every call records one span (name, start,
end, parent) in memory.  A few wrappers also count work where it happens
(draw bytes, mixing flops, rows written); those counts are computed from
array shapes and arguments, never timed.

:func:`layer_metrics` turns the spans and counts of one operation into the
per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

import numpy as np


# (module, attribute path, span name).  The span name is the layer-level
# label the metric derivations below look up.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("runner", "run_experiment", "runner.run_experiment"),
    ("runner", "ExperimentConfig.from_ini", "runner.from_ini"),
    ("runner", "build_model", "runner.build_model"),
    ("runner", "build_schedule", "runner.build_schedule"),
    ("runner", "preflight", "runner.preflight"),
    ("runner", "write_trajectory_csv", "runner.write_trajectory_csv"),
    ("identifier", "run", "identifier.run"),
    ("identifier", "dsaawet_identification_step", "identifier.step"),
    ("identifier", "NetworkSnapshot.__post_init__", "identifier.snapshot"),
    ("identifier", "TruncationLedger.record", "identifier.ledger"),
    ("identifier", "InvariantMonitor.__call__", "identifier.monitor"),
    ("streams", "ModelStreams.phi_step", "streams.phi_step"),
    ("streams", "ModelStreams.noise_step", "streams.noise_step"),
    ("plant", "PhiBatch.thresholds", "plant.thresholds"),
    ("plant", "PhiBatch.thresholds_common", "plant.thresholds_common"),
    ("plant", "PhiBatch.outputs", "plant.outputs"),
    ("plant", "PhiBatch.add_innovation", "plant.add_innovation"),
    ("topology", "TopologySchedule.__getitem__", "topology.schedule"),
    ("topology", "validate_c4", "topology.validate_c4"),
    ("topology", "deviation_profile", "topology.deviation_profile"),
    ("topology", "fit_geometric_envelope", "topology.fit_geometric_envelope"),
    ("analysis", "RegressionContext.__post_init__", "analysis.context"),
    ("analysis", "regression_function", "analysis.regression_function"),
    ("analysis", "regression_function_mc", "analysis.regression_function_mc"),
    ("analysis", "jacobian_at_root", "analysis.jacobian_at_root"),
    ("analysis", "TrajectoryRecorder.__call__", "analysis.recorder"),
    ("analysis", "TrajectoryRecorder.metrics", "analysis.recorder_metrics"),
    ("oracle", "solve_root", "oracle.solve_root"),
    ("oracle", "centralized_baseline", "oracle.centralized_baseline"),
    ("oracle", "identifiability_probe", "oracle.identifiability_probe"),
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_step(counts, args, kwargs, result):
    snap = _arg(args, kwargs, 0, "s")
    n, l = snap.theta.shape
    counts["mix_flops"] += 2 * n * n * l
    counts["mix_bytes"] += 8 * (n * n + 2 * n * l)
    if not snap.sigma_uniform:
        counts["nonuniform_steps"] += 1


def _count_phi(counts, args, kwargs, result):
    counts["draw_bytes"] += result.eta.nbytes if result.is_sparse else result.dense.nbytes


def _count_noise(counts, args, kwargs, result):
    counts["draw_bytes"] += result.nbytes


def _count_run(counts, args, kwargs, result):
    ledger = result.ledger
    counts["truncations"] += ledger.truncation_events
    counts["sigma_max"] = max(counts["sigma_max"], ledger.sigma_max)
    counts["settle_step"] = max(counts["settle_step"], ledger.last_change)


def _count_rows(counts, args, kwargs, result):
    counts["recorder_rows"] += result.n_rows


def _count_trajectory(counts, args, kwargs, result):
    counts["trajectory_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _count_mc(counts, args, kwargs, result):
    counts["mc_samples"] += result.samples


def _count_baseline(counts, args, kwargs, result):
    counts["baseline_steps"] += _arg(args, kwargs, 1, "steps")


def _count_probe(counts, args, kwargs, result):
    counts["probe_steps"] += result.steps


COUNTERS = {
    "identifier.step": _count_step,
    "streams.phi_step": _count_phi,
    "streams.noise_step": _count_noise,
    "identifier.run": _count_run,
    "analysis.recorder_metrics": _count_rows,
    "runner.write_trajectory_csv": _count_trajectory,
    "analysis.regression_function_mc": _count_mc,
    "oracle.centralized_baseline": _count_baseline,
    "oracle.identifiability_probe": _count_probe,
}


class Tracer:
    """Wraps the functions in :data:`TARGETS` while the context is open.

    Module-level functions are replaced in every binident module that holds
    a reference to them (``from .x import f`` copies the name), methods on
    their class.  A target the library no longer has is listed in
    ``missing`` and its layers report 0.  Spans are kept as parallel lists;
    :meth:`take` hands over the spans and counts of one operation and
    starts afresh.
    """

    def __init__(self, package):
        self._pkg = package
        self._modules = [
            getattr(package, name)
            for name in ("cli", "runner", "identifier", "streams", "plant",
                         "topology", "analysis", "oracle")
        ] + [package]
        self.names = [name for _, _, name in TARGETS]
        self._restore = []
        self.missing: list[str] = []
        self.name_id: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self._stack: list[int] = []
        self.counts: defaultdict = defaultdict(int)

    def _clear(self) -> None:
        for col in (self.name_id, self.start, self.end, self.parent, self._stack):
            col.clear()
        self.counts.clear()

    def _wrap(self, fn, name_idx: int, counter):
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        stack, counts, clock = self._stack, self.counts, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(name_idx)
            parent.append(stack[-1] if stack else -1)
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        for idx, (mod_name, path, span) in enumerate(TARGETS):
            module = getattr(self._pkg, mod_name)
            counter = COUNTERS.get(span)
            if "." in path:
                cls_name, attr = path.split(".")
                raw = vars(getattr(module, cls_name, object)).get(attr)
                if raw is None:
                    self.missing.append(f"{mod_name}.{path}")
                    continue
                cls = getattr(module, cls_name)
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, idx, counter))
                else:
                    new = self._wrap(raw, idx, counter)
                setattr(cls, attr, new)
                self._restore.append((cls, attr, raw))
            else:
                orig = getattr(module, path, None)
                if orig is None:
                    self.missing.append(f"{mod_name}.{path}")
                    continue
                new = self._wrap(orig, idx, counter)
                for mod in self._modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, new)
                            self._restore.append((mod, attr, orig))
        self._clear()
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def take(self) -> tuple[dict, dict]:
        """Spans (as numpy columns) and counts recorded since the last take."""
        spans = {
            "name_id": np.array(self.name_id, dtype=np.int64),
            "start": np.array(self.start, dtype=np.int64),
            "end": np.array(self.end, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
        }
        counts = dict(self.counts)
        self._clear()
        return spans, counts


def span_totals(spans: dict, names: list[str]) -> tuple[dict, dict]:
    """Total time and self time (both in s) per span name.

    Self time is a span's duration minus the durations of its direct
    children, so nested wrapped calls are never counted twice.
    """
    name_id, parent = spans["name_id"], spans["parent"]
    dur = (spans["end"] - spans["start"]).astype(np.float64) * 1e-9
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_time = dur - child
    m = len(names)
    tot = np.bincount(name_id, weights=dur, minlength=m)
    slf = np.bincount(name_id, weights=self_time, minlength=m)
    return dict(zip(names, tot.tolist())), dict(zip(names, slf.tolist()))


def quad_calls_in_solver(spans: dict, names: list[str]) -> tuple[int, float]:
    """Number and total time (s) of quadrature calls made inside solve_root."""
    name_id, parent = spans["name_id"], spans["parent"]
    quad, solver = names.index("analysis.regression_function"), names.index("oracle.solve_root")
    calls, total = 0, 0
    for idx in np.nonzero(name_id == quad)[0]:
        up = parent[idx]
        while up >= 0 and name_id[up] != solver:
            up = parent[up]
        if up >= 0:
            calls += 1
            total += int(spans["end"][idx] - spans["start"][idx])
    return calls, total * 1e-9


def layer_metrics(spans: dict, counts: dict, names: list[str], steps: int) -> dict:
    """Per-layer metrics of one operation of ``steps`` recursion steps.

    Layers the operation never entered report 0.
    """
    tot, slf = span_totals(spans, names)
    per_step = 1e6 / steps if steps else 0.0
    quad_calls, quad_s = quad_calls_in_solver(spans, names)
    c = defaultdict(int, counts)

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    return {
        "streams.draw_us_per_step": (tot["streams.phi_step"] + tot["streams.noise_step"]) * per_step,
        "streams.bytes_per_step": c["draw_bytes"] / steps if steps else 0.0,
        "plant.sensing_us_per_step": (
            tot["plant.thresholds"] + tot["plant.thresholds_common"] + tot["plant.outputs"]
        ) * per_step,
        "plant.innovation_us_per_step": tot["plant.add_innovation"] * per_step,
        "identifier.step_us_per_step": tot["identifier.step"] * per_step,
        "identifier.self_us_per_step": slf["identifier.step"] * per_step,
        "identifier.snapshot_us_per_step": tot["identifier.snapshot"] * per_step,
        "identifier.ledger_us_per_step": tot["identifier.ledger"] * per_step,
        "identifier.monitor_us_per_step": tot["identifier.monitor"] * per_step,
        "identifier.loop_us_per_step": slf["identifier.run"] * per_step,
        "identifier.mix_flops_per_step": c["mix_flops"] / steps if steps else 0.0,
        "identifier.mix_bytes_per_step": c["mix_bytes"] / steps if steps else 0.0,
        "identifier.truncations": c["truncations"],
        "identifier.sigma_max": c["sigma_max"],
        "identifier.settle_step": c["settle_step"],
        "identifier.nonuniform_steps": c["nonuniform_steps"],
        "topology.schedule_us_per_step": tot["topology.schedule"] * per_step,
        "topology.validate_s": tot["topology.validate_c4"],
        "topology.deviation_profile_s": tot["topology.deviation_profile"],
        "analysis.recorder_us_per_step": (
            tot["analysis.recorder"] + tot["analysis.recorder_metrics"]
        ) * per_step,
        "analysis.recorder_rows": c["recorder_rows"],
        "analysis.quad_calls": quad_calls,
        "analysis.quad_us_per_call": quad_s * 1e6 / quad_calls if quad_calls else 0.0,
        "analysis.mc_samples_per_s": rate(c["mc_samples"], tot["analysis.regression_function_mc"]),
        "oracle.solve_root_s": tot["oracle.solve_root"],
        "oracle.baseline_steps_per_s": rate(c["baseline_steps"], tot["oracle.centralized_baseline"]),
        "oracle.probe_steps_per_s": rate(c["probe_steps"], tot["oracle.identifiability_probe"]),
        "runner.build_s": tot["runner.from_ini"] + tot["runner.build_model"]
        + tot["runner.build_schedule"],
        "runner.preflight_s": tot["runner.preflight"],
        "runner.write_trajectory_s": tot["runner.write_trajectory_csv"],
        "runner.trajectory_bytes": c["trajectory_bytes"],
        "runner.self_s": slf["runner.run_experiment"],
        "cli.self_s": slf["cli.main"],
    }


def write_spans(path, spans: dict, names: list[str]) -> None:
    """CSV of one operation's spans: id, parent, name, start_ns, end_ns.

    Times count from the start of the operation's first span.
    """
    lines = ["id,parent,name,start_ns,end_ns"]
    t0 = int(spans["start"].min()) if spans["start"].size else 0
    for idx, (nid, s, e, p) in enumerate(
        zip(spans["name_id"].tolist(), spans["start"].tolist(),
            spans["end"].tolist(), spans["parent"].tolist())
    ):
        lines.append(f"{idx},{p},{names[nid]},{s - t0},{e - t0}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
