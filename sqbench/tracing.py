"""In-memory spans around calls into sparseqi's public functions.

The benchmark does not change the package: while tracing is on it replaces
selected functions and methods with wrappers that record a span (name,
start, end, parent, operation id, counts) and restores the originals
afterwards.  A layer is a module; each span name is ``<module>.<stage>``.
"""

from __future__ import annotations

import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int | None = None
    op: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of one thread; spans of one operation share ``op``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = 0

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, self.clock(), parent=parent, op=self.op)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = self.clock()

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "op": s.op, "counts": s.counts}
            for s in self.spans
        ]


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        s.duration - _union_length(children.get(i, [])) for i, s in enumerate(spans)
    ]


def totals_by_name(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: summed inclusive time and summed self time."""
    out: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, self_times(spans)):
        entry = out.setdefault(s.name, {"total": 0.0, "self": 0.0})
        entry["total"] += s.duration
        entry["self"] += own
    return out


# ---------------------------------------------------------------------------
# wrappers around the package
# ---------------------------------------------------------------------------


def _points(args, result) -> dict:
    return {"points": int(result.size)}


def _block_points(args, result) -> dict:
    # args[0] is the HierCoeffs instance being evaluated
    n = int(result.size)
    return {"points": n, "block_points": n * len(args[0].block_items())}


def _targets():
    """(owner, attribute, span name, counter) for every traced entry point.

    A counter maps the call's positional arguments and its result to the
    counts stored on the span.
    """
    from sparseqi import analysis, quasi_interp, smolyak, testfuncs

    HC, Trig, Cache = quasi_interp.HierCoeffs, testfuncs.TrigFunction, quasi_interp.SampleCache
    return [
        (quasi_interp, "build_scheme", "laurent.derive", None),
        (testfuncs, "random_mixed_smooth", "testfuncs.fixture", None),
        (testfuncs, "builtin_function", "testfuncs.fixture", None),
        (testfuncs, "witness_g1", "testfuncs.fixture", None),
        (testfuncs, "witness_g2", "testfuncs.fixture", None),
        (Trig, "eval_on_axes", "testfuncs.eval", _points),
        (Trig, "eval_points", "testfuncs.eval", _points),
        (quasi_interp, "decompose", "quasi_interp.decompose",
         lambda args, hc: {"blocks": len(hc.block_items())}),
        (Cache, "lattice_values", "quasi_interp.sample",
         lambda args, values: {"requested": int(values.size)}),
        (HC, "to_json", "quasi_interp.to_json", None),
        (smolyak, "enumerate_grid", "smolyak.enumerate_grid",
         lambda args, grid: {"grid_points": grid.n}),
        (smolyak, "recover", "smolyak.recover", None),
        (HC, "eval_points", "kernels.scatter", _block_points),
        (HC, "eval_on_axes", "kernels.grid", _block_points),
        (analysis, "lq_norm", "analysis.lq_norm", None),
        (analysis, "fit_rate", "analysis.fit_rate", None),
    ]


def _wrap(fn, name: str, counter, tracer: Tracer):
    def wrapper(*args, **kwargs):
        with tracer.span(name) as record:
            result = fn(*args, **kwargs)
            if counter is not None:
                record.counts = counter(args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


@contextmanager
def traced(tracer: Tracer):
    """Route the traced entry points through ``tracer`` for the duration.

    Module-level functions are replaced in every ``sparseqi`` module that
    imported them by name, so calls through any alias are seen.
    """
    undo: list[tuple[object, str, object]] = []
    try:
        for owner, attr, name, counter in _targets():
            original = owner.__dict__[attr]
            wrapper = _wrap(original, name, counter, tracer)
            if isinstance(owner, type):
                undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "sparseqi" and not mod_name.startswith("sparseqi."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], n_ops: int, evaluated: int, grid_size: int,
                  bytes_written: int, bytes_read: int, wall: float) -> dict[str, float]:
    """Per-operation means of the per-layer metrics of ``n_ops`` traced operations.

    ``evaluated`` is the number of samples the operations' caches obtained
    from the function and ``grid_size`` the summed closed-form size of their
    grids.  The byte counts are the sizes of the files the CLI wrote and read,
    and ``wall`` is the operations' summed time as the harness timed it.
    Ratios are taken over the totals; ``trace.coverage`` is the share of
    ``wall`` that the layers' self times account for.
    """
    by = totals_by_name(spans)

    def t(name: str, key: str = "total") -> float:
        return by.get(name, {}).get(key, 0.0)

    def count(key: str, name: str, outermost: bool = False, parent: str | None = None) -> int:
        total = 0
        for s in spans:
            if s.name != name:
                continue
            up = None if s.parent is None else spans[s.parent].name
            if outermost and up == name:
                continue
            if parent is not None and up != parent:
                continue
            total += s.counts.get(key, 0)
        return total

    requested = count("requested", "quasi_interp.sample")
    sampled_by_fixture = count("points", "testfuncs.eval", outermost=True,
                               parent="quasi_interp.sample")
    quad_points = 0
    for i, s in enumerate(spans):
        if s.name == "analysis.lq_norm":
            quad_points += max(
                (c.counts.get("points", 0) for c in spans if c.parent == i), default=0
            )
    scatter_s, grid_s = t("kernels.scatter"), t("kernels.grid")
    covered = sum(self_times(spans))
    n = max(n_ops, 1)
    per_op = {
        "laurent.derive_s": t("laurent.derive"),
        "testfuncs.fixture_s": t("testfuncs.fixture"),
        "testfuncs.eval_s": t("testfuncs.eval", "self"),
        "testfuncs.points_evaluated": count("points", "testfuncs.eval", outermost=True),
        "quasi_interp.decompose_s": t("quasi_interp.decompose"),
        "quasi_interp.sample_s": t("quasi_interp.sample", "self"),
        "quasi_interp.stencil_s": t("quasi_interp.decompose", "self"),
        "quasi_interp.samples_requested": requested,
        "quasi_interp.samples_evaluated": evaluated,
        "quasi_interp.blocks": count("blocks", "quasi_interp.decompose"),
        "quasi_interp.to_json_s": t("quasi_interp.to_json"),
        "smolyak.enumerate_grid_s": t("smolyak.enumerate_grid"),
        "smolyak.grid_points": count("grid_points", "smolyak.enumerate_grid"),
        "smolyak.recover_s": t("smolyak.recover", "self"),
        "kernels.scatter_s": scatter_s,
        "kernels.grid_s": grid_s,
        "analysis.lq_norm_s": t("analysis.lq_norm", "self"),
        "analysis.quadrature_points": quad_points,
        "analysis.fit_rate_s": t("analysis.fit_rate"),
        "cli.self_s": t("cli.main", "self"),
        "cli.bytes_written": bytes_written,
        "cli.bytes_read": bytes_read,
    }
    out = {k: v / n for k, v in per_op.items()}
    out.update({
        "quasi_interp.cache_hit_ratio": _ratio(requested - evaluated, requested),
        "quasi_interp.evals_per_grid_point": _ratio(evaluated, grid_size),
        "quasi_interp.sweep_useful_ratio": _ratio(evaluated, sampled_by_fixture),
        "kernels.scatter_block_points_per_s": _ratio(count("block_points", "kernels.scatter"), scatter_s),
        "kernels.grid_block_points_per_s": _ratio(count("block_points", "kernels.grid"), grid_s),
        "trace.coverage": _ratio(covered, wall),
    })
    return out
