"""Span tracer that times calls into g2sf from outside the package.

A traced run replaces each probed function with a wrapper that records one
span (name, start, end, parent) per call plus the probe's work counts. Many
g2sf modules import names directly (``from .bank import
query_neighbors_batch`` in geometry, ``from .tensorio import read_tensor`` in
cli and features), so a probe rebinds the function in *every* loaded g2sf
module that holds it, and :func:`patched` restores every binding it changed
on exit. Spans stay in memory; :func:`layer_metrics` turns them into the
per-layer metrics of ``BENCHMARK.json``.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import resource
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


def cpu_seconds() -> float:
    """User + system CPU time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    cpu: float = 0.0  # filled only for spans opened with cpu=True


class Tracer:
    """In-memory span recorder with per-name work counters."""

    def __init__(self, clock=time.perf_counter, cpu_clock=cpu_seconds):
        self.clock = clock
        self.cpu_clock = cpu_clock
        self.spans: list[Span] = []
        self.counts = defaultdict(float)
        self.overhead = 0.0  # wrapper time outside the wrapped calls
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, cpu: bool = False):
        parent = self._open[-1] if self._open else None
        span = Span(len(self.spans), name, self.clock(), float("nan"), parent)
        self.spans.append(span)
        cpu0 = self.cpu_clock() if cpu else 0.0
        self._open.append(span.id)
        try:
            yield span
        finally:
            self._open.pop()
            span.end = self.clock()
            if cpu:
                span.cpu = self.cpu_clock() - cpu0

    def count(self, key: str, value: float):
        self.counts[key] += value

    def count_max(self, key: str, value: float):
        self.counts[key] = max(self.counts[key], value)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.named(name))

    def cpu_total(self, name: str) -> float:
        return sum(s.cpu for s in self.named(name))

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def self_total(self, name: str) -> float:
        times = self_times(self.spans)
        return sum(times[s.id] for s in self.named(name))


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    out = [s.end - s.start for s in spans]
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    for pid, kids in children.items():
        parent = spans[pid]
        covered, reach = 0.0, parent.start
        for kid in sorted(kids, key=lambda s: s.start):
            lo, hi = max(kid.start, reach), min(kid.end, parent.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[pid] -= covered
    return out


# ---------------------------------------------------------------------------
# Probes: which g2sf functions are traced, and what each one counts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Probe:
    module: str          # defining module, e.g. "g2sf.bank"
    attr: str            # function name, or "Class.method"
    span: str            # span name, "<layer>.<operation>"
    counter: object = None  # counter(tracer, bound arguments, result)


def _count_read(tr, a, result):
    tr.count("tensorio.read_bytes", result[0].nbytes)


def _count_write(tr, a, result):
    tr.count("tensorio.write_bytes", 4 * np.asarray(a["array"]).size)  # written as f32


def _count_build(tr, a, result):
    tr.count("bank.coreset_selected", result.size)


def _count_query(tr, a, result):
    rows = np.asarray(a["queries"]).shape[0]
    size, dim = a["bank"].size, a["bank"].dim
    tr.count("bank.query_rows", rows)
    tr.count("bank.query_pairs", rows * size)
    tr.count("bank.query_kept", rows * min(2 * a["k"] + 1, size))
    # The (chunk, P, D) float64 difference block of the brute-force scan.
    tr.count_max("bank.query_scratch_bytes", min(rows, a["chunk"]) * size * dim * 8)


def _count_pool(tr, a, pool):
    samples = a["samples_with_labels"]
    tr.count("synthesis.pool_cells", pool.size)
    tr.count("synthesis.pool_grid_cells", sum(p.grid[0] * p.grid[1] for p, _ in samples))
    tr.count("synthesis.pool_bytes", sum(v.nbytes for v in vars(pool).values()
                                         if isinstance(v, np.ndarray)))


def _count_rows(key, arg):
    def counter(tr, a, result):
        tr.count(key, np.atleast_2d(a[arg]).shape[0])
    return counter


def _count_linear(key, flop_per_mac):
    def counter(tr, a, result):
        block = a["block"]
        rows = np.asarray(a["x"]).size // block.in_dim
        tr.count(key, flop_per_mac * rows * block.in_dim * block.out_dim)
    return counter


def _count_train(tr, a, result):
    epochs = len(result[1])
    tr.count("trainer.epochs", epochs)
    tr.count("trainer.cells", epochs * a["pool"].train_indices.size)


def _count_ranks(tr, a, result):
    tr.count("scoring.ranks_used", a["k"] + 1)
    tr.count("scoring.ranks_queried", 2 * a["k"] + 1)


def _count_auroc(tr, a, result):
    tr.count("evaluation.auroc_items", np.asarray(a["scores"]).size)


def _count_aupro(tr, a, result):
    tr.count("evaluation.aupro_pixels", sum(np.size(m) for m in a["score_maps"]))


PROBES = (
    Probe("g2sf.tensorio", "read_tensor", "tensorio.read", _count_read),
    Probe("g2sf.tensorio", "write_tensor", "tensorio.write", _count_write),
    Probe("g2sf.features", "load_sample", "features.load_sample"),
    Probe("g2sf.bank", "build_bank", "bank.build", _count_build),
    Probe("g2sf.bank", "query_neighbors_batch", "bank.query", _count_query),
    Probe("g2sf.geometry", "encode_map", "geometry.encode_map"),
    Probe("g2sf.geometry", "fit_normalizer", "geometry.fit_normalizer"),
    Probe("g2sf.synthesis", "augment_dataset", "synthesis.augment"),
    Probe("g2sf.synthesis", "pool_from_samples", "synthesis.pool", _count_pool),
    Probe("g2sf.lspn", "forward_batch", "lspn.forward", _count_rows("lspn.forward_rows", "protos")),
    Probe("g2sf.lspn", "backward_batch", "lspn.backward",
          _count_rows("lspn.backward_rows", "grad_w")),
    # Forward is one GEMM (2 flop per multiply-add); backward is two (grad_x, grad_w).
    Probe("g2sf.nn", "linear_forward", "nn.linear_forward",
          _count_linear("nn.linear_forward_flop", 2)),
    Probe("g2sf.nn", "linear_backward", "nn.linear_backward",
          _count_linear("nn.linear_backward_flop", 4)),
    Probe("g2sf.nn", "Adam.step", "nn.adam_step"),
    Probe("g2sf.losses", "total_loss_with_grads", "losses.loss_grad"),
    Probe("g2sf.losses", "total_loss", "losses.loss"),
    Probe("g2sf.trainer", "train", "trainer.train", _count_train),
    Probe("g2sf.trainer", "make_negatives", "trainer.make_negatives"),
    Probe("g2sf.scoring", "score_sample", "scoring.score_sample", _count_ranks),
    Probe("g2sf.scoring", "sample_maps", "scoring.sample_maps", _count_ranks),
    Probe("g2sf.scoring", "upsample_smooth", "scoring.upsample_smooth"),
    Probe("g2sf.evaluation", "auroc", "evaluation.auroc", _count_auroc),
    Probe("g2sf.evaluation", "aupro_curve", "evaluation.aupro_curve", _count_aupro),
    Probe("g2sf.evaluation", "report_from_maps", "evaluation.report"),
)


def _wrap(tracer: Tracer, probe: Probe, original):
    signature = inspect.signature(original) if probe.counter else None

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        t0 = tracer.clock()
        with tracer.span(probe.span):
            t_in = tracer.clock()
            result = original(*args, **kwargs)
            t_out = tracer.clock()
        if probe.counter is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            probe.counter(tracer, bound.arguments, result)
        tracer.overhead += tracer.clock() - t0 - (t_out - t_in)
        return result

    return wrapper


def _g2sf_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "g2sf" or name.startswith("g2sf."))]


@contextmanager
def patched(tracer: Tracer, probes=PROBES):
    """Route every probed function through ``tracer`` until the block exits."""
    saved = []  # (owner, attribute, original), restored in reverse order
    try:
        for probe in probes:
            owner = importlib.import_module(probe.module)
            cls_name, _, name = probe.attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
            original = getattr(owner, name)
            wrapper = _wrap(tracer, probe, original)
            targets = [owner] if cls_name else [
                m for m in _g2sf_modules() if vars(m).get(name) is original]
            for target in targets:
                saved.append((target, name, original))
                setattr(target, name, wrapper)
        yield tracer
    finally:
        for target, name, original in reversed(saved):
            setattr(target, name, original)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

CLI_STAGES = ("bank", "synth", "train", "score", "eval", "ablate")

# Metrics derived from argument shapes rather than timed or returned counts.
COMPUTED = (
    "bank.query_pairs",
    "bank.query_scratch_mb_max",
    "bank.query_kept_frac",
    "synthesis.pool_mb",
    "nn.linear_forward_gflop",
    "nn.linear_backward_gflop",
    "scoring.rank_use_frac",
    "evaluation.aupro_pixels",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    c = tr.counts
    m = {}
    for stage in CLI_STAGES:
        m[f"cli.{stage}_s"] = (tr.total(f"cli.{stage}"), "s")
        m[f"cli.{stage}_cpu_s"] = (tr.cpu_total(f"cli.{stage}"), "s")
    for op in ("read", "write"):
        m[f"tensorio.{op}_s"] = (tr.total(f"tensorio.{op}"), "s")
        m[f"tensorio.{op}_calls"] = (tr.calls(f"tensorio.{op}"), "count")
        m[f"tensorio.{op}_mb"] = (c[f"tensorio.{op}_bytes"] / 1e6, "MB")
    m["features.load_sample_s"] = (tr.total("features.load_sample"), "s")
    m["features.load_sample_calls"] = (tr.calls("features.load_sample"), "count")

    m["bank.build_s"] = (tr.total("bank.build"), "s")
    m["bank.build_calls"] = (tr.calls("bank.build"), "count")
    m["bank.coreset_selected"] = (c["bank.coreset_selected"], "count")
    m["bank.query_s"] = (tr.total("bank.query"), "s")
    m["bank.query_calls"] = (tr.calls("bank.query"), "count")
    m["bank.query_rows"] = (c["bank.query_rows"], "count")
    m["bank.query_pairs"] = (c["bank.query_pairs"], "count")
    m["bank.query_scratch_mb_max"] = (c["bank.query_scratch_bytes"] / 1e6, "MB")
    m["bank.query_kept_frac"] = (_ratio(c["bank.query_kept"], c["bank.query_pairs"]), "ratio")

    m["geometry.encode_map_s"] = (tr.self_total("geometry.encode_map"), "s")
    m["geometry.encode_map_calls"] = (tr.calls("geometry.encode_map"), "count")
    m["geometry.fit_normalizer_s"] = (tr.self_total("geometry.fit_normalizer"), "s")

    m["synthesis.augment_s"] = (tr.total("synthesis.augment"), "s")
    m["synthesis.pool_s"] = (tr.self_total("synthesis.pool"), "s")
    m["synthesis.pool_cells"] = (c["synthesis.pool_cells"], "count")
    m["synthesis.pool_fg_frac"] = (
        _ratio(c["synthesis.pool_cells"], c["synthesis.pool_grid_cells"]), "ratio")
    m["synthesis.pool_mb"] = (c["synthesis.pool_bytes"] / 1e6, "MB")

    m["lspn.forward_s"] = (tr.self_total("lspn.forward"), "s")
    m["lspn.forward_rows"] = (c["lspn.forward_rows"], "count")
    m["lspn.backward_s"] = (tr.self_total("lspn.backward"), "s")
    m["lspn.backward_rows"] = (c["lspn.backward_rows"], "count")

    fwd_s, bwd_s = tr.total("nn.linear_forward"), tr.total("nn.linear_backward")
    fwd_gflop = c["nn.linear_forward_flop"] / 1e9
    bwd_gflop = c["nn.linear_backward_flop"] / 1e9
    m["nn.linear_forward_s"] = (fwd_s, "s")
    m["nn.linear_backward_s"] = (bwd_s, "s")
    m["nn.linear_forward_gflop"] = (fwd_gflop, "GFLOP")
    m["nn.linear_backward_gflop"] = (bwd_gflop, "GFLOP")
    m["nn.linear_gflops_per_s"] = (_ratio(fwd_gflop + bwd_gflop, fwd_s + bwd_s), "GFLOP/s")
    m["nn.adam_step_s"] = (tr.total("nn.adam_step"), "s")
    m["nn.adam_steps"] = (tr.calls("nn.adam_step"), "count")

    m["losses.loss_grad_s"] = (tr.total("losses.loss_grad"), "s")
    m["losses.loss_s"] = (tr.total("losses.loss"), "s")

    m["trainer.train_s"] = (tr.self_total("trainer.train"), "s")
    m["trainer.make_negatives_s"] = (tr.total("trainer.make_negatives"), "s")
    m["trainer.rows_per_s"] = (_ratio(c["trainer.cells"], tr.total("trainer.train")), "rows/s")
    m["trainer.epochs"] = (c["trainer.epochs"], "count")

    m["scoring.score_sample_s"] = (tr.self_total("scoring.score_sample"), "s")
    m["scoring.sample_maps_s"] = (tr.total("scoring.sample_maps"), "s")
    m["scoring.upsample_smooth_s"] = (tr.total("scoring.upsample_smooth"), "s")
    m["scoring.rank_use_frac"] = (
        _ratio(c["scoring.ranks_used"], c["scoring.ranks_queried"]), "ratio")

    m["evaluation.auroc_s"] = (tr.total("evaluation.auroc"), "s")
    m["evaluation.auroc_items"] = (c["evaluation.auroc_items"], "count")
    m["evaluation.aupro_curve_s"] = (tr.total("evaluation.aupro_curve"), "s")
    m["evaluation.aupro_curve_calls"] = (tr.calls("evaluation.aupro_curve"), "count")
    m["evaluation.aupro_pixels"] = (c["evaluation.aupro_pixels"], "count")
    m["evaluation.report_s"] = (tr.self_total("evaluation.report"), "s")
    return m
