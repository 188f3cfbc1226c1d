"""Tests of the benchmark's tracer: self-time arithmetic, binding restore,
and repeatable computed counts.

    python3 -m pytest perfbench/test_tracer.py -q
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import workloads  # noqa: E402
from tracer import COMPUTED, Span, Tracer, layer_metrics, patched, self_times  # noqa: E402

TINY = workloads.PaperShape(grid=(8, 8), dims=(6, 5), n_train=4, n_test=6,
                            branch_widths=(8, 4), fusion_widths=(4,),
                            fit_n_aug=4, fit_epochs=1, inspect_n_aug=2, inspect_epochs=1)


def _g2sf_bindings():
    return {(name, attr): value
            for name, module in list(sys.modules.items())
            if module is not None and (name == "g2sf" or name.startswith("g2sf."))
            for attr, value in vars(module).items()
            if callable(value)} | {("g2sf.nn", "Adam.step"): vars(workloads.trainer.Adam)["step"]}


def test_self_time_on_a_toy_call_tree():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    tr = Tracer(clock=lambda: next(ticks), cpu_clock=lambda: 0.0)
    with tr.span("root"):           # [0, 10]
        with tr.span("a"):          # [1, 4]
            with tr.span("leaf"):   # [2, 3]
                pass
        with tr.span("b"):          # [5, 9]
            pass
    assert [s.parent for s in tr.spans] == [None, 0, 1, 0]
    assert self_times(tr.spans) == [3.0, 2.0, 1.0, 4.0]
    assert tr.self_total("root") == 3.0 and tr.total("root") == 10.0


def test_self_time_counts_overlapping_children_once():
    spans = [Span(0, "p", 0.0, 10.0, None), Span(1, "c", 1.0, 4.0, 0),
             Span(2, "c", 3.0, 6.0, 0), Span(3, "c", 8.0, 12.0, 0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_every_patched_binding_is_restored():
    from g2sf import bank, geometry
    from g2sf.features import FeatureMap

    before = _g2sf_bindings()
    original = bank.query_neighbors_batch
    rng = np.random.default_rng(0)
    b = bank.build_bank(rng.standard_normal((40, 3)), "pc", 0.5)
    fmap = FeatureMap("pc", rng.standard_normal((4, 4, 3)))
    norm = geometry.DistanceNormalizer(1.0, 1.0)
    tr = Tracer()
    with pytest.raises(RuntimeError):
        with patched(tr):
            # geometry binds the function by name; both bindings are patched.
            assert geometry.query_neighbors_batch is not original
            assert bank.query_neighbors_batch is geometry.query_neighbors_batch
            geometry.encode_map(fmap, b, 1, norm)
            raise RuntimeError("leave the block by an exception")
    assert _g2sf_bindings() == before
    names = [s.name for s in tr.spans]
    assert names == ["geometry.encode_map", "bank.query"]
    assert tr.spans[1].parent == tr.spans[0].id
    assert tr.counts["bank.query_pairs"] == 16 * 20


def _traced_tiny_run(tmp_path) -> dict:
    fit_state = workloads.fit_load(_set_up(workloads.fit_setup, tmp_path / "fit"), TINY)
    inspect_state = workloads.inspect_load(_set_up(workloads.inspect_setup,
                                                   tmp_path / "inspect"), TINY)
    tr = Tracer()
    with patched(tr):
        workloads.fit_run(fit_state, tr, 0)
        workloads.inspect_run(inspect_state, tr, 0)
    return layer_metrics(tr)


def _set_up(setup, work):
    work.mkdir(parents=True)
    setup(11, work, TINY)
    return work


def test_computed_counts_repeat_exactly(tmp_path):
    before = _g2sf_bindings()
    first = _traced_tiny_run(tmp_path / "one")
    second = _traced_tiny_run(tmp_path / "two")
    for name in COMPUTED:
        assert first[name][0] > 0, name
        assert first[name] == second[name], name
    assert _g2sf_bindings() == before
