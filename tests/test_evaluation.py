"""AUROC/AUPRO metric tests and dataset-level evaluation tests."""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from g2sf.errors import UndefinedMetricError
from g2sf.evaluation import (
    AUPRO_LIMITS,
    EvalReport,
    ablation_scores,
    aupro,
    aupro_curve,
    auroc,
    eval_dataset,
    label_regions,
    score_split,
    write_ablation_csv,
)
from g2sf.selftest import aupro_bruteforce, label_components_bfs
from tests.conftest import DESK_K
from tests.oracles import aupro_curve_argsort, auroc_argsort


def pair_counting_auroc(scores, labels):
    """Oracle: fraction of (anomalous, normal) pairs ranked correctly."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


class TestAuroc:
    def test_hand_case(self):
        scores = [0.1, 0.4, 0.35, 0.8]
        labels = [0, 0, 1, 1]
        assert auroc(scores, labels) == pytest.approx(0.75)
        assert auroc(scores, labels) == pytest.approx(pair_counting_auroc(scores, labels))

    def test_perfect_separation(self):
        assert auroc([1.0, 2.0, 5.0, 6.0], [0, 0, 1, 1]) == 1.0

    def test_label_inversion_antisymmetry(self):
        rng = np.random.default_rng(0)
        scores = rng.random(40)
        labels = rng.integers(0, 2, 40)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert auroc(scores, labels) == pytest.approx(1.0 - auroc(scores, 1 - labels))

    def test_ties_contribute_half(self):
        assert auroc([1.0, 1.0, 2.0], [0, 1, 1]) == pytest.approx(0.75)

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            auroc([0.1, 0.2], [1, 1])

    def test_constant_scores_undefined(self):
        with pytest.raises(UndefinedMetricError):
            auroc([0.5, 0.5, 0.5], [0, 1, 0])

    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.1, 10.0),
           shift=st.floats(-5, 5))
    @settings(max_examples=30, deadline=None)
    def test_monotone_transform_invariance(self, seed, scale, shift):
        rng = np.random.default_rng(seed)
        scores = rng.random(30)
        labels = rng.integers(0, 2, 30)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        base = auroc(scores, labels)
        assert auroc(np.exp(scale * scores) + shift, labels) == pytest.approx(base)

    def test_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            scores = rng.integers(0, 6, 25).astype(float)  # heavy ties
            labels = rng.integers(0, 2, 25)
            if labels.min() == labels.max() or scores.min() == scores.max():
                continue
            assert auroc(scores, labels) == pytest.approx(
                pair_counting_auroc(scores, labels))


@st.composite
def pixel_instances(draw):
    """(score maps, masks) with both pixel classes present: one to three
    samples of their own shapes, continuous or heavily tied scores, optional
    +-inf, and a single anomalous or a single normal pixel among them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shapes = draw(st.lists(st.tuples(st.integers(1, 9), st.integers(1, 9)),
                           min_size=1, max_size=3))
    sizes = [h * w for h, w in shapes]
    n = sum(sizes)
    assume(n >= 2)
    scores = rng.random(n)
    levels = draw(st.sampled_from([None, 2, 3, 4, 5]))
    if levels is not None:  # quantized as test_matches_bruteforce_on_random_instances does
        scores = np.floor(scores * levels)
    if draw(st.booleans()):
        scores[rng.integers(0, n, 2)] = np.inf, -np.inf
    case = draw(st.sampled_from(["random", "one_anomalous", "one_normal"]))
    gt = rng.random(n) < draw(st.floats(0.05, 0.6))
    if case != "random":
        gt[:] = case == "one_normal"
    first, second = rng.choice(n, size=2, replace=False)
    gt[first], gt[second] = case != "one_normal", case == "one_normal"
    cuts = np.cumsum(sizes)[:-1]
    return ([part.reshape(shape) for part, shape in zip(np.split(scores, cuts), shapes)],
            [part.reshape(shape) for part, shape in zip(np.split(gt, cuts), shapes)])


class TestMatchesArgsortOracles:
    """The value-sort metrics return the bytes of the stable-argsort oracles."""

    @given(pixel_instances())
    @settings(max_examples=150, deadline=None)
    def test_aupro_curve_bytes(self, instance):
        maps, masks = instance
        got, want = aupro_curve(maps, masks), aupro_curve_argsort(maps, masks)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()

    @given(pixel_instances())
    @settings(max_examples=150, deadline=None)
    def test_pixel_auroc_bytes(self, instance):
        maps, masks = instance
        scores = np.concatenate([m.reshape(-1) for m in maps])
        labels = np.concatenate([g.reshape(-1) for g in masks])
        if scores.min() == scores.max():
            for metric in (auroc, auroc_argsort):
                with pytest.raises(UndefinedMetricError):
                    metric(scores, labels)
            return
        got, want = auroc(scores, labels), auroc_argsort(scores, labels)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_infinite_scores(self):
        scores = np.array([-np.inf, 0.2, np.inf, 0.2, np.inf, -np.inf])
        labels = np.array([0, 1, 1, 0, 0, 1])
        assert auroc(scores, labels) == auroc_argsort(scores, labels) == 0.5
        maps, masks = [scores.reshape(2, 3)], [labels.astype(bool).reshape(2, 3)]
        for got, want in zip(aupro_curve(maps, masks), aupro_curve_argsort(maps, masks)):
            assert got.tobytes() == want.tobytes()


def scipy_label(mask):
    from scipy import ndimage

    return ndimage.label(mask, structure=np.ones((3, 3), dtype=bool))


def assert_labels_match(masks, oracle):
    """``label_regions`` splits each mask as ``oracle`` does, whatever the
    numbering; regions stay within their mask and count their pixels."""
    regions, sizes = label_regions(masks)
    assert regions.size == sum(int(m.sum()) for m in masks)
    assert np.array_equal(np.bincount(regions, minlength=sizes.size), sizes)
    offset, seen = 0, set()
    for mask in masks:
        want, count = oracle(mask)
        got = regions[offset:offset + int(mask.sum())]
        offset += got.size
        pairs = set(zip(got.tolist(), want[mask].tolist()))
        assert len(pairs) == len(set(got.tolist())) == count
        assert seen.isdisjoint(got.tolist())
        seen.update(got.tolist())
    assert len(seen) == sizes.size


class TestLabelRegions:
    """One-pass 8-connected labeling against scipy and the selftest BFS."""

    @pytest.mark.parametrize("oracle", [scipy_label, label_components_bfs],
                             ids=["ndimage", "bfs"])
    def test_random_masks_of_several_shapes(self, oracle):
        rng = np.random.default_rng(29)
        for _ in range(200):
            masks = [rng.random(tuple(rng.integers(1, 16, size=2))) < rng.random()
                     for _ in range(rng.integers(1, 5))]
            assert_labels_match(masks, oracle)

    @pytest.mark.parametrize("oracle", [scipy_label, label_components_bfs],
                             ids=["ndimage", "bfs"])
    def test_shaped_masks(self, oracle):
        checker = np.indices((7, 9)).sum(axis=0) % 2 == 0  # diagonal joins only: one region
        stripes = np.zeros((8, 8), dtype=bool)
        stripes[::2] = True  # rows two apart never join
        zigzag = np.zeros((6, 12), dtype=bool)
        zigzag[[0, 1, 2, 3, 4, 5, 4, 3, 2, 1, 0, 1], np.arange(12)] = True
        cases = {
            "diagonals": [np.eye(9, dtype=bool) | np.eye(9, dtype=bool)[::-1], checker,
                          zigzag, np.eye(5, 8, 3, dtype=bool)],
            "empty_and_full": [np.zeros((4, 5), dtype=bool), np.ones((4, 5), dtype=bool),
                               np.ones((1, 1), dtype=bool), np.zeros((1, 1), dtype=bool)],
            "rows_and_columns": [np.array([[1, 1, 0, 1, 0, 0, 1, 1, 1]], dtype=bool),
                                 np.array([[1], [1], [0], [1], [0], [0], [1]], dtype=bool),
                                 np.ones((1, 6), dtype=bool), np.ones((6, 1), dtype=bool)],
            "stacked_shapes": [np.ones((3, 2), dtype=bool), stripes, np.ones((2, 11), dtype=bool),
                               np.ones((5, 1), dtype=bool)],
        }
        for masks in cases.values():
            assert_labels_match(masks, oracle)
        assert label_regions(cases["diagonals"][:2])[1].tolist() == [17, 32]
        assert label_regions(cases["stacked_shapes"])[1].tolist() == [6, 8, 8, 8, 8, 22, 5]

    def test_no_regions(self):
        regions, sizes = label_regions([np.zeros((3, 4), dtype=bool),
                                        np.zeros((2, 2), dtype=bool)])
        assert regions.size == 0 and sizes.size == 0

    def test_aupro_curve_bytes_on_blob_masks(self):
        # Desk-like maps and masks: 64 x 64 blobs, 24 to a call, and two more
        # of other shapes.
        rng = np.random.default_rng(7)
        shapes = [(64, 64)] * 24 + [(48, 80), (17, 5)]
        maps = [rng.random(shape) for shape in shapes]
        masks = [np.kron(rng.random((h // 4 + 1, w // 4 + 1)) < 0.15,
                         np.ones((4, 4), dtype=bool))[:h, :w] for h, w in shapes]
        got, want = aupro_curve(maps, masks), aupro_curve_argsort(maps, masks)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


class TestNanScores:
    def test_auroc_raises_with_the_count(self):
        with pytest.raises(UndefinedMetricError, match="1 of 4 are NaN"):
            auroc([0.1, np.nan, 0.3, 0.2], [0, 1, 1, 0])

    def test_aupro_curve_raises_with_the_count(self):
        smap = np.arange(12.0).reshape(3, 4)
        smap[0, 0] = smap[2, 3] = np.nan
        gt = np.zeros((3, 4), dtype=bool)
        gt[1, 1] = True
        with pytest.raises(UndefinedMetricError, match="2 of 12 are NaN"):
            aupro_curve([smap], [gt])


class TestAupro:
    def test_perfect_detector_exactly_one(self):
        gt = np.zeros((8, 8), dtype=bool)
        gt[2:4, 2:5] = True
        gt[6, 6] = True
        masks = [gt]
        rng = np.random.default_rng(12)
        for fill in (0.1, 0.3, 0.5, 0.7, 0.9):
            mask = rng.random((9, 7)) < fill
            mask[0, 0], mask[-1, -1] = True, False  # both classes present
            masks.append(mask)
        for mask in masks:
            for limit in (0.3, 0.01, 1.0):
                assert aupro([mask.astype(float)], [mask], limit) == 1.0

    def test_anticorrelated_worst_case(self):
        gt = np.zeros((8, 8), dtype=bool)
        gt[3:5, 3:5] = True
        scores = 1.0 - gt.astype(float)
        assert aupro([scores], [gt], 0.01) == pytest.approx(0.0, abs=1e-12)
        assert aupro([scores], [gt], 0.3) <= 1e-9

    def test_matches_bruteforce_on_random_instances(self):
        rng = np.random.default_rng(3)
        for trial in range(100):
            maps = [rng.random((8, 8)) for _ in range(2)]
            gts = [rng.random((8, 8)) < 0.25 for _ in range(2)]
            if not any(g.any() for g in gts):
                gts[0][0, 0] = True
            # Quantized copies put many pixels on each threshold, so the
            # curve is read at the ends of tied-score runs.
            tied = [np.floor(m * (2 + trial % 4)) for m in maps]
            for scores, limits in ((maps, (0.30, 0.01)), (tied, (0.30, 0.01, 1.0))):
                for limit in limits:
                    fast = aupro(scores, gts, limit)
                    slow = aupro_bruteforce(scores, gts, limit)
                    assert abs(fast - slow) <= 1e-9

    def test_area_nondecreasing_in_limit(self):
        rng = np.random.default_rng(5)
        maps = [rng.random((10, 10))]
        gts = [rng.random((10, 10)) < 0.2]
        limits = [0.01, 0.05, 0.2, 0.5, 1.0]
        raw_areas = [aupro(maps, gts, lim) * lim for lim in limits]
        assert all(a <= b + 1e-12 for a, b in zip(raw_areas, raw_areas[1:]))
        assert all(0.0 <= aupro(maps, gts, lim) <= 1.0 for lim in limits)

    def test_no_anomalous_region_undefined(self):
        with pytest.raises(UndefinedMetricError):
            aupro([np.random.rand(4, 4)], [np.zeros((4, 4), dtype=bool)], 0.3)

    def test_curve_endpoints(self):
        rng = np.random.default_rng(8)
        maps = [rng.random((6, 6))]
        gts = [rng.random((6, 6)) < 0.3]
        if not gts[0].any():
            gts[0][0, 0] = True
        fprs, pros = aupro_curve(maps, gts)
        assert fprs[0] == 0.0 and pros[0] == 0.0
        assert fprs[-1] == 1.0 and pros[-1] == 1.0
        assert np.all(np.diff(fprs) >= 0) and np.all(np.diff(pros) >= 0)


@pytest.fixture(scope="module")
def report(desk_dataset, desk_checkpoint):
    _, _, test_manifest = desk_dataset
    ckpt, _ = desk_checkpoint
    return eval_dataset(ckpt, test_manifest)


@pytest.fixture(scope="module")
def tables(desk_dataset, desk_checkpoint):
    _, _, test_manifest = desk_dataset
    ckpt, _ = desk_checkpoint
    return ablation_scores(score_split(ckpt, test_manifest), test_manifest.gt_upscale)


class TestReportFromMaps:
    def test_gt_oracle_detector_scores_one_everywhere(self):
        from g2sf.evaluation import report_from_maps

        rng = np.random.default_rng(0)
        gts = [rng.random((8, 8)) < 0.2 for _ in range(4)]
        gts[0][:] = False  # one normal sample
        labels = [int(g.any()) for g in gts]
        maps = [g.astype(float) for g in gts]
        rep = report_from_maps([f"s{i}" for i in range(4)], [float(l) for l in labels],
                               labels, maps, gts)
        assert rep.i_auroc == 1.0
        assert rep.p_auroc == 1.0
        assert all(v == 1.0 for v in rep.aupro.values())


class TestEvalDataset:
    def test_metrics_present_and_bounded(self, report):
        assert 0.0 <= report.i_auroc <= 1.0
        assert 0.0 <= report.p_auroc <= 1.0
        assert tuple(report.aupro) == AUPRO_LIMITS == (0.30, 0.01)
        assert all(0.0 <= v <= 1.0 for v in report.aupro.values())
        assert not report.flags

    def test_report_json_roundtrip(self, report):
        back = EvalReport.from_json(report.to_json())
        assert back.to_json() == report.to_json()
        assert back.aupro == report.aupro

    def test_pure_function_of_inputs(self, desk_dataset, desk_checkpoint, report):
        _, _, test_manifest = desk_dataset
        ckpt, _ = desk_checkpoint
        again = eval_dataset(ckpt, test_manifest)
        assert again.to_json() == report.to_json()

    def test_threads_do_not_change_results(self, desk_dataset, desk_checkpoint,
                                           report):
        _, _, test_manifest = desk_dataset
        ckpt, _ = desk_checkpoint
        threaded = eval_dataset(ckpt, test_manifest, threads=4)
        assert threaded.to_json() == report.to_json()
        with pytest.raises(ValueError, match="max_workers"):
            score_split(ckpt, test_manifest, threads=0)

    def test_score_split_keeps_every_map_on_the_grid(self, desk_dataset, desk_checkpoint):
        from g2sf.features import load_sample
        from g2sf.scoring import sample_maps

        _, _, test_manifest = desk_dataset
        ckpt, _ = desk_checkpoint
        scored = score_split(ckpt, test_manifest)
        assert [s.sample_id for s in scored] == [r.sample_id for r in test_manifest.samples]
        pair = load_sample(test_manifest, test_manifest.samples[0])
        want = sample_maps(ckpt.model, pair, ckpt.banks, ckpt.normalizer, ckpt.loss_cfg.k)
        assert list(scored[0].maps) == list(want)
        for name, smap in scored[0].maps.items():
            assert smap.upsampled is None  # reports upsample one key at a time
            assert smap.grid.tobytes() == want[name].grid.tobytes()
            assert smap.sample_score == want[name].sample_score

    def test_missing_gt_flags_pixel_metrics(self, desk_dataset, desk_checkpoint, tmp_path):
        import dataclasses

        _, _, test_manifest = desk_dataset
        ckpt, _ = desk_checkpoint
        stripped = dataclasses.replace(
            test_manifest,
            samples=[dataclasses.replace(ref, pixel_gt=None)
                     for ref in test_manifest.samples],
        )
        report = eval_dataset(ckpt, stripped)
        assert report.i_auroc is not None
        assert report.p_auroc is None and not report.aupro
        assert any(flag.startswith("pixel_metrics_omitted") for flag in report.flags)


    def test_k_comes_from_the_checkpoint(self, desk_dataset, desk_banks, desk_lspn_cfg):
        # A model pooled and trained at k=3 is scored over ranks 0..3. The
        # mean aggregation tells k=3 from the old default k=5: the min of a
        # barely trained model is rank 0 at either k.
        from g2sf.features import load_sample
        from g2sf.losses import LossConfig
        from g2sf.scoring import sample_maps
        from g2sf.synthesis import SynthesisConfig, build_training_pool
        from g2sf.trainer import TrainConfig, train

        _, train_manifest, test_manifest = desk_dataset
        banks, normalizer = desk_banks
        pool = build_training_pool(train_manifest, banks, normalizer,
                                   SynthesisConfig(n_aug=4, k=3), seed=1)
        ckpt, _, _ = train(pool, banks, normalizer, desk_lspn_cfg,
                           TrainConfig(epochs=1, batch_size=512, seed=1), LossConfig(k=3))
        got = [s.maps["mean"].sample_score for s in score_split(ckpt, test_manifest)]
        pairs = [load_sample(test_manifest, ref) for ref in test_manifest.samples]
        want = {k: [sample_maps(ckpt.model, pair, banks, normalizer, k)["mean"].sample_score
                    for pair in pairs] for k in (3, 5)}
        assert got == want[3]
        assert want[3] != want[5]


class TestAblation:
    def test_all_variants_reported(self, tables):
        variants, aggs = tables
        assert [r["variant"] for r in variants] == ["s_pc", "s_rgb", "w_pc", "w_rgb",
                                                    "fused"]
        assert [r["variant"] for r in aggs] == ["min", "max", "mean", "first"]
        for row in variants + aggs:
            assert 0.0 <= row["i_auroc"] <= 1.0

    def test_one_report_per_map_key(self, desk_dataset, desk_checkpoint, monkeypatch):
        # The fused variant and the min aggregation read the same maps, so
        # they share one report: 8 reports for 9 rows.
        from g2sf import evaluation

        calls = []
        report = evaluation.report_from_maps

        def counted(*args, **kwargs):
            calls.append(1)
            return report(*args, **kwargs)

        monkeypatch.setattr(evaluation, "report_from_maps", counted)
        _, _, test_manifest = desk_dataset
        ckpt, _ = desk_checkpoint
        variants, aggs = ablation_scores(score_split(ckpt, test_manifest),
                                         test_manifest.gt_upscale)
        assert len(calls) == 8
        fused = next(r for r in variants if r["variant"] == "fused")
        minimum = next(r for r in aggs if r["variant"] == "min")
        assert {k: v for k, v in fused.items() if k != "variant"} == \
            {k: v for k, v in minimum.items() if k != "variant"}

    def test_csv_layout(self, tables, tmp_path):
        variants, _ = tables
        path = tmp_path / "ablation.csv"
        write_ablation_csv(variants, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "variant,I-AUROC,P-AUROC,AUPRO@30%,AUPRO@1%"
        assert len(lines) == 1 + len(variants)

    def test_unit_scale_identity(self, desk_dataset, desk_banks, desk_checkpoint):
        # With the network forced to w = 1, the fused rank-0 metric must
        # equal the sigma-weighted sum of the unimodal distances.
        from g2sf.lspn import parameters
        from g2sf.scoring import sample_maps
        from g2sf.features import load_sample

        _, _, test_manifest = desk_dataset
        banks, normalizer = desk_banks
        ckpt, _ = desk_checkpoint
        forced = ckpt.model.copy()
        for p in parameters(forced)[:-1]:
            p[...] = 0.0
        forced.log_sigma[...] = np.log(0.5)
        pair = load_sample(test_manifest, test_manifest.samples[1])
        maps = sample_maps(forced, pair, banks, normalizer, DESK_K)
        fused_first = maps["first"].grid
        want = 0.5 * (maps["s_pc"].grid + maps["s_rgb"].grid)
        np.testing.assert_allclose(fused_first, want, rtol=1e-6)


class TestImportCost:
    def test_package_does_not_import_scipy_stats(self):
        # Importing scipy.stats adds about 44 MB of resident memory to every
        # CLI stage; the rank statistics here are plain numpy.
        code = "import sys, g2sf, g2sf.cli; print('scipy.stats' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True)
        assert proc.stdout.strip() == "False"

    def test_package_does_not_import_scipy_ndimage(self):
        # Only gen smooths with scipy (its latent fields); score, eval and
        # ablate smooth and label in numpy. Importing scipy.ndimage costs
        # every other process about 0.3 s and 22 MB of resident memory.
        code = "import sys, g2sf, g2sf.cli; print('scipy.ndimage' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True)
        assert proc.stdout.strip() == "False"

    def test_package_does_not_import_scipy_sparse(self):
        # Only the training backward needs scipy.sparse (its scatters); every
        # other process, each CLI stage and scoring, stays without it.
        code = "import sys, g2sf, g2sf.cli; print('scipy.sparse' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True)
        assert proc.stdout.strip() == "False"
