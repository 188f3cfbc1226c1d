"""Detection and segmentation metrics: AUROC, AUPRO, and dataset evaluation.

AUROC is rank-based (Mann-Whitney) with tied scores sharing their average
rank, so ties contribute one half; ranks come from insertion points into the
sorted scores. AUPRO thresholds at every distinct score of one value sort of
all pixels. Each normal pixel adds 1/#normal to the false-positive rate and
each anomalous pixel adds 1/(|region| * #regions) to the mean per-region
overlap (8-connected ground-truth components), summed over the anomalous
pixels alone in descending score order. PRO is set to exactly 1 once every
anomalous pixel is covered. The curve is integrated against FPR up to a
limit and normalized by the limit. NaN scores raise.

The protocol is fixed: AUPRO at 30% and 1% FPR as in MVTec 3D-AD (Bergmann
et al., VISAPP 2022), on maps of the ``scoring.G2SF_SCORE`` key smoothed with
a Gaussian of sigma 4 as in PatchCore (Roth et al., CVPR 2022).

:func:`report_from_maps` is the one place that turns per-sample scores and
pixel maps into metrics; :func:`eval_dataset`, :func:`ablation_scores` and
the CLI's eval stage all build their reports through it.
:func:`score_split` keeps every map of one network pass per sample on its
grid; a report upsamples and smooths the maps of one key as one stack;
:func:`ablation_scores` reads scored samples from :func:`score_split` or from
the CLI's score tree.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, UndefinedMetricError
from .features import DatasetManifest, load_sample
from .scoring import AGGREGATIONS, G2SF_SCORE, bilinear_upsample, gaussian_smooth, sample_maps

__all__ = [
    "SMOOTH_SIGMA",
    "AUPRO_LIMITS",
    "EvalReport",
    "ScoredSample",
    "auroc",
    "aupro",
    "aupro_curve",
    "label_regions",
    "sample_label",
    "report_from_maps",
    "score_split",
    "eval_dataset",
    "ablation_scores",
    "write_ablation_csv",
]

SMOOTH_SIGMA = 4.0  # Gaussian sigma of the pixel maps, in upsampled pixels
AUPRO_LIMITS = (0.30, 0.01)  # FPR integration limits of the reported AUPROs


def _reject_nan(sorted_scores: np.ndarray, metric: str):
    """NaN sorts last; as a score it would rank above every finite one."""
    if np.isnan(sorted_scores[-1]):
        n_nan = int(np.isnan(sorted_scores).sum())
        raise UndefinedMetricError(
            f"{metric} is undefined for NaN scores: {n_nan} of {sorted_scores.size} are NaN")


def auroc(scores, labels) -> float:
    """Mann-Whitney AUROC; ties count one half.

    Undefined (raises) when only one class is present or when every score is
    identical, since no ranking exists in either case, and for NaN scores.
    """
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels).reshape(-1).astype(int)
    if scores.shape != labels.shape:
        raise ConfigError("scores and labels must have equal length")
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUROC needs both classes present")
    ordered = np.sort(scores)
    _reject_nan(ordered, "AUROC")
    if ordered[0] == ordered[-1]:
        raise UndefinedMetricError("AUROC is undefined for constant scores")
    pos = np.sort(scores[labels == 1])
    # A score whose ties fill sorted slots left..right-1 has twice its 1-based
    # average rank equal to the integer left + right + 1.
    twice_rank_sum = int(np.searchsorted(ordered, pos, "left").sum()
                         + np.searchsorted(ordered, pos, "right").sum()) + n_pos
    u = twice_rank_sum / 2 - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def label_regions(masks):
    """8-connected regions of 2-D boolean masks, every mask in one pass.

    Returns ``(regions, sizes)``: the region index of each True pixel, masks
    in order and each in row-major order, and the pixel count of each region.
    No region spans two masks. Regions are numbered by their first pixel.

    The masks are stacked one under the other, each followed by an empty row
    and padded with empty columns to one width plus one, so every row ends
    empty. A run is a row's maximal stretch of True pixels; two runs in
    adjacent rows join when their column spans overlap or touch at a
    diagonal, and joined runs take the smallest run index among them by
    hooking roots and jumping pointers until no join crosses two roots.
    """
    width = max(m.shape[1] for m in masks) + 1
    rows = sum(m.shape[0] + 1 for m in masks)
    flat = np.zeros(1 + rows * width, dtype=bool)  # flat[0]: empty, before the stack
    stack = flat[1:].reshape(rows, width)
    row = 0
    for mask in masks:
        stack[row:row + mask.shape[0], :mask.shape[1]] = mask
        row += mask.shape[0] + 1
    # Stack indices where a pixel differs from the one before: run starts and
    # ends alternate, each end one past its run's last pixel, in its row.
    edges = np.flatnonzero(flat[1:] != flat[:-1])
    starts, ends = edges[0::2], edges[1::2]
    # The runs of the row above that touch a run are those ending at or after
    # its start and starting at or before its end; they are consecutive.
    first = np.searchsorted(ends, starts - width, "left")
    count = np.maximum(np.searchsorted(starts, ends - width, "right") - first, 0)
    below = np.repeat(np.arange(starts.size), count)
    above = np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum())
    root = np.arange(starts.size)  # root[i] <= i, so the pointers form a forest
    while True:
        a, b = root[above], root[below]
        if np.array_equal(a, b):
            break
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(root[root], root):
            root = root[root]
    run_region = np.cumsum(root == np.arange(root.size))[root] - 1  # roots, in order
    lengths = ends - starts
    return np.repeat(run_region, lengths), np.bincount(run_region, weights=lengths)


def aupro_curve(score_maps, gt_masks):
    """(fpr, pro) curve points over all distinct scores, threshold descending.

    The curve starts at (0, 0) (threshold above every score) and ends at
    (1, 1) (threshold at the minimum score, everything predicted).
    """
    if len(score_maps) != len(gt_masks) or not score_maps:
        raise ConfigError("need equally many score maps and ground-truth masks")
    score_maps = [np.asarray(smap, dtype=np.float64) for smap in score_maps]
    gt_masks = [np.asarray(gt, dtype=bool) for gt in gt_masks]
    for smap, gt in zip(score_maps, gt_masks):
        if smap.shape != gt.shape:
            raise ConfigError(f"score map {smap.shape} and mask {gt.shape} disagree")
    region_ids, region_sizes = label_regions(gt_masks)
    if region_sizes.size == 0:
        raise UndefinedMetricError("AUPRO needs at least one anomalous region")
    scores = np.concatenate([smap.reshape(-1) for smap in score_maps])
    anomalous = np.concatenate([smap[gt] for smap, gt in zip(score_maps, gt_masks)])
    n_normal = scores.size - anomalous.size
    if n_normal == 0:
        raise UndefinedMetricError("AUPRO needs normal pixels for the FPR axis")
    scores.sort()
    _reject_nan(scores, "AUPRO")

    # The thresholds are the distinct scores, scores[starts]; each anomalous
    # score is one of them, so counting per threshold and accumulating from
    # the top gives the anomalous pixels at or above each threshold.
    starts = np.flatnonzero(np.append(True, scores[1:] != scores[:-1]))
    order = np.argsort(anomalous, kind="stable")
    hits = starts.size - 1 - np.searchsorted(scores[starts], anomalous[order])
    anomalous_above = np.cumsum(np.bincount(hits, minlength=starts.size))
    # Pixels at or above each threshold, descending, less the anomalous ones.
    fpr = ((scores.size - starts)[::-1] - anomalous_above) / n_normal
    del scores, starts
    # PRO adds the region weights of the anomalous pixels by descending score,
    # ties by descending pixel index: the reversed stable argsort.
    region_weight = 1.0 / (region_sizes * region_sizes.size)
    weight = region_weight[region_ids[order[::-1]]]
    pro = np.append(0.0, np.cumsum(weight))[anomalous_above]
    # The summed weights only approximate 1; PRO is exactly 1 once every
    # anomalous pixel is above the threshold.
    pro[anomalous_above == anomalous.size] = 1.0
    return np.append(0.0, fpr), np.append(0.0, pro)


def _clip_integrate(x: np.ndarray, y: np.ndarray, limit: float) -> float:
    """Trapezoidal integral of the piecewise-linear curve on [0, limit]."""
    n = int(np.searchsorted(x, limit, side="right"))  # points with x <= limit
    xs, ys = x[:n], y[:n]
    if n < x.size:  # end the last segment at the limit
        x0, x1, y0, y1 = x[n - 1], x[n], y[n - 1], y[n]
        xs = np.append(xs, limit)
        ys = np.append(ys, y0 + (y1 - y0) * (limit - x0) / (x1 - x0))
    return float(np.sum(np.diff(xs) * (ys[1:] + ys[:-1]) / 2.0))


def aupro(score_maps, gt_masks, limit: float) -> float:
    """Area under the PRO-vs-FPR curve on [0, limit], normalized by the limit."""
    if not (0.0 < limit <= 1.0):
        raise ConfigError(f"integration limit {limit} outside (0, 1]")
    fprs, pros = aupro_curve(score_maps, gt_masks)
    return _clip_integrate(fprs, pros, limit) / limit


# ---------------------------------------------------------------------------
# Dataset evaluation
# ---------------------------------------------------------------------------


@dataclass
class EvalReport:
    i_auroc: float | None = None
    p_auroc: float | None = None
    aupro: dict = field(default_factory=dict)
    per_sample: list = field(default_factory=list)
    flags: list = field(default_factory=list)

    def to_dict(self):
        return {
            "i_auroc": self.i_auroc,
            "p_auroc": self.p_auroc,
            "aupro": {str(k): v for k, v in self.aupro.items()},
            "per_sample": self.per_sample,
            "flags": self.flags,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "EvalReport":
        doc = json.loads(text)
        return cls(
            i_auroc=doc.get("i_auroc"),
            p_auroc=doc.get("p_auroc"),
            aupro={float(k): v for k, v in doc.get("aupro", {}).items()},
            per_sample=doc.get("per_sample", []),
            flags=doc.get("flags", []),
        )


def sample_label(sample_id, image_label, pixel_gt) -> int:
    """Image label of a sample: its recorded label, else whether its mask is non-empty."""
    if image_label is not None:
        return int(image_label)
    if pixel_gt is not None:
        return int(np.any(pixel_gt))
    raise ConfigError(f"sample {sample_id} has neither label nor ground truth")


def report_from_maps(sample_ids, sample_scores, labels, pixel_maps, gt_masks) -> EvalReport:
    """Assemble an EvalReport from precomputed per-sample scores and maps.

    ``gt_masks`` entries may be None; any missing mask omits the pixel
    metrics with a flag. Shapes of maps and masks must agree pairwise.
    """
    report = EvalReport()
    for sid, score, label in zip(sample_ids, sample_scores, labels):
        report.per_sample.append(
            {"sample_id": sid, "score": float(score), "label": int(label)}
        )
    report.i_auroc = auroc(sample_scores, labels)

    missing = sum(1 for g in gt_masks if g is None)
    if missing:
        report.flags.append(f"pixel_metrics_omitted:no_ground_truth:{missing}")
        return report
    for sid, pixel, gt in zip(sample_ids, pixel_maps, gt_masks):
        if gt.shape != pixel.shape:
            raise ConfigError(f"sample {sid}: upsampled map {pixel.shape} != gt {gt.shape}")
    flat_scores = np.concatenate([m.reshape(-1) for m in pixel_maps])
    flat_gt = np.concatenate([g.reshape(-1) for g in gt_masks])
    report.p_auroc = auroc(flat_scores, flat_gt)
    fprs, pros = aupro_curve(pixel_maps, gt_masks)
    for limit in AUPRO_LIMITS:
        report.aupro[limit] = _clip_integrate(fprs, pros, limit) / limit
    return report


# ---------------------------------------------------------------------------
# Scoring the test split
# ---------------------------------------------------------------------------


class ScoredSample(NamedTuple):
    sample_id: str
    image_label: int | None
    pixel_gt: np.ndarray | None
    maps: dict  # name -> ScoreMap on the grid, every key of scoring.sample_maps


def score_split(checkpoint, test_manifest: DatasetManifest,
                threads: int = 1) -> list[ScoredSample]:
    """Score every test sample, in manifest order, with one
    :func:`~g2sf.scoring.sample_maps` pass over the checkpoint's k+1 nearest
    local spaces. Each sample holds every map on its grid. ``threads`` worker
    threads share the samples and change no result."""
    if checkpoint.banks is None:
        raise ConfigError("checkpoint has no banks attached; load them first")
    model, banks, normalizer = checkpoint.model, checkpoint.banks, checkpoint.normalizer

    def one(ref):
        pair = load_sample(test_manifest, ref)
        maps = sample_maps(model, pair, banks, normalizer, checkpoint.loss_cfg.k)
        return ScoredSample(pair.sample_id, pair.image_label, pair.pixel_gt, maps)

    refs = list(test_manifest.samples)
    if threads == 1:  # no pool: a worker thread added about 10 MB to the desk peak RSS
        return [one(ref) for ref in refs]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(one, refs))  # ordered collection keeps determinism


def _report(scored, key: str, upscale: int) -> EvalReport:
    """Report on the ``key`` maps of ``scored``, upsampled and smoothed as one stack."""
    maps = [s.maps[key] for s in scored]
    pixel = gaussian_smooth(bilinear_upsample(np.stack([m.grid for m in maps]), upscale),
                            SMOOTH_SIGMA)
    return report_from_maps(
        [s.sample_id for s in scored],
        [m.sample_score for m in maps],
        [sample_label(s.sample_id, s.image_label, s.pixel_gt) for s in scored],
        list(pixel),
        [s.pixel_gt for s in scored],
    )


def eval_dataset(checkpoint, test_manifest: DatasetManifest, threads: int = 1) -> EvalReport:
    """Compute I-AUROC, P-AUROC and AUPRO at ``AUPRO_LIMITS`` of the G2SF score.

    Scores use the checkpoint's k (see :func:`score_split`). Pixel metrics
    use the maps upsampled by the manifest's ``gt_upscale`` and smoothed; the
    image metric uses the per-sample max over foreground grid cells. When any
    sample lacks a pixel ground-truth mask the pixel metrics are omitted with
    a flag.
    """
    scored = score_split(checkpoint, test_manifest, threads)
    return _report(scored, G2SF_SCORE, test_manifest.gt_upscale)


# ---------------------------------------------------------------------------
# Ablation tables
# ---------------------------------------------------------------------------

SCORE_VARIANTS = ("s_pc", "s_rgb", "w_pc", "w_rgb", "fused")
_VARIANT_MAP_KEY = {"s_pc": "s_pc", "s_rgb": "s_rgb", "w_pc": "w_pc", "w_rgb": "w_rgb",
                    "fused": G2SF_SCORE}


def ablation_scores(scored, upscale: int):
    """Metric rows for the five score definitions and four aggregations.

    ``scored`` holds every map of each test sample on its grid: the output
    of :func:`score_split`, or the CLI's score tree read back. Each map is
    upsampled by ``upscale`` and smoothed as it is reported. Returns
    (variant_rows, aggregation_rows); each row maps variant -> i_auroc /
    p_auroc / aupro@limit values.
    """
    reports = {}  # map key -> report; the fused variant shares the G2SF_SCORE maps

    def row(variant, key):
        if key not in reports:
            reports[key] = _report(scored, key, upscale)
        report = reports[key]
        return {"variant": variant, "i_auroc": report.i_auroc, "p_auroc": report.p_auroc,
                **{f"aupro@{limit}": v for limit, v in report.aupro.items()}}

    variant_rows = [row(v, _VARIANT_MAP_KEY[v]) for v in SCORE_VARIANTS]
    agg_rows = [row(agg, agg) for agg in AGGREGATIONS]
    return variant_rows, agg_rows


def write_ablation_csv(rows, path):
    """Fixed column order: variant, I-AUROC, P-AUROC, AUPRO@30%, AUPRO@1%."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    columns = ["variant", "I-AUROC", "P-AUROC"]
    columns += [f"AUPRO@{round(l * 100):d}%" for l in AUPRO_LIMITS]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            out = [row["variant"], _fmt(row.get("i_auroc")), _fmt(row.get("p_auroc"))]
            out += [_fmt(row.get(f"aupro@{l}")) for l in AUPRO_LIMITS]
            writer.writerow(out)


def _fmt(value):
    return "" if value is None else f"{value:.6f}"
