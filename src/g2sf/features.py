"""Feature-map data model, dataset manifests, and synthetic data generation.

A sample is a pair of spatially aligned H x W grids of feature vectors, one
per modality ("pc" for point-cloud features, "rgb" for image features), plus
one foreground mask that both modalities are seen through and, for test
data, a pixel-level ground-truth mask stored at an integer multiple of the
grid resolution.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, ShapeError, check_keys
from .tensorio import read_tensor, write_tensor

MODALITIES = ("pc", "rgb")
ANOMALY_MODES = ("pc_only", "rgb_only", "joint")

# The synthetic generator's fixed recipe (see SynthConfig).
CLUSTERS = 4                     # Gaussian texture clusters per modality
RHO = 0.7                        # weight of the mixture layout both modalities share
NOISE_SIGMA = 0.15               # per-entry feature noise
FIELD_SMOOTHNESS = 2.0           # Gaussian sigma, in cells, of every latent field
MIX_SHARPNESS = 3.0              # softmax gain of the cluster mixture
ANOMALY_FRAC = 0.5               # share of test samples that are anomalous
ANOMALY_OFFSET = 6.0             # anomaly shift, in NOISE_SIGMA units
ANOMALY_COVERAGE = (0.06, 0.22)  # band of foreground fraction an anomaly covers
BG_BORDER = 1                    # background border, in cells

__all__ = [
    "MODALITIES",
    "ANOMALY_MODES",
    "FeatureMap",
    "SamplePair",
    "SampleRef",
    "DatasetManifest",
    "SynthConfig",
    "read_feature_map",
    "write_feature_map",
    "write_mask",
    "read_mask",
    "save_manifest",
    "load_manifest",
    "load_sample",
    "iter_samples",
    "foreground_cells",
    "save_split",
    "gen_synthetic_dataset",
]


@dataclass
class FeatureMap:
    """One modality of one sample: an (H, W, D) float32 grid. The foreground
    mask belongs to the sample (:class:`SamplePair`), not to a modality."""

    modality: str
    data: np.ndarray

    def __post_init__(self):
        if self.modality not in MODALITIES:
            raise ConfigError(f"unknown modality {self.modality!r}")
        self.data = np.ascontiguousarray(self.data, dtype=np.float32)
        if self.data.ndim != 3:
            raise ShapeError(f"feature map must be (H, W, D), got shape {self.data.shape}")
        if not np.all(np.isfinite(self.data)):
            raise FormatError("feature map contains non-finite values")

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def dim(self) -> int:
        return self.data.shape[2]


@dataclass
class SamplePair:
    """Aligned two-modality sample with optional pixel ground truth.

    ``foreground`` is the sample's one (H, W) mask, shared by both
    modalities; it defaults to every cell.
    """

    sample_id: str
    pc: FeatureMap
    rgb: FeatureMap
    pixel_gt: np.ndarray | None = None
    image_label: int | None = None
    foreground: np.ndarray | None = None

    def __post_init__(self):
        if (self.pc.height, self.pc.width) != (self.rgb.height, self.rgb.width):
            raise ShapeError(
                f"modalities disagree on grid: pc {self.pc.data.shape[:2]} "
                f"vs rgb {self.rgb.data.shape[:2]}"
            )
        if self.foreground is None:
            self.foreground = np.ones(self.grid, dtype=bool)
        else:
            self.foreground = np.asarray(self.foreground, dtype=bool)
            if self.foreground.shape != self.grid:
                raise ShapeError(f"foreground shape {self.foreground.shape} != grid {self.grid}")
        if self.pixel_gt is not None:
            self.pixel_gt = np.asarray(self.pixel_gt, dtype=bool)
            gh, gw = self.pixel_gt.shape
            if gh < self.pc.height or gw < self.pc.width or gh % self.pc.height or gw % self.pc.width:
                raise ShapeError(
                    f"pixel_gt {self.pixel_gt.shape} must be an integer upscale of "
                    f"grid {(self.pc.height, self.pc.width)}"
                )

    @property
    def grid(self):
        return (self.pc.height, self.pc.width)


def write_feature_map(fmap: FeatureMap, path):
    """Persist one modality grid; the foreground mask travels separately."""
    write_tensor(path, fmap.data, {"modality": fmap.modality})


def read_feature_map(path) -> FeatureMap:
    """Load a feature map written by :func:`write_feature_map`: an (H, W, D)
    container whose header carries the modality tag."""
    array, header = read_tensor(path)
    if array.ndim != 3:
        raise FormatError(f"feature map in {path} has shape {array.shape}, expected (H, W, D)")
    if "modality" not in header:
        raise FormatError(f"{path} carries no modality tag")
    return FeatureMap(header["modality"], array)


def write_mask(mask: np.ndarray, path, kind: str):
    write_tensor(path, np.asarray(mask, dtype=np.float32)[..., None], {"kind": kind})


def read_mask(path) -> np.ndarray:
    array, _ = read_tensor(path)
    return array[..., 0] > 0.5


@dataclass
class SampleRef:
    """Manifest entry: relative paths for one sample."""

    sample_id: str
    pc: str
    rgb: str
    foreground: str | None = None
    pixel_gt: str | None = None
    image_label: int | None = None


SPLITS = ("train", "test", "pool")


@dataclass
class DatasetManifest:
    split: str
    grid: tuple
    dims: dict
    samples: list
    gt_upscale: int = 1
    root: Path | None = None

    def __post_init__(self):
        if self.split not in SPLITS:
            raise ConfigError(f"split must be train, test or pool, got {self.split!r}")


def save_manifest(manifest: DatasetManifest, path):
    path = Path(path)
    doc = {
        "format": "g2sf-dataset-v1",
        "split": manifest.split,
        "grid": list(manifest.grid),
        "dims": dict(manifest.dims),
        "gt_upscale": manifest.gt_upscale,
        "samples": [
            {
                "sample_id": s.sample_id,
                "pc": s.pc,
                "rgb": s.rgb,
                "foreground": s.foreground,
                "pixel_gt": s.pixel_gt,
                "image_label": s.image_label,
            }
            for s in manifest.samples
        ],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def _positive_ints(value, count) -> bool:
    return isinstance(value, list) and len(value) == count and all(
        type(v) is int and v > 0 for v in value)


# What each key of a manifest's sample entry may hold.
_SAMPLE_VALUES = {
    "sample_id": (lambda v: isinstance(v, str), "a string"),
    "pc": (lambda v: isinstance(v, str), "a string"),
    "rgb": (lambda v: isinstance(v, str), "a string"),
    "foreground": (lambda v: v is None or isinstance(v, str), "a string or null"),
    "pixel_gt": (lambda v: v is None or isinstance(v, str), "a string or null"),
    "image_label": (lambda v: v is None or (type(v) is int and v in (0, 1)), "0, 1 or null"),
}


def _sample_ref(what, entry) -> SampleRef:
    entry = check_keys(what, entry, ("sample_id", "pc", "rgb"),
                       ("foreground", "pixel_gt", "image_label"))
    for key, value in entry.items():
        ok, expected = _SAMPLE_VALUES[key]
        if not ok(value):
            raise FormatError(f"{what}: key {key!r} is {value!r}, not {expected}")
    return SampleRef(**entry)


def load_manifest(path) -> DatasetManifest:
    """Read a manifest written by :func:`save_manifest`; a malformed one
    raises :class:`FormatError` naming it (and the key at fault)."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"manifest {path} is not valid JSON: {exc}") from exc
    doc = check_keys(f"manifest {path}: the manifest", doc,
                     ("format", "split", "grid", "dims", "samples"), ("gt_upscale",))
    if doc["format"] != "g2sf-dataset-v1":
        raise FormatError(f"manifest {path} has unknown format {doc['format']!r}")
    dims = doc["dims"]
    for key, ok, expected in (
            ("split", doc["split"] in SPLITS, "train, test or pool"),
            ("grid", _positive_ints(doc["grid"], 2), "two positive integers"),
            ("dims", isinstance(dims, dict) and sorted(dims) == list(MODALITIES)
             and _positive_ints(list(dims.values()), 2), "a positive integer per modality"),
            ("gt_upscale", _positive_ints([doc.get("gt_upscale", 1)], 1), "a positive integer"),
            ("samples", isinstance(doc["samples"], list), "a list")):
        if not ok:
            raise FormatError(f"manifest {path}: key {key!r} is {doc[key]!r}, not {expected}")
    samples = [_sample_ref(f"manifest {path}: sample entry {i}", entry)
               for i, entry in enumerate(doc["samples"])]
    return DatasetManifest(
        split=doc["split"],
        grid=tuple(doc["grid"]),
        dims=dims,
        samples=samples,
        gt_upscale=doc.get("gt_upscale", 1),
        root=path.parent,
    )


def load_sample(manifest: DatasetManifest, ref: SampleRef) -> SamplePair:
    root = manifest.root or Path(".")
    pair = SamplePair(
        sample_id=ref.sample_id,
        pc=read_feature_map(root / ref.pc),
        rgb=read_feature_map(root / ref.rgb),
        pixel_gt=read_mask(root / ref.pixel_gt) if ref.pixel_gt else None,
        image_label=ref.image_label,
        foreground=read_mask(root / ref.foreground) if ref.foreground else None,
    )
    expected = {m: manifest.dims[m] for m in MODALITIES}
    if pair.pc.dim != expected["pc"] or pair.rgb.dim != expected["rgb"]:
        raise FormatError(
            f"sample {ref.sample_id} dims ({pair.pc.dim}, {pair.rgb.dim}) "
            f"disagree with manifest {expected}"
        )
    if pair.grid != tuple(manifest.grid):
        raise FormatError(f"sample {ref.sample_id} grid {pair.grid} != manifest {manifest.grid}")
    return pair


def iter_samples(manifest: DatasetManifest):
    for ref in manifest.samples:
        yield load_sample(manifest, ref)


def foreground_cells(manifest: DatasetManifest) -> list:
    """Each sample's foreground cell count, in manifest order, read from its
    mask alone (every grid cell when it has none)."""
    root = manifest.root or Path(".")
    return [int(read_mask(root / ref.foreground).sum()) if ref.foreground
            else int(np.prod(manifest.grid)) for ref in manifest.samples]


def save_split(out_dir, split, pairs, grid, dims, gt_upscale) -> DatasetManifest:
    """Write each :class:`SamplePair` of ``pairs`` as it arrives, to
    ``{split}/{sample_id}_{pc,rgb,fg}.g2t`` plus ``_gt.g2t`` when it has a
    ``pixel_gt``, then ``{split}_manifest.json``; returns that manifest.
    ``pairs`` is consumed once, in order, so a generator streams the split."""
    out_dir = Path(out_dir)
    refs = []
    for pair in pairs:
        stem = f"{split}/{pair.sample_id}"
        ref = SampleRef(pair.sample_id, f"{stem}_pc.g2t", f"{stem}_rgb.g2t", f"{stem}_fg.g2t",
                        None if pair.pixel_gt is None else f"{stem}_gt.g2t", pair.image_label)
        write_feature_map(pair.pc, out_dir / ref.pc)
        write_feature_map(pair.rgb, out_dir / ref.rgb)
        write_mask(pair.foreground, out_dir / ref.foreground, "foreground")
        if ref.pixel_gt:
            write_mask(pair.pixel_gt, out_dir / ref.pixel_gt, "pixel_gt")
        refs.append(ref)
    manifest = DatasetManifest(split, tuple(grid), dict(dims), refs, gt_upscale, out_dir)
    save_manifest(manifest, out_dir / f"{split}_manifest.json")
    return manifest


# ---------------------------------------------------------------------------
# Synthetic dataset generation
# ---------------------------------------------------------------------------


@dataclass
class SynthConfig:
    """Shape of the synthetic two-modality benchmark.

    Normal samples are smooth spatial mixtures of per-modality Gaussian
    texture clusters; the two modalities share the mixture layout with
    weight ``RHO``. Test anomalies shift features of one or both modalities
    by ``ANOMALY_OFFSET`` noise standard deviations inside a smooth blob
    region. Those constants are the generator's fixed recipe; the fields
    here set the grid, widths, sample counts and ground-truth scale; the
    anomalous test samples cycle through ``ANOMALY_MODES``.
    """

    grid: tuple = (16, 16)
    dims: tuple = (8, 8)
    n_train: int = 64
    n_test: int = 48
    gt_upscale: int = 4

    def validate(self):
        for name in ("grid", "dims"):
            if len(getattr(self, name)) != 2:
                raise ConfigError(f"gen.{name} needs two values")
        if min(self.grid) <= 2 * BG_BORDER:
            raise ConfigError(f"gen.grid {tuple(self.grid)} leaves no foreground inside "
                              f"its {BG_BORDER}-cell background border")
        if min(self.dims) < 2:
            raise ConfigError("gen.dims: each modality needs dim >= 2")
        for name in ("n_train", "n_test", "gt_upscale"):
            if getattr(self, name) < 1:
                raise ConfigError(f"gen.{name} must be >= 1")


def _smooth_field(rng, shape, smoothness):
    # Imported where used: only gen draws latent fields, and scipy.ndimage
    # costs a process about 22 MB of RSS and 0.3 s to load.
    from scipy.ndimage import gaussian_filter

    return gaussian_filter(rng.standard_normal(shape), sigma=smoothness, mode="reflect")


def _mixture_weights(latent, sharpness):
    z = latent * sharpness
    z -= z.max(axis=0, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=0, keepdims=True)


def _foreground_mask(cfg: SynthConfig) -> np.ndarray:
    h, w = cfg.grid
    mask = np.zeros((h, w), dtype=bool)
    mask[BG_BORDER : h - BG_BORDER, BG_BORDER : w - BG_BORDER] = True
    return mask


def _normal_sample(cfg, centers, rng):
    """Draw one normal sample: per-modality smooth cluster mixtures plus noise.

    Background cells carry the same texture process as the foreground (as an
    extractor would produce for in-distribution background); only the mask
    distinguishes them, exercising the downstream unit-scale bypass.
    """
    h, w = cfg.grid
    shared = np.stack([_smooth_field(rng, (h, w), FIELD_SMOOTHNESS) for _ in range(CLUSTERS)])
    maps = {}
    for modality in MODALITIES:
        own = np.stack([_smooth_field(rng, (h, w), FIELD_SMOOTHNESS) for _ in range(CLUSTERS)])
        latent = RHO * shared + np.sqrt(1.0 - RHO**2) * own
        weights = _mixture_weights(latent, MIX_SHARPNESS)
        data = np.tensordot(weights, centers[modality], axes=(0, 0))
        data += NOISE_SIGMA * rng.standard_normal(data.shape)
        maps[modality] = FeatureMap(modality, data)
    return maps


def _anomaly_region(cfg, rng, foreground):
    """Smooth blob of foreground cells with coverage drawn from ANOMALY_COVERAGE."""
    h, w = cfg.grid
    field = _smooth_field(rng, (h, w), FIELD_SMOOTHNESS)
    field[~foreground] = -np.inf
    lo, hi = ANOMALY_COVERAGE
    n_fg = int(foreground.sum())
    count = max(1, int(round(rng.uniform(lo, hi) * n_fg)))
    order = np.argsort(field, axis=None, kind="stable")[::-1]
    mask = np.zeros(h * w, dtype=bool)
    mask[order[:count]] = True
    return mask.reshape(h, w)


def _inject_offset(fmap: FeatureMap, region, offset_sigma, rng):
    direction = rng.standard_normal(fmap.dim)
    direction /= np.linalg.norm(direction)
    data = fmap.data.copy()
    data[region] += (offset_sigma * direction).astype(np.float32)
    return FeatureMap(fmap.modality, data)


def _split_pairs(cfg: SynthConfig, centers, seed: int, split: str, count: int):
    """Yield the ``count`` samples of ``split``, each drawn from its own
    (seed, split, index) stream; test samples carry pixel ground truth."""
    fg = _foreground_mask(cfg)
    n_anom = int(round(ANOMALY_FRAC * cfg.n_test))
    for idx in range(count):
        rng = np.random.default_rng(
            np.random.SeedSequence([int(seed), 1 if split == "train" else 2, idx]))
        maps = _normal_sample(cfg, centers, rng)
        label = gt_pixels = None
        if split == "test":
            label, gt_grid = int(idx < n_anom), np.zeros(cfg.grid, dtype=bool)
            if label:
                mode = ANOMALY_MODES[idx % len(ANOMALY_MODES)]
                gt_grid = _anomaly_region(cfg, rng, fg)
                offset = ANOMALY_OFFSET * NOISE_SIGMA
                if mode in ("pc_only", "joint"):
                    maps["pc"] = _inject_offset(maps["pc"], gt_grid, offset, rng)
                if mode in ("rgb_only", "joint"):
                    maps["rgb"] = _inject_offset(maps["rgb"], gt_grid, offset, rng)
            gt_pixels = np.repeat(np.repeat(gt_grid, cfg.gt_upscale, 0), cfg.gt_upscale, 1)
        yield SamplePair(f"{split}_{idx:04d}", maps["pc"], maps["rgb"], gt_pixels, label, fg)


def gen_synthetic_dataset(cfg: SynthConfig, seed: int, out_dir):
    """Generate and persist the synthetic benchmark; returns (train, test) manifests.

    The whole dataset is a pure function of (cfg, seed): identical inputs
    produce byte-identical trees.
    """
    cfg.validate()
    center_rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x673D]).spawn(1)[0])
    centers = {m: center_rng.standard_normal((CLUSTERS, dim))
               for m, dim in zip(MODALITIES, cfg.dims)}
    return tuple(save_split(out_dir, split, _split_pairs(cfg, centers, seed, split, count),
                            cfg.grid, dict(zip(MODALITIES, cfg.dims)), cfg.gt_upscale)
                 for split, count in (("train", cfg.n_train), ("test", cfg.n_test)))
