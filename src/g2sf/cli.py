"""Command-line pipeline: gen, bank, synth, train, score, eval, ablate, selftest.

Every stage writes a manifest carrying the merged config hash, the seed, and
the SHA-256 of each upstream manifest it consumed. Before running, a stage
re-hashes the upstream manifests recorded by what it reads, including the
dataset's ``gen`` manifest for every stage that reads the test split; a
mismatch means an upstream artifact was regenerated after its consumer, and
the stage refuses with exit code 3. Exit codes: 0 success, 1 I/O or runtime
failure, 2 configuration error, 3 stale upstream artifact.

All artifacts are reproducible from (command, config, seed): file contents
are canonical, and ``--deterministic`` (default) nulls wall-clock fields so
two identical runs produce byte-identical trees.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import evaluation as eval_mod
from . import synthesis as synth_mod
from .bank import build_bank, load_bank, save_bank
from .config import apply_setting, build_config, config_hash
from .errors import ConfigError, G2sfError, StaleArtifactError
from .features import (
    gen_synthetic_dataset,
    iter_samples,
    load_manifest,
    load_sample,
    read_feature_map,
    read_mask,
    write_feature_map,
    write_mask,
)
from .geometry import DistanceNormalizer, fit_normalizer
from .scoring import score_sample, upsample_smooth
from .selftest import run_all
from .tensorio import read_tensor, write_tensor
from .trainer import load_checkpoint, save_checkpoint, train

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_STALE = 3


def _sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_json(path: Path, doc: dict):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True, indent=1, default=_np_default) + "\n")


def _np_default(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON serializable: {type(value)}")


def _stage_manifest_path(root: Path, stage: str) -> Path:
    return Path(root) / f"{stage}_manifest.json"


def _write_stage_manifest(root, stage, cfg_hash, seed, upstream, outputs, extra=None):
    doc = {
        "format": "g2sf-stage-v1",
        "stage": stage,
        "config_hash": cfg_hash,
        "seed": seed,
        "upstream": upstream,
        "outputs": sorted(outputs),
    }
    if extra:
        doc.update(extra)
    _write_json(_stage_manifest_path(root, stage), doc)


def _read_stage_manifest(root, stage) -> dict:
    path = _stage_manifest_path(root, stage)
    if not path.exists():
        raise ConfigError(f"missing upstream artifact: {path} (run the {stage} stage first)")
    return json.loads(path.read_text())


def _verify_link(manifest: dict, upstream_name: str, upstream_path: Path):
    """Check one recorded upstream hash against the file on disk now."""
    recorded = manifest.get("upstream", {}).get(upstream_name)
    if recorded is None:
        return
    current = _sha256(upstream_path)
    if current != recorded:
        raise StaleArtifactError(
            f"stale upstream artifact: {manifest['stage']} was built against "
            f"{upstream_name} {recorded[:12]}, but {upstream_path} now hashes to "
            f"{current[:12]}; rerun {manifest['stage']} and the stages after it"
        )


def _verify_gen(data: Path, run: Path) -> str:
    """Check that ``data`` still holds the dataset the banks were built from.

    Returns the current ``gen`` manifest hash, for the caller to record.
    """
    gen_path = _stage_manifest_path(data, "gen")
    _verify_link(_read_stage_manifest(run, "bank"), "gen", gen_path)
    return _sha256(gen_path)


def _check_rerun(root, stage, cfg_hash, force):
    path = _stage_manifest_path(root, stage)
    if path.exists() and not force:
        existing = json.loads(path.read_text()).get("config_hash")
        if existing == cfg_hash:
            raise FileExistsError(f"{path} already exists for this configuration; "
                                  "pass --force to overwrite")


# ---------------------------------------------------------------------------
# Stage implementations
# ---------------------------------------------------------------------------


def cmd_gen(cfg, args):
    out = Path(args.out)
    _check_rerun(out, "gen", config_hash(cfg), args.force)
    gen_synthetic_dataset(cfg.gen, cfg.seed, out)
    _write_stage_manifest(
        out, "gen", config_hash(cfg), cfg.seed, {},
        ["train_manifest.json", "test_manifest.json"],
    )
    print(f"gen: wrote dataset ({cfg.gen.n_train} train / {cfg.gen.n_test} test) to {out}")
    return EXIT_OK


def _load_banks(run_dir: Path):
    return {m: load_bank(Path(run_dir) / "banks" / f"{m}.g2t") for m in ("pc", "rgb")}


def cmd_bank(cfg, args):
    data, run = Path(args.data), Path(args.run)
    gen_manifest = _read_stage_manifest(data, "gen")
    _check_rerun(run, "bank", config_hash(cfg), args.force)
    train_manifest = load_manifest(data / "train_manifest.json")
    feats = {"pc": [], "rgb": []}
    refs = {"pc": [], "rgb": []}
    for pair in iter_samples(train_manifest):
        fg = pair.foreground
        coords = np.argwhere(fg)
        for m in ("pc", "rgb"):
            feats[m].append(getattr(pair, m).data[fg])
            refs[m].extend((pair.sample_id, int(r), int(c)) for r, c in coords)
    banks = {}
    for m in ("pc", "rgb"):
        banks[m] = build_bank(np.concatenate(feats[m]), m, cfg.bank.fraction,
                              seed=cfg.seed, projection_dim=cfg.bank.projection_dim,
                              source_refs=refs[m])
        save_bank(banks[m], run / "banks" / f"{m}.g2t")
    normalizer = fit_normalizer(iter_samples(train_manifest), banks)
    _write_stage_manifest(
        run, "bank", config_hash(cfg), cfg.seed,
        {"gen": _sha256(_stage_manifest_path(data, "gen"))},
        [f"banks/{m}.g2t" for m in ("pc", "rgb")],
        extra={"normalizer": normalizer.to_dict(),
               "sizes": {m: banks[m].size for m in banks}},
    )
    print(f"bank: {banks['pc'].size} pc / {banks['rgb'].size} rgb prototypes "
          f"(fraction {cfg.bank.fraction})")
    return EXIT_OK


def cmd_synth(cfg, args):
    data, run = Path(args.data), Path(args.run)
    bank_manifest = _read_stage_manifest(run, "bank")
    _verify_link(bank_manifest, "gen", _stage_manifest_path(data, "gen"))
    _check_rerun(run, "synth", config_hash(cfg), args.force)
    train_manifest = load_manifest(data / "train_manifest.json")
    samples = synth_mod.augment_dataset(train_manifest, cfg.synth, cfg.seed)
    outputs = []
    pool_dir = run / "pool"
    for i, (pair, labels) in enumerate(samples):
        stem = f"aug_{i:04d}"
        write_feature_map(pair.pc, pool_dir / f"{stem}_pc.g2t")
        write_feature_map(pair.rgb, pool_dir / f"{stem}_rgb.g2t")
        write_mask(pair.foreground, pool_dir / f"{stem}_fg.g2t", "foreground")
        write_mask(labels, pool_dir / f"{stem}_labels.g2t", "labels")
        outputs.extend(f"pool/{stem}_{suffix}.g2t"
                       for suffix in ("pc", "rgb", "fg", "labels"))
    _write_stage_manifest(
        run, "synth", config_hash(cfg), cfg.seed,
        {"gen": _sha256(_stage_manifest_path(data, "gen")),
         "bank": _sha256(_stage_manifest_path(run, "bank"))},
        outputs,
        extra={"n_aug": len(samples)},
    )
    print(f"synth: wrote {len(samples)} augmented samples to {pool_dir}")
    return EXIT_OK


def _load_pool_samples(run: Path):
    from .features import SamplePair

    synth_manifest = _read_stage_manifest(run, "synth")
    samples = []
    stems = sorted({out.rsplit("_", 1)[0] for out in synth_manifest["outputs"]})
    for stem in stems:
        fg = read_mask(run / f"{stem}_fg.g2t")
        pc = read_feature_map(run / f"{stem}_pc.g2t", foreground=fg)
        rgb = read_feature_map(run / f"{stem}_rgb.g2t", foreground=fg)
        labels = read_mask(run / f"{stem}_labels.g2t")
        samples.append((SamplePair(Path(stem).name, pc, rgb), labels))
    return samples


def cmd_train(cfg, args):
    data, run = Path(args.data), Path(args.run)
    synth_manifest = _read_stage_manifest(run, "synth")
    _verify_link(synth_manifest, "gen", _stage_manifest_path(data, "gen"))
    _verify_link(synth_manifest, "bank", _stage_manifest_path(run, "bank"))
    _check_rerun(run, "train", config_hash(cfg), args.force)
    banks = _load_banks(run)
    bank_manifest = _read_stage_manifest(run, "bank")
    normalizer = DistanceNormalizer.from_dict(bank_manifest["normalizer"])
    samples = _load_pool_samples(run)
    pool = synth_mod.pool_from_samples(samples, banks, normalizer, cfg.loss.k)

    train_manifest = load_manifest(data / "train_manifest.json")
    lspn_cfg = dataclasses.replace(
        cfg.lspn, dim_pc=train_manifest.dims["pc"], dim_rgb=train_manifest.dims["rgb"]
    )
    train_cfg = dataclasses.replace(cfg.train, seed=cfg.seed)
    checkpoint, log_rows, snapshots = train(pool, banks, normalizer, lspn_cfg,
                                            train_cfg, cfg.loss, config_hash(cfg))
    outputs = ["checkpoints/final/manifest.json", "train_log.jsonl"]
    save_checkpoint(checkpoint, run / "checkpoints" / "final")
    for epoch, snap in snapshots:
        save_checkpoint(snap, run / "checkpoints" / f"epoch_{epoch:04d}")
        outputs.append(f"checkpoints/epoch_{epoch:04d}/manifest.json")
    with open(run / "train_log.jsonl", "w") as fh:
        for row in log_rows:
            if args.deterministic:
                row = dict(row, wall_time=None)
            fh.write(json.dumps(row, sort_keys=True, default=_np_default) + "\n")
    _write_stage_manifest(
        run, "train", config_hash(cfg), cfg.seed,
        {"synth": _sha256(_stage_manifest_path(run, "synth")),
         "bank": _sha256(_stage_manifest_path(run, "bank"))},
        outputs,
        extra={"epochs": train_cfg.epochs, "m0": checkpoint.m0},
    )
    print(f"train: {train_cfg.epochs} epochs on {pool.size} pooled cells; "
          f"final sigma ({checkpoint.model.sigma_pc:.4f}, {checkpoint.model.sigma_rgb:.4f})")
    return EXIT_OK


def _load_trained(run: Path):
    checkpoint = load_checkpoint(run / "checkpoints" / "final")
    checkpoint.banks = _load_banks(run)
    return checkpoint


def cmd_score(cfg, args):
    data, run = Path(args.data), Path(args.run)
    train_manifest_doc = _read_stage_manifest(run, "train")
    _verify_link(train_manifest_doc, "synth", _stage_manifest_path(run, "synth"))
    _verify_link(train_manifest_doc, "bank", _stage_manifest_path(run, "bank"))
    gen_hash = _verify_gen(data, run)
    _check_rerun(run, "score", config_hash(cfg), args.force)
    checkpoint = _load_trained(run)
    test_manifest = load_manifest(data / "test_manifest.json")
    factor = cfg.eval.upsample_factor or test_manifest.gt_upscale
    outputs = []
    per_sample = []

    def one(ref):
        pair = load_sample(test_manifest, ref)
        smap = score_sample(checkpoint.model, pair, checkpoint.banks,
                            checkpoint.normalizer, cfg.eval.k, cfg.eval.agg)
        return ref, upsample_smooth(smap, factor, cfg.eval.smooth_sigma)

    results = eval_mod._run_samples(one, list(test_manifest.samples), args.threads)
    for ref, smap in results:
        grid_path = f"scores/{ref.sample_id}_grid.g2t"
        pixel_path = f"scores/{ref.sample_id}_pixel.g2t"
        write_tensor(run / grid_path, smap.grid, {"kind": "score_map"})
        write_tensor(run / pixel_path, smap.upsampled, {"kind": "score_map_pixel"})
        outputs.extend([grid_path, pixel_path])
        per_sample.append({"sample_id": ref.sample_id,
                           "score": float(smap.sample_score),
                           "grid": grid_path, "pixel": pixel_path})
    _write_stage_manifest(
        run, "score", config_hash(cfg), cfg.seed,
        {"gen": gen_hash, "train": _sha256(_stage_manifest_path(run, "train"))},
        outputs,
        extra={"samples": per_sample, "agg": cfg.eval.agg, "upsample_factor": factor},
    )
    print(f"score: wrote {len(per_sample)} score maps (agg={cfg.eval.agg})")
    return EXIT_OK


def cmd_eval(cfg, args):
    data, run = Path(args.data), Path(args.run)
    score_manifest = _read_stage_manifest(run, "score")
    _verify_link(score_manifest, "gen", _stage_manifest_path(data, "gen"))
    _verify_link(score_manifest, "train", _stage_manifest_path(run, "train"))
    _check_rerun(run, "eval", config_hash(cfg), args.force)
    test_manifest = load_manifest(data / "test_manifest.json")
    by_id = {ref.sample_id: ref for ref in test_manifest.samples}
    sample_ids, scores, labels, pixel_maps, gt_masks = [], [], [], [], []
    for entry in score_manifest["samples"]:
        ref = by_id.get(entry["sample_id"])
        if ref is None:
            raise ConfigError(f"scored sample {entry['sample_id']} missing from manifest")
        pixel, _ = read_tensor(run / entry["pixel"])
        sample_ids.append(ref.sample_id)
        scores.append(entry["score"])
        gt = read_mask(test_manifest.root / ref.pixel_gt) if ref.pixel_gt else None
        if ref.image_label is not None:
            labels.append(int(ref.image_label))
        elif gt is not None:
            labels.append(int(gt.any()))
        else:
            raise ConfigError(f"sample {ref.sample_id} has neither label nor ground truth")
        pixel_maps.append(pixel.astype(np.float64))
        gt_masks.append(gt)
    report = eval_mod.report_from_maps(sample_ids, scores, labels, pixel_maps, gt_masks,
                                       cfg.eval.aupro_limits, cfg.eval.max_curve_points)
    report_path = run / "reports" / "eval.json"
    report_path.parent.mkdir(parents=True, exist_ok=True)
    report_path.write_text(report.to_json() + "\n")
    _write_stage_manifest(
        run, "eval", config_hash(cfg), cfg.seed,
        {"score": _sha256(_stage_manifest_path(run, "score"))},
        ["reports/eval.json"],
    )
    aupro_txt = ", ".join(f"AUPRO@{int(l * 100)}%={v:.4f}" for l, v in report.aupro.items())
    pixel_txt = f"P-AUROC={report.p_auroc:.4f}, {aupro_txt}" if report.p_auroc is not None \
        else "pixel metrics omitted (no ground truth)"
    print(f"eval: I-AUROC={report.i_auroc:.4f}, {pixel_txt}")
    return EXIT_OK


def cmd_ablate(cfg, args):
    data, run = Path(args.data), Path(args.run)
    train_manifest_doc = _read_stage_manifest(run, "train")
    _verify_link(train_manifest_doc, "synth", _stage_manifest_path(run, "synth"))
    gen_hash = _verify_gen(data, run)
    _check_rerun(run, "ablate", config_hash(cfg), args.force)
    checkpoint = _load_trained(run)
    test_manifest = load_manifest(data / "test_manifest.json")
    eval_cfg = dataclasses.replace(cfg.eval, threads=args.threads)
    variants, aggregations = eval_mod.ablation_scores(checkpoint, test_manifest, eval_cfg)
    eval_mod.write_ablation_csv(variants, run / "reports" / "ablation_scores.csv",
                                cfg.eval.aupro_limits)
    eval_mod.write_ablation_csv(aggregations, run / "reports" / "ablation_aggregation.csv",
                                cfg.eval.aupro_limits)
    _write_stage_manifest(
        run, "ablate", config_hash(cfg), cfg.seed,
        {"gen": gen_hash, "train": _sha256(_stage_manifest_path(run, "train"))},
        ["reports/ablation_scores.csv", "reports/ablation_aggregation.csv"],
    )
    fused = next(r for r in variants if r["variant"] == "fused")
    print(f"ablate: fused I-AUROC={fused['i_auroc']:.4f} "
          f"(tables under {run / 'reports'})")
    return EXIT_OK


def cmd_selftest(cfg, args):
    results = run_all(checkpoint=args.checkpoint)
    width = max(len(name) for name, _, _ in results)
    failures = []
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL':4s} {name:{width}s}  {detail}")
        if not ok:
            failures.append(name)
    if failures:
        print(f"selftest: {len(failures)} failing invariant(s): {', '.join(failures)}")
        return EXIT_RUNTIME
    print(f"selftest: all {len(results)} invariants hold")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_common(parser):
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override one config key (repeatable)")
    parser.add_argument("--seed", type=int, help="override the run seed")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads for per-sample stages")
    parser.add_argument("--deterministic", action="store_true", default=True,
                        help="single-threaded ordered reductions (default)")
    parser.add_argument("--no-deterministic", dest="deterministic",
                        action="store_false")
    parser.add_argument("--force", action="store_true",
                        help="overwrite artifacts from an identical configuration")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="g2sf",
        description="Geometry-guided score fusion pipeline for multimodal "
                    "anomaly detection on feature grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic two-modality dataset")
    p.add_argument("--out", required=True, help="dataset output directory")
    p.add_argument("--grid", help="HxW grid, e.g. 16x16")
    p.add_argument("--dims", help="D_pc,D_rgb feature dims, e.g. 8,8")
    p.add_argument("--n-train", type=int)
    p.add_argument("--n-test", type=int)
    p.add_argument("--anomaly-modes", help="comma list from pc_only,rgb_only,joint")
    _add_common(p)

    for name, extras in (
        ("bank", [("--fraction", float), ("--projection-dim", int)]),
        ("synth", [("--n-aug", int), ("--strength", float)]),
        ("train", [("--epochs", int), ("--batch-size", int), ("--eval-every", int)]),
        ("score", [("--agg", str)]),
        ("eval", []),
        ("ablate", []),
    ):
        p = sub.add_parser(name, help=f"run the {name} stage")
        p.add_argument("--data", required=True, help="dataset directory (gen output)")
        p.add_argument("--run", required=True, help="run directory for artifacts")
        for flag, typ in extras:
            p.add_argument(flag, type=typ)
        _add_common(p)

    p = sub.add_parser("selftest", help="run the embedded invariant suite")
    p.add_argument("--checkpoint", help="also validate this checkpoint directory")
    _add_common(p)
    return parser


_FLAG_KEYS = {
    "grid": ("gen.grid", lambda v: v.replace("x", ",")),
    "dims": ("gen.dims", None),
    "n_train": ("gen.n_train", None),
    "n_test": ("gen.n_test", None),
    "anomaly_modes": ("gen.anomaly_modes", None),
    "fraction": ("bank.fraction", None),
    "projection_dim": ("bank.projection_dim", None),
    "n_aug": ("synth.n_aug", None),
    "strength": ("synth.strength", None),
    "epochs": ("train.epochs", None),
    "batch_size": ("train.batch_size", None),
    "eval_every": ("train.eval_every", None),
    "agg": ("eval.agg", None),
}


def _config_from_args(args) -> "RunConfig":
    cfg = build_config(getattr(args, "config", None), getattr(args, "set", []))
    for attr, (key, transform) in _FLAG_KEYS.items():
        value = getattr(args, attr, None)
        if value is not None:
            text = transform(str(value)) if transform else str(value)
            apply_setting(cfg, key, text)
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if args.deterministic:
        args.threads = 1
    cfg.eval.threads = max(1, args.threads)
    cfg.validate()
    return cfg


_COMMANDS = {
    "gen": cmd_gen,
    "bank": cmd_bank,
    "synth": cmd_synth,
    "train": cmd_train,
    "score": cmd_score,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = _config_from_args(args)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StaleArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STALE
    except (G2sfError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
