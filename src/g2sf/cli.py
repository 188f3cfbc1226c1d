"""Command-line pipeline: gen, bank, synth, train, score, eval, ablate, selftest.

The stages form one declared graph, ``_READS``: each stage lists the upstream
stages whose artifacts it reads. One runner, ``_run_stage``, runs each stage:
it walks ``_READS`` breadth-first back to ``gen`` and, at every stage it
reaches, re-hashes the upstream manifests and the output files that stage
recorded; it refuses to overwrite the manifest of an identical configuration
without ``--force``; it runs the stage's work; and it writes the stage's
manifest: config hash, seed, the SHA-256 of each manifest the stage reads
and of every file it wrote, and ``digest``, the SHA-256 of all of that. A
hash mismatch means an artifact was rebuilt or edited after a stage built on
it, and the stage refuses with exit code 3, naming the stage and the file; so
does a malformed stage manifest, or one whose keys no longer match its
digest. Exit codes: 0 success, 1 I/O or runtime failure, 2 configuration
error, 3 stale or edited upstream artifact.

The network runs once per checkpoint: per test sample, ``score`` writes
every map of ``scoring.sample_maps`` stacked on the grid, and the G2SF
score's upsampled, smoothed pixel map. ``eval`` reads the pixel maps and
``ablate`` the stacked grids; neither loads a checkpoint or a bank.

All artifacts are reproducible from (command, config, seed): file contents
are canonical and carry no wall-clock fields, so two identical runs produce
byte-identical trees. ``--threads`` spreads the per-sample scoring of
``score`` over a thread pool; it is not a config key and changes no result.
"""
from __future__ import annotations

import argparse
import copy
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import evaluation as eval_mod
from . import synthesis as synth_mod
from .bank import load_bank, save_bank
from .config import build_config, config_hash, derive
from .errors import ConfigError, G2sfError, StaleArtifactError
from .features import (
    foreground_cells,
    gen_synthetic_dataset,
    iter_samples,
    load_manifest,
    read_mask,
    save_split,
)
from .geometry import DistanceNormalizer, fit_banks
from .scoring import G2SF_SCORE, ScoreMap, upsample_smooth
from .selftest import run_all
from .tensorio import read_tensor, write_tensor
from .trainer import load_checkpoint, save_checkpoint, train

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_STALE = 3

STAGE_FORMAT = "g2sf-stage-v3"

# For each stage, the upstream stages whose artifacts it reads, in pipeline
# order. ``gen`` lives in the dataset directory, every other stage in the run
# directory.
_READS = {
    "gen": (),
    "bank": ("gen",),
    "synth": ("gen",),
    "train": ("bank", "synth"),
    "score": ("gen", "train"),
    "eval": ("gen", "score"),
    "ablate": ("gen", "score"),
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_json(path: Path, doc: dict):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def _root(stage, data: Path, run: Path) -> Path:
    return data if stage == "gen" else run


def _stage_manifest_path(root: Path, stage: str) -> Path:
    return Path(root) / f"{stage}_manifest.json"


def _digest(doc: dict) -> str:
    """SHA-256 of the canonical JSON of every key of ``doc`` but ``digest``."""
    body = {key: value for key, value in doc.items() if key != "digest"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def _read_stage_manifest(root, stage) -> dict:
    """The one reader of stage manifests: a JSON object of ``STAGE_FORMAT``
    with ``upstream`` and ``outputs`` mappings whose ``digest`` matches its
    other keys, or StaleArtifactError."""
    path = _stage_manifest_path(root, stage)
    if not path.exists():
        raise ConfigError(f"missing upstream artifact: {path} (run the {stage} stage first)")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError:
        doc = None
    if not isinstance(doc, dict):
        problem = "is not a JSON object"
    elif doc.get("format") != STAGE_FORMAT:
        problem = f"has format {doc.get('format')!r}, not {STAGE_FORMAT}"
    elif not all(isinstance(doc.get(key), dict) for key in ("upstream", "outputs")):
        problem = "lacks its upstream or outputs mapping"
    elif doc.get("digest") != _digest(doc):
        problem = "does not match its digest (edited after its stage wrote it)"
    else:
        return doc
    raise StaleArtifactError(f"{path} {problem}; rerun {stage} with --force and the stages "
                             "after it")


def _write_manifest(stage, cfg, data, run, outputs, extra):
    """Stamp ``stage``'s manifest: config, seed, upstream and output hashes."""
    root = _root(stage, data, run)
    upstream = {up: _sha256(_stage_manifest_path(_root(up, data, run), up))
                for up in _READS[stage]}
    doc = {
        "format": STAGE_FORMAT,
        "stage": stage,
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "upstream": upstream,
        "outputs": {rel: _sha256(root / rel) for rel in outputs},
        **extra,
    }
    doc["digest"] = _digest(doc)
    _write_json(_stage_manifest_path(root, stage), doc)


def _check_upstream(stage, data, run):
    """Re-hash every manifest and output recorded upstream of ``stage``.

    The walk is breadth-first through ``_READS``, nearest stage first and
    parents in table order, so the stale link reported is the one closest to
    ``stage``.
    """
    queue = list(_READS[stage])
    for name in queue:
        root = _root(name, data, run)
        doc = _read_stage_manifest(root, name)
        recorded = [(f"{name} was built against {up}",
                     _stage_manifest_path(_root(up, data, run), up), digest)
                    for up, digest in doc["upstream"].items()]
        recorded += [(f"{name} recorded its output as", root / rel, digest)
                     for rel, digest in doc["outputs"].items()]
        for what, path, digest in recorded:
            current = _sha256(path) if path.is_file() else None
            if current != digest:
                now = f"now hashes to {current[:12]}" if current else "is missing"
                raise StaleArtifactError(
                    f"stale upstream artifact: {what} {digest[:12]}, but {path} {now}; "
                    f"rerun {name} and the stages after it")
        queue += [up for up in _READS[name] if up not in queue]


def _check_rerun(root, stage, cfg_hash, force):
    path = _stage_manifest_path(root, stage)
    if path.exists() and not force:
        if _read_stage_manifest(root, stage).get("config_hash") == cfg_hash:
            raise FileExistsError(f"{path} already exists for this configuration; "
                                  "pass --force to overwrite")


# ---------------------------------------------------------------------------
# Stage work: each returns (outputs relative to its root, extra manifest
# keys, summary line)
# ---------------------------------------------------------------------------


def _split_outputs(manifest) -> list:
    """A split's manifest, then every sample file it names, relative to its root."""
    outputs = [f"{manifest.split}_manifest.json"]
    for ref in manifest.samples:
        outputs += [p for p in (ref.pc, ref.rgb, ref.foreground, ref.pixel_gt) if p]
    return outputs


def cmd_gen(cfg, data, run):
    outputs = [rel for manifest in gen_synthetic_dataset(cfg.gen, cfg.seed, data)
               for rel in _split_outputs(manifest)]
    return outputs, {}, (f"gen: wrote dataset ({cfg.gen.n_train} train / "
                         f"{cfg.gen.n_test} test) to {data}")


def _load_banks(run_dir: Path):
    return {m: load_bank(Path(run_dir) / "banks" / f"{m}.g2t") for m in ("pc", "rgb")}


def cmd_bank(cfg, data, run):
    banks, normalizer = fit_banks(load_manifest(data / "train_manifest.json"), cfg.bank.fraction)
    for m, bank in banks.items():
        save_bank(bank, run / "banks" / f"{m}.g2t")
    outputs = [f"banks/{m}.g2t" for m in banks]
    extra = {"normalizer": normalizer.to_dict(), "sizes": {m: banks[m].size for m in banks},
             "coverage": {m: {"radius": float(banks[m].coverage.max())} for m in banks}}
    return outputs, extra, (f"bank: {banks['pc'].size} pc / {banks['rgb'].size} rgb "
                            f"prototypes (fraction {cfg.bank.fraction})")


def cmd_synth(cfg, data, run):
    train_manifest = load_manifest(data / "train_manifest.json")
    samples = synth_mod.augment_dataset(train_manifest, cfg.synth, cfg.seed)
    # The pool is a split whose ground truth is each sample's cell labels.
    pool = save_split(run, "pool", (replace(pair, pixel_gt=labels) for pair, labels in samples),
                      train_manifest.grid, train_manifest.dims, 1)
    return _split_outputs(pool), {}, (f"synth: wrote {len(pool.samples)} augmented samples "
                                      f"to {run / 'pool'}")


def cmd_train(cfg, data, run):
    banks = _load_banks(run)
    normalizer = DistanceNormalizer.from_dict(_read_stage_manifest(run, "bank")["normalizer"])
    # The small foreground masks size the pool; the samples then stream into
    # it one at a time, each freed once the pool has its cells, so the
    # augmented samples are never held together.
    pool_manifest = load_manifest(run / "pool_manifest.json")
    pool = synth_mod.pool_from_samples(
        ((pair, pair.pixel_gt) for pair in iter_samples(pool_manifest)), banks, normalizer,
        cfg.loss.k, cells=foreground_cells(pool_manifest))

    sized = copy.deepcopy(cfg)
    derive(sized, pool_manifest.dims)
    checkpoint, log_rows, _ = train(pool, banks, normalizer, sized.lspn, cfg.train, cfg.loss)
    save_checkpoint(checkpoint, run / "checkpoint.g2t")
    with open(run / "train_log.jsonl", "w") as fh:
        for row in log_rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    return ["train_log.jsonl", "checkpoint.g2t"], {}, (
        f"train: {cfg.train.epochs} epochs on {pool.size} pooled cells; final sigma "
        f"({checkpoint.model.sigma_pc:.4f}, {checkpoint.model.sigma_rgb:.4f})")


def cmd_score(cfg, data, run, threads):
    checkpoint = load_checkpoint(run / "checkpoint.g2t")
    checkpoint.banks = _load_banks(run)
    test_manifest = load_manifest(data / "test_manifest.json")
    outputs = []
    per_sample = []
    for scored in eval_mod.score_split(checkpoint, test_manifest, threads):
        grid_path = f"scores/{scored.sample_id}_grid.g2t"
        pixel_path = f"scores/{scored.sample_id}_pixel.g2t"
        write_tensor(run / grid_path, np.stack([m.grid for m in scored.maps.values()]),
                     {"kind": "score_maps", "maps": list(scored.maps)})
        pixel = upsample_smooth(scored.maps[G2SF_SCORE], test_manifest.gt_upscale,
                                eval_mod.SMOOTH_SIGMA)
        write_tensor(run / pixel_path, pixel.upsampled, {"kind": "score_map_pixel"})
        outputs.extend([grid_path, pixel_path])
        per_sample.append({"sample_id": scored.sample_id,
                           "scores": {name: m.sample_score for name, m in scored.maps.items()},
                           "grid": grid_path, "pixel": pixel_path})
    return outputs, {"samples": per_sample}, f"score: wrote {len(per_sample)} score maps"


def _read_scored(data, run):
    """The test manifest, and each score-manifest entry with its test sample
    and ground-truth mask (None when the sample has none)."""
    score_manifest = _read_stage_manifest(run, "score")
    test_manifest = load_manifest(data / "test_manifest.json")
    by_id = {ref.sample_id: ref for ref in test_manifest.samples}
    rows = []
    for entry in score_manifest["samples"]:
        ref = by_id.get(entry["sample_id"])
        if ref is None:
            raise ConfigError(f"scored sample {entry['sample_id']} missing from manifest")
        gt = read_mask(test_manifest.root / ref.pixel_gt) if ref.pixel_gt else None
        rows.append((entry, ref, gt))
    return test_manifest, rows


def cmd_eval(cfg, data, run):
    _, rows = _read_scored(data, run)
    report = eval_mod.report_from_maps(
        [ref.sample_id for _, ref, _ in rows],
        [entry["scores"][G2SF_SCORE] for entry, _, _ in rows],
        [eval_mod.sample_label(ref.sample_id, ref.image_label, gt) for _, ref, gt in rows],
        [read_tensor(run / entry["pixel"])[0].astype(np.float64) for entry, _, _ in rows],
        [gt for _, _, gt in rows])
    report_path = run / "reports" / "eval.json"
    report_path.parent.mkdir(parents=True, exist_ok=True)
    report_path.write_text(report.to_json() + "\n")
    aupro_txt = ", ".join(f"AUPRO@{int(l * 100)}%={v:.4f}" for l, v in report.aupro.items())
    pixel_txt = f"P-AUROC={report.p_auroc:.4f}, {aupro_txt}" if report.p_auroc is not None \
        else "pixel metrics omitted (no ground truth)"
    return ["reports/eval.json"], {}, f"eval: I-AUROC={report.i_auroc:.4f}, {pixel_txt}"


def cmd_ablate(cfg, data, run):
    test_manifest, rows = _read_scored(data, run)
    scored = []
    for entry, ref, gt in rows:
        grids, header = read_tensor(run / entry["grid"])
        maps = {name: ScoreMap(grid, entry["scores"][name])
                for name, grid in zip(header["maps"], grids)}
        scored.append(eval_mod.ScoredSample(ref.sample_id, ref.image_label, gt, maps))
    variants, aggregations = eval_mod.ablation_scores(scored, test_manifest.gt_upscale)
    outputs = ["reports/ablation_scores.csv", "reports/ablation_aggregation.csv"]
    for table, rel in zip((variants, aggregations), outputs):
        eval_mod.write_ablation_csv(table, run / rel)
    fused = next(r for r in variants if r["variant"] == "fused")
    return outputs, {}, (f"ablate: fused I-AUROC={fused['i_auroc']:.4f} "
                         f"(tables under {run / 'reports'})")


_WORK = {
    "gen": cmd_gen,
    "bank": cmd_bank,
    "synth": cmd_synth,
    "train": cmd_train,
    "score": cmd_score,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
}


def _run_stage(stage, cfg, args):
    """Check the chain upstream of ``stage``, run its work, stamp its manifest."""
    data = Path(args.out if stage == "gen" else args.data)
    run = None if stage == "gen" else Path(args.run)
    if run is not None and run.resolve() == data.resolve():
        raise ConfigError(f"--run {run} is the dataset directory --data {data}; "
                          "give the run its own directory")
    _check_upstream(stage, data, run)
    _check_rerun(_root(stage, data, run), stage, config_hash(cfg), args.force)
    options = {"threads": args.threads} if stage == "score" else {}
    outputs, extra, message = _WORK[stage](cfg, data, run, **options)
    _write_manifest(stage, cfg, data, run, outputs, extra)
    print(message)
    return EXIT_OK


def cmd_selftest(checkpoint):
    results = run_all(checkpoint=checkpoint)
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


# Per stage, each dedicated flag and the config key it sets. Every stage
# also takes ``_COMMON_FLAGS``. Flag values are config text, applied after
# ``--set`` through ``apply_setting``; ``--grid`` also reads HxW. ``selftest``
# reads no config and takes only ``--checkpoint``.
_COMMON_FLAGS = {"--seed": "seed"}
_FLAGS = {
    "gen": {"--grid": "gen.grid", "--dims": "gen.dims", "--n-train": "gen.n_train",
            "--n-test": "gen.n_test"},
    "bank": {"--fraction": "bank.fraction"},
    "synth": {"--n-aug": "synth.n_aug"},
    "train": {"--epochs": "train.epochs", "--batch-size": "train.batch_size"},
    "score": {},
    "eval": {},
    "ablate": {},
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="g2sf",
        description="Geometry-guided score fusion pipeline for multimodal "
                    "anomaly detection on feature grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in _FLAGS.items():
        p = sub.add_parser(name, help="generate a synthetic two-modality dataset"
                           if name == "gen" else f"run the {name} stage")
        if name == "gen":
            p.add_argument("--out", required=True, help="dataset output directory")
        else:
            p.add_argument("--data", required=True, help="dataset directory (gen output)")
            p.add_argument("--run", required=True, help="run directory for artifacts")
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
        for flag, key in {**flags, **_COMMON_FLAGS}.items():
            p.add_argument(flag, dest=key, metavar="VALUE", help=f"set {key}")
        p.add_argument("--threads", type=int, default=1, metavar="N",
                       help="worker threads of per-sample scoring (score); "
                            "changes no result")
        p.add_argument("--force", action="store_true",
                       help="overwrite artifacts from an identical configuration")
    p = sub.add_parser("selftest", help="run the embedded invariant suite")
    p.add_argument("--checkpoint", help="also validate this checkpoint file")
    return parser


def _config_from_args(args):
    settings = list(args.set)
    for key in {**_FLAGS[args.command], **_COMMON_FLAGS}.values():
        value = getattr(args, key)
        if value is not None:
            settings.append(f"{key}={value.replace('x', ',') if key == 'gen.grid' else value}")
    return build_config(args.config, settings)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "selftest":
            return cmd_selftest(args.checkpoint)
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        return _run_stage(args.command, _config_from_args(args), args)
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
