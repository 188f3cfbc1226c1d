"""The three benchmark workloads: set-up, one timed pass, and its checks.

Each workload has four parts:

* ``setup(seed, work, shape)`` runs in a child process. It makes the
  workload's inputs from the seed and writes them under ``work``. Running it
  in a child keeps set-up memory (paper_inspect's whole fit, for one) out of
  the measured process's peak RSS.
* ``load(work, shape)`` reads what set-up wrote into the measured process.
  Its time counts as set-up time.
* ``run(state, tracer, index)`` is one timed pass. It calls g2sf through
  module attributes (``bank_mod.build_bank``), never through names bound at
  import time, so the traced run's patches reach the calls.
* ``finish(state, raw, tracer, gate)`` runs after the pass, outside tracing.
  It checks the outputs and returns the pass's metrics.

The seed changes only the generated dataset. The program's own seed
(augmentation, initialisation, dropout) is fixed at ``PROGRAM_SEED``, so the
program receives nothing but the generated files and arrays.
"""
from __future__ import annotations

import json
import statistics
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from g2sf import bank as bank_mod
from g2sf import cli
from g2sf import evaluation
from g2sf import features
from g2sf import geometry
from g2sf import scoring
from g2sf import synthesis
from g2sf import tensorio
from g2sf import trainer
from g2sf.errors import FormatError
from g2sf.losses import LossConfig
from g2sf.lspn import LspnConfig

from tracer import CLI_STAGES

ROOT = Path(__file__).resolve().parent.parent
DESK_CFG = ROOT / "configs" / "desk.cfg"
REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())
DEFAULT_SEED = REFERENCE["seed"]
PROGRAM_SEED = 7
DESK_N_TEST = 24  # half of desk.cfg's 48, so that 4 + 22 x 3 runs fit the driver's budget
MODALITIES = ("pc", "rgb")
SMOOTH_SIGMA = 4.0  # EvalConfig default, as the CLI eval stage uses


@dataclass(frozen=True)
class PaperShape:
    """Paper dims and widths, with counts sized for a 2-core / 7 GB box."""

    grid: tuple = (16, 16)
    dims: tuple = (1152, 768)
    n_train: int = 4          # 4 x 196 foreground cells at fraction 0.2 -> 157 prototypes
    n_test: int = 40          # p75 of per-sample latency keeps 10 samples beyond it
    fraction: float = 0.20
    k: int = 5
    branch_widths: tuple = (512, 256)
    fusion_widths: tuple = (128,)
    batch_size: int = 8192
    fit_n_aug: int = 16       # paper_fit: 3,136 pooled cells
    fit_epochs: int = 2
    inspect_n_aug: int = 2    # paper_inspect set-up: a briefly trained model
    inspect_epochs: int = 1


class Gate:
    """Counts checked operations and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, what: str, ok: bool):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def mann_whitney_auroc(scores, labels) -> float:
    """Brute-force pairwise AUROC: each (anomalous, normal) pair scores 1, 1/2 or 0."""
    pos = [s for s, y in zip(scores, labels) if y]
    neg = [s for s, y in zip(scores, labels) if not y]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def _check_report(gate, scores, labels, i_auroc):
    oracle = mann_whitney_auroc(scores, labels)
    gate.check(f"I-AUROC {i_auroc!r} != pairwise oracle {oracle!r}",
               abs(oracle - i_auroc) <= 1e-12)


def check_reference(gate, workload, seed, values):
    """On the default seed, quality values must equal the recorded ones."""
    if seed != DEFAULT_SEED:
        return
    tol = REFERENCE["rel_tol"]
    for key, ref in REFERENCE[workload].items():
        gate.check(f"{key} {values[key]!r} != reference {ref!r}",
                   abs(values[key] - ref) <= tol * abs(ref))


def _quality(report) -> dict:
    return {"i_auroc": report.i_auroc, "p_auroc": report.p_auroc,
            "aupro_30": report.aupro[0.3], "aupro_1": report.aupro[0.01]}


# ---------------------------------------------------------------------------
# Shared paper-shape pieces
# ---------------------------------------------------------------------------


def _gen(seed, data, shape, n_test):
    cfg = features.SynthConfig(grid=shape.grid, dims=shape.dims,
                               n_train=shape.n_train, n_test=n_test)
    features.gen_synthetic_dataset(cfg, seed, data)


def _load_train(data):
    manifest = features.load_manifest(Path(data) / "train_manifest.json")
    pairs = list(features.iter_samples(manifest))
    feats = {m: np.concatenate([getattr(p, m).data[p.foreground] for p in pairs])
             for m in MODALITIES}
    return manifest, pairs, feats


def _fit(manifest, pairs, feats, shape, n_aug, epochs):
    """Bank through train; returns (checkpoint, final-epoch val_total)."""
    banks = {m: bank_mod.build_bank(feats[m], m, shape.fraction, seed=PROGRAM_SEED)
             for m in MODALITIES}
    normalizer = geometry.fit_normalizer(pairs, banks)
    pool = synthesis.build_training_pool(
        manifest, banks, normalizer, synthesis.SynthesisConfig(n_aug=n_aug, k=shape.k),
        PROGRAM_SEED)
    lspn_cfg = LspnConfig(dim_pc=shape.dims[0], dim_rgb=shape.dims[1],
                          branch_widths=shape.branch_widths,
                          fusion_widths=shape.fusion_widths)
    train_cfg = trainer.TrainConfig(epochs=epochs, batch_size=shape.batch_size,
                                    seed=PROGRAM_SEED)
    checkpoint, log_rows, _ = trainer.train(pool, banks, normalizer, lspn_cfg,
                                            train_cfg, LossConfig(k=shape.k))
    return checkpoint, log_rows[-1]["val_total"]


# ---------------------------------------------------------------------------
# desk_cli: the CLI chain on configs/desk.cfg
# ---------------------------------------------------------------------------


def _cli(argv) -> int:
    with redirect_stdout(sys.stderr):  # keep stdout for the result lines
        return cli.main([str(a) for a in argv] + ["--threads", "1"])


def desk_setup(seed, work, shape):
    code = _cli(["gen", "--config", DESK_CFG, "--out", Path(work) / "data", "--seed", seed,
                 "--n-test", DESK_N_TEST])
    if code != 0:
        raise SystemExit(f"gen exited {code}")


def desk_load(work, shape):
    return {"data": Path(work) / "data", "work": Path(work)}


def desk_run(state, tr, index):
    run = state["work"] / f"run_{index}"
    codes = {}
    for stage in CLI_STAGES:
        with tr.span(f"cli.{stage}", cpu=True):
            codes[stage] = _cli([stage, "--config", DESK_CFG, "--data", state["data"],
                                 "--run", run])
    return run, codes


def desk_finish(state, raw, tr, gate):
    run, codes = raw
    for stage, code in codes.items():
        gate.check(f"cli {stage} exited {code}", code == 0)
    samples = json.loads((run / "score_manifest.json").read_text())["samples"]
    for entry in samples:
        for key in ("grid", "pixel"):
            try:
                ok = bool(np.isfinite(tensorio.read_tensor(run / entry[key])[0]).all())
            except FormatError:
                ok = False
            gate.check(f"{entry[key]} finite", ok)
    report = evaluation.EvalReport.from_json((run / "reports" / "eval.json").read_text())
    rows = report.per_sample
    _check_report(gate, [r["score"] for r in rows], [r["label"] for r in rows],
                  report.i_auroc)
    last = (run / "train_log.jsonl").read_text().strip().splitlines()[-1]
    stage_s = {stage: tr.total(f"cli.{stage}") for stage in CLI_STAGES}
    metrics = {"fit_s": stage_s["bank"] + stage_s["synth"] + stage_s["train"],
               "val_loss": json.loads(last)["val_total"]}
    detail = {"score_samples_per_s": len(samples) / stage_s["score"],
              "eval_s": stage_s["eval"], "ablate_s": stage_s["ablate"], **_quality(report)}
    return metrics, detail


# ---------------------------------------------------------------------------
# paper_fit: library fit at paper dims and widths
# ---------------------------------------------------------------------------


def fit_setup(seed, work, shape):
    _gen(seed, Path(work) / "data", shape, n_test=1)


def fit_load(work, shape):
    return {"train": _load_train(Path(work) / "data"), "shape": shape}


def fit_run(state, tr, index):
    with tr.span("fit"):
        return _fit(*state["train"], state["shape"], state["shape"].fit_n_aug,
                    state["shape"].fit_epochs)


def fit_finish(state, raw, tr, gate):
    checkpoint, val_loss = raw
    params = [b.weight for b in checkpoint.model.proto_branch + checkpoint.model.dir_branch
              + checkpoint.model.fusion_head]
    gate.check("trained weights finite", all(np.isfinite(p).all() for p in params))
    gate.check(f"val_loss {val_loss!r} finite", val_loss is not None and np.isfinite(val_loss))
    return {"fit_s": tr.total("fit"), "val_loss": val_loss}, {}


# ---------------------------------------------------------------------------
# paper_inspect: per-sample scoring and the report at paper dims
# ---------------------------------------------------------------------------


def inspect_setup(seed, work, shape):
    work = Path(work)
    _gen(seed, work / "data", shape, n_test=shape.n_test)
    t0 = time.perf_counter()
    checkpoint, val_loss = _fit(*_load_train(work / "data"), shape, shape.inspect_n_aug,
                                shape.inspect_epochs)
    fit_s = time.perf_counter() - t0
    for m in MODALITIES:
        bank_mod.save_bank(checkpoint.banks[m], work / "banks" / f"{m}.g2t")
    trainer.save_checkpoint(checkpoint, work / "checkpoint")
    (work / "setup.json").write_text(json.dumps({"fit_s": fit_s, "val_loss": val_loss}))


def inspect_load(work, shape):
    work = Path(work)
    checkpoint = trainer.load_checkpoint(work / "checkpoint")
    checkpoint.banks = {m: bank_mod.load_bank(work / "banks" / f"{m}.g2t") for m in MODALITIES}
    return {"checkpoint": checkpoint, "shape": shape,
            "test": features.load_manifest(work / "data" / "test_manifest.json"),
            "setup": json.loads((work / "setup.json").read_text())}


def inspect_run(state, tr, index):
    ckpt, test, k = state["checkpoint"], state["test"], state["shape"].k
    out = []
    for ref in test.samples:
        with tr.span("sample"):
            pair = features.load_sample(test, ref)
            smap = scoring.score_sample(ckpt.model, pair, ckpt.banks, ckpt.normalizer, k)
            smap = scoring.upsample_smooth(smap, test.gt_upscale, SMOOTH_SIGMA)
        out.append((ref, smap, pair.pixel_gt))
    with tr.span("eval"):
        report = evaluation.report_from_maps(
            [ref.sample_id for ref, _, _ in out], [s.sample_score for _, s, _ in out],
            [ref.image_label for ref, _, _ in out], [s.upsampled for _, s, _ in out],
            [gt for _, _, gt in out])
    return out, report


def inspect_finish(state, raw, tr, gate):
    out, report = raw
    for ref, smap, _ in out:
        gate.check(f"{ref.sample_id} score map finite",
                   bool(np.isfinite(smap.grid).all() and np.isfinite(smap.upsampled).all()))
    _check_report(gate, [s.sample_score for _, s, _ in out],
                  [ref.image_label for ref, _, _ in out], report.i_auroc)
    latencies_ms = [1e3 * (s.end - s.start) for s in tr.named("sample")]
    q = statistics.quantiles(latencies_ms, n=4)
    metrics = {"fit_s": state["setup"]["fit_s"], "val_loss": state["setup"]["val_loss"]}
    detail = {"score_samples_per_s": len(latencies_ms) / (1e-3 * sum(latencies_ms)),
              "score_ms_p50": q[1], "score_ms_p75": q[2], "score_n": len(latencies_ms),
              "eval_s": tr.total("eval"), **_quality(report)}
    return metrics, detail


@dataclass(frozen=True)
class Workload:
    setup: object
    load: object
    run: object
    finish: object


WORKLOADS = {
    "desk_cli": Workload(desk_setup, desk_load, desk_run, desk_finish),
    "paper_fit": Workload(fit_setup, fit_load, fit_run, fit_finish),
    "paper_inspect": Workload(inspect_setup, inspect_load, inspect_run, inspect_finish),
}


def setup_child(name, seed, work):
    """Entry point of the set-up child process."""
    WORKLOADS[name].setup(seed, Path(work), PaperShape())
