"""Container format, manifest, and synthetic-dataset tests."""

import dataclasses
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2sf.errors import FormatError, ShapeError
from g2sf.features import (
    ANOMALY_FRAC,
    ANOMALY_MODES,
    FeatureMap,
    SamplePair,
    SynthConfig,
    foreground_cells,
    gen_synthetic_dataset,
    iter_samples,
    load_manifest,
    load_sample,
    read_feature_map,
    save_split,
    write_feature_map,
)
from g2sf.tensorio import MAGIC, read_tensor, write_tensor


def tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestContainer:
    def test_tiny_roundtrip(self, tmp_path):
        fmap = FeatureMap("pc", np.array([[[1.0, 2.0]]], dtype=np.float32))
        path = tmp_path / "t.g2t"
        write_feature_map(fmap, path)
        back = read_feature_map(path)
        assert back.modality == "pc"
        np.testing.assert_array_equal(back.data, [[[1.0, 2.0]]])

    @given(
        h=st.integers(1, 5), w=st.integers(1, 5), d=st.integers(1, 6),
        modality=st.sampled_from(["pc", "rgb"]), seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_random(self, h, w, d, modality, seed, tmp_path_factory):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((h, w, d)).astype(np.float32)
        path = tmp_path_factory.mktemp("rt") / "m.g2t"
        write_feature_map(FeatureMap(modality, data), path)
        back = read_feature_map(path)
        np.testing.assert_array_equal(back.data, data)
        assert back.modality == modality

    def test_header_is_canonical(self, tmp_path):
        data = np.ones((2, 2, 2), dtype=np.float32)
        a, b = tmp_path / "a.g2t", tmp_path / "b.g2t"
        write_feature_map(FeatureMap("rgb", data), a)
        write_feature_map(FeatureMap("rgb", data.copy()), b)
        assert a.read_bytes() == b.read_bytes()

    def test_layout_matches_contract(self, tmp_path):
        # magic, u32 header length, JSON header, then raw little-endian f32.
        path = tmp_path / "c.g2t"
        write_feature_map(FeatureMap("pc", np.ones((1, 1, 3), dtype=np.float32)), path)
        raw = path.read_bytes()
        assert raw[:8] == MAGIC == b"G2SFTNS1"
        (hlen,) = struct.unpack("<I", raw[8:12])
        header = json.loads(raw[12 : 12 + hlen])
        assert header["shape"] == [1, 1, 3]
        assert header["dtype"] == "f32le" and header["order"] == "C"
        assert raw[12 + hlen :] == np.ones(3, dtype="<f4").tobytes()

    def test_truncated_payload_reports_offset(self, tmp_path):
        path = tmp_path / "t.g2t"
        write_feature_map(FeatureMap("pc", np.ones((2, 2, 2), dtype=np.float32)), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(FormatError) as err:
            read_feature_map(path)
        assert err.value.offset is not None

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.g2t"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(FormatError) as err:
            read_feature_map(path)
        assert err.value.offset == 0

    def test_non_finite_payload_offset(self, tmp_path):
        path = tmp_path / "nan.g2t"
        write_feature_map(FeatureMap("pc", np.ones((1, 1, 4), dtype=np.float32)), path)
        raw = bytearray(path.read_bytes())
        nan_bytes = struct.pack("<f", np.nan)
        raw[-8:-4] = nan_bytes  # corrupt flat element 2
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as err:
            read_feature_map(path)
        assert err.value.offset == len(raw) - 8

    def test_read_returns_owned_writable_array(self, tmp_path):
        # The payload is read into the returned array itself: no view of a
        # file-sized buffer, and callers may write to it.
        path = tmp_path / "o.g2t"
        data = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        write_tensor(path, data, {"kind": "probe"})
        array, header = read_tensor(path)
        assert array.flags["OWNDATA"] and array.base is None
        assert array.flags["WRITEABLE"] and array.flags["C_CONTIGUOUS"]
        assert array.dtype == np.dtype("<f4") and header["kind"] == "probe"
        np.testing.assert_array_equal(array, data)
        array[0, 0, 0] = 5.0

    def test_empty_map_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            write_tensor(tmp_path / "e.g2t", np.zeros((0, 0, 3), dtype=np.float32))

    def test_npy_refused_as_bad_magic(self, tmp_path):
        # The container is the only array format; an NPY file is named and
        # refused at offset 0, even a little-endian f32 (H, W, D) one.
        path = tmp_path / "x.npy"
        np.save(path, np.arange(24, dtype=np.float32).reshape(2, 3, 4))
        with pytest.raises(FormatError, match="x.npy") as err:
            read_feature_map(path)
        assert err.value.offset == 0

    def test_container_without_modality_refused(self, tmp_path):
        path = tmp_path / "untagged.g2t"
        write_tensor(path, np.ones((2, 2, 3), dtype=np.float32), {"kind": "probe"})
        with pytest.raises(FormatError, match="untagged.g2t carries no modality tag"):
            read_feature_map(path)


class TestTypes:
    def test_misaligned_modalities_rejected(self):
        pc = FeatureMap("pc", np.zeros((2, 2, 3), dtype=np.float32))
        rgb = FeatureMap("rgb", np.zeros((3, 2, 3), dtype=np.float32))
        with pytest.raises(ShapeError):
            SamplePair("s", pc, rgb)

    def test_pixel_gt_must_be_integer_upscale(self):
        pc = FeatureMap("pc", np.zeros((2, 2, 3), dtype=np.float32))
        rgb = FeatureMap("rgb", np.zeros((2, 2, 3), dtype=np.float32))
        with pytest.raises(ShapeError):
            SamplePair("s", pc, rgb, pixel_gt=np.zeros((3, 3), dtype=bool))
        SamplePair("s", pc, rgb, pixel_gt=np.zeros((4, 4), dtype=bool))

    def test_one_foreground_mask_per_sample(self):
        # The mask belongs to the sample: a feature map has none, a pair
        # defaults to every cell, and a mask off the grid is refused.
        assert [f.name for f in dataclasses.fields(FeatureMap)] == ["modality", "data"]
        pc = FeatureMap("pc", np.zeros((2, 3, 3), dtype=np.float32))
        rgb = FeatureMap("rgb", np.zeros((2, 3, 4), dtype=np.float32))
        assert SamplePair("s", pc, rgb).foreground.tolist() == [[True] * 3] * 2
        mask = np.array([[1, 0, 1], [0, 0, 1]])
        pair = SamplePair("s", pc, rgb, foreground=mask)
        assert pair.foreground.dtype == bool and pair.foreground.sum() == 3
        with pytest.raises(ShapeError, match="foreground shape"):
            SamplePair("s", pc, rgb, foreground=np.ones((3, 2), dtype=bool))

    def test_non_finite_data_rejected(self):
        data = np.zeros((2, 2, 2), dtype=np.float32)
        data[0, 0, 0] = np.inf
        with pytest.raises(FormatError):
            FeatureMap("pc", data)


class TestSaveSplit:
    def test_roundtrip_returns_the_pairs(self, tmp_path):
        # save_split then load_manifest gives back every pair, in order: its
        # features, foreground, pixel ground truth (when it has one) and label.
        rng = np.random.default_rng(0)

        def pair(i, gt):
            return SamplePair(f"s_{i}", FeatureMap("pc", rng.standard_normal((3, 4, 2))),
                              FeatureMap("rgb", rng.standard_normal((3, 4, 5))),
                              pixel_gt=rng.random((6, 8)) > 0.5 if gt else None,
                              image_label=min(i, 1) if gt else None,
                              foreground=rng.random((3, 4)) > 0.3)

        pairs = [pair(0, True), pair(1, False), pair(2, True)]
        written = save_split(tmp_path, "pool", iter(pairs), (3, 4), {"pc": 2, "rgb": 5}, 2)
        manifest = load_manifest(tmp_path / "pool_manifest.json")
        assert (manifest.split, manifest.grid, manifest.dims, manifest.gt_upscale) == \
            ("pool", (3, 4), {"pc": 2, "rgb": 5}, 2)
        assert manifest.samples == written.samples
        assert written.samples[1].pixel_gt is None
        assert written.samples[0].pc == "pool/s_0_pc.g2t"
        assert foreground_cells(manifest) == [int(p.foreground.sum()) for p in pairs]
        back = list(iter_samples(manifest))
        assert [p.sample_id for p in back] == ["s_0", "s_1", "s_2"]
        for a, b in zip(pairs, back):
            assert a.image_label == b.image_label
            for name in ("pc", "rgb"):
                np.testing.assert_array_equal(getattr(a, name).data, getattr(b, name).data)
            np.testing.assert_array_equal(a.foreground, b.foreground)
            if a.pixel_gt is None:
                assert b.pixel_gt is None
            else:
                np.testing.assert_array_equal(a.pixel_gt, b.pixel_gt)


@pytest.fixture(scope="module")
def small_cfg():
    return SynthConfig(grid=(12, 12), dims=(6, 6), n_train=10, n_test=8, gt_upscale=2)


class TestSyntheticDataset:
    def test_deterministic_bytes(self, tmp_path, small_cfg):
        gen_synthetic_dataset(small_cfg, 7, tmp_path / "a")
        gen_synthetic_dataset(small_cfg, 7, tmp_path / "b")
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_labels_and_masks(self, tmp_path, small_cfg):
        _, test = gen_synthetic_dataset(small_cfg, 3, tmp_path / "d")
        n_anom = 0
        for ref in test.samples:
            pair = load_sample(test, ref)
            assert pair.pixel_gt is not None
            if pair.image_label == 1:
                assert pair.pixel_gt.any()
                n_anom += 1
            else:
                assert not pair.pixel_gt.any()
        assert n_anom == round(ANOMALY_FRAC * small_cfg.n_test)

    def test_manifest_roundtrip(self, tmp_path, small_cfg):
        train, _ = gen_synthetic_dataset(small_cfg, 5, tmp_path / "d")
        again = load_manifest(tmp_path / "d" / "train_manifest.json")
        assert again.split == "train"
        assert tuple(again.grid) == small_cfg.grid
        assert len(again.samples) == len(train.samples)
        pair = load_sample(again, again.samples[0])
        assert pair.pc.dim == small_cfg.dims[0]
        assert pair.foreground.any() and not pair.foreground.all()

    @pytest.mark.parametrize("edit, what", [
        (lambda doc: dict(doc, samples=[doc["samples"][0], {**doc["samples"][1], "extra": 1}]),
         "sample entry 1 has unknown key 'extra'"),
        (lambda doc: dict(doc, samples=[{k: v for k, v in doc["samples"][0].items()
                                         if k != "pc"}]),
         "sample entry 0 is without key 'pc'"),
        (lambda doc: {k: v for k, v in doc.items() if k != "samples"},
         "the manifest is without key 'samples'"),
        (lambda doc: [doc], "the manifest is not a JSON object"),
        (lambda doc: dict(doc, samples=5), "key 'samples' is 5, not a list"),
        (lambda doc: dict(doc, grid=5), "key 'grid' is 5, not two positive integers"),
        (lambda doc: dict(doc, dims=[8, 8]),
         "key 'dims' is [8, 8], not a positive integer per modality"),
        (lambda doc: dict(doc, gt_upscale="x"), "key 'gt_upscale' is 'x', not a positive integer"),
        (lambda doc: dict(doc, samples=[{**doc["samples"][0], "pc": 5}]),
         "sample entry 0: key 'pc' is 5, not a string"),
        (lambda doc: dict(doc, samples=[{**doc["samples"][0], "sample_id": None}]),
         "sample entry 0: key 'sample_id' is None, not a string"),
        (lambda doc: dict(doc, samples=[{**doc["samples"][0], "foreground": ["a"]}]),
         "sample entry 0: key 'foreground' is ['a'], not a string or null"),
        (lambda doc: dict(doc, samples=[{**doc["samples"][0], "image_label": 2}]),
         "sample entry 0: key 'image_label' is 2, not 0, 1 or null"),
        (lambda doc: dict(doc, samples=[{**doc["samples"][0], "image_label": True}]),
         "sample entry 0: key 'image_label' is True, not 0, 1 or null"),
    ], ids=["unknown_sample_key", "sample_without_pc", "no_samples", "json_array",
            "samples_number", "grid_number", "dims_list", "gt_upscale_text", "sample_pc_number",
            "sample_id_null", "sample_foreground_list", "sample_label_two",
            "sample_label_bool"])
    def test_malformed_manifest_names_the_key(self, tmp_path, small_cfg, edit, what):
        # Each of these escaped as a TypeError, KeyError or AttributeError,
        # or loaded to fail later (dims, gt_upscale, the sample entries' values).
        gen_synthetic_dataset(small_cfg, 5, tmp_path / "d")
        path = tmp_path / "d" / "train_manifest.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(FormatError) as err:
            load_manifest(path)
        assert str(err.value) == f"manifest {path}: {what}"

    def test_euclidean_detector_on_affected_modality(self, tmp_path):
        # Sanity oracle: at the 6-sigma ANOMALY_OFFSET, a nearest-prototype
        # detector on the corrupted modality must separate those anomalies
        # from normals.
        from g2sf.bank import build_bank, query_neighbors_batch
        from g2sf.evaluation import auroc

        cfg = SynthConfig(grid=(12, 12), dims=(6, 6), n_train=16, n_test=24, gt_upscale=2)
        train, test = gen_synthetic_dataset(cfg, 11, tmp_path / "d")
        feats = []
        for ref in train.samples:
            pair = load_sample(train, ref)
            feats.append(pair.pc.data[pair.foreground])
        bank = build_bank(np.concatenate(feats), "pc", 0.1)

        n_anom = round(ANOMALY_FRAC * cfg.n_test)
        modes = [ANOMALY_MODES[i % len(ANOMALY_MODES)] for i in range(n_anom)]
        scores, labels = [], []
        for i, ref in enumerate(test.samples):
            pair = load_sample(test, ref)
            affected = i < n_anom and modes[i] in ("pc_only", "joint")
            if i < n_anom and not affected:
                continue  # rgb-only anomalies are invisible to this detector
            flat = pair.pc.data[pair.foreground]
            _, dist, _ = query_neighbors_batch(bank, flat, 0)
            scores.append(dist[:, 0].max())
            labels.append(1 if affected else 0)
        assert auroc(scores, labels) > 0.9
