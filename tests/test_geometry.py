"""Geometric encoding and distance-normalizer tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2sf.bank import MemoryBank, build_bank
from g2sf.features import (
    DatasetManifest,
    FeatureMap,
    SamplePair,
    SampleRef,
    iter_samples,
    load_manifest,
    save_manifest,
    write_feature_map,
    write_mask,
)
from g2sf.geometry import (
    DistanceNormalizer,
    encode_map,
    fit_banks,
    fit_normalizer,
    inverse_distances,
)
from tests.oracles import decode, encode, query_neighbors

UNIT_NORM = DistanceNormalizer(1.0, 1.0)


def make_pair(rng, h=6, w=6, d_pc=4, d_rgb=3, sample_id="s"):
    pc = FeatureMap("pc", rng.standard_normal((h, w, d_pc)).astype(np.float32))
    rgb = FeatureMap("rgb", rng.standard_normal((h, w, d_rgb)).astype(np.float32))
    return SamplePair(sample_id, pc, rgb)


class TestEncode:
    def test_degenerate_member(self):
        bank = MemoryBank("pc", np.array([[1.0, 2.0], [5.0, 5.0]], dtype=np.float32))
        encs = encode(np.array([1.0, 2.0]), bank, 0, UNIT_NORM)
        assert encs[0].prototype_idx == 0
        assert encs[0].distance == 0.0
        assert encs[0].degenerate
        np.testing.assert_array_equal(encs[0].direction, [0.0, 0.0])

    def test_hand_triangle(self):
        bank = MemoryBank("pc", np.array([[0.0, 0.0]], dtype=np.float32))
        enc = encode(np.array([3.0, 4.0]), bank, 0, UNIT_NORM)[0]
        assert enc.distance == pytest.approx(5.0)
        np.testing.assert_allclose(enc.direction, [0.6, 0.8])

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_reconstruction_every_neighbor(self, seed):
        rng = np.random.default_rng(seed)
        bank = MemoryBank("rgb", rng.standard_normal((12, 5)).astype(np.float32))
        norm = DistanceNormalizer(1.0, float(rng.uniform(0.5, 3.0)))
        f = rng.standard_normal(5).astype(np.float32)
        for enc in encode(f, bank, 2, norm):
            back = decode(enc, bank, norm)
            np.testing.assert_allclose(back, f, rtol=1e-5, atol=1e-6)

    def test_ordering_matches_neighbors(self):
        rng = np.random.default_rng(3)
        bank = MemoryBank("pc", rng.standard_normal((9, 4)).astype(np.float32))
        f = rng.standard_normal(4)
        encs = encode(f, bank, 2, UNIT_NORM)
        neighbors = query_neighbors(bank, f, 2)
        assert [e.prototype_idx for e in encs] == neighbors.indices.tolist()
        np.testing.assert_allclose([e.distance for e in encs], neighbors.distances,
                                   rtol=1e-12)


def map_directions(fmap, bank, enc):
    """Directions of an encoded map in the factored form the network reads."""
    offsets = fmap.data[:, :, None, :].astype(np.float64) - bank.prototypes[enc.indices]
    return offsets * inverse_distances(enc.raw_distances)[..., None]


class TestEncodeMap:
    def test_matches_single_encode(self):
        rng = np.random.default_rng(7)
        fmap = FeatureMap("pc", rng.standard_normal((3, 4, 5)).astype(np.float32))
        bank = MemoryBank("pc", rng.standard_normal((15, 5)).astype(np.float32))
        norm = DistanceNormalizer(1.7, 1.0)
        enc = encode_map(fmap, bank, 1, norm)
        directions = map_directions(fmap, bank, enc)
        for r in range(3):
            for c in range(4):
                singles = encode(fmap.data[r, c], bank, 1, norm)
                for j, single in enumerate(singles):
                    assert enc.indices[r, c, j] == single.prototype_idx
                    np.testing.assert_allclose(enc.distances[r, c, j], single.distance,
                                               rtol=1e-5)
                    assert enc.raw_distances[r, c, j] == pytest.approx(
                        single.distance * 1.7, rel=1e-12)
                    np.testing.assert_allclose(directions[r, c, j], single.direction,
                                               rtol=1e-12, atol=1e-15)

    def test_directions_unit_or_zero(self):
        rng = np.random.default_rng(8)
        fmap = FeatureMap("rgb", rng.standard_normal((4, 4, 3)).astype(np.float32))
        bank = MemoryBank("rgb", fmap.data.reshape(-1, 3)[:6].copy())
        enc = encode_map(fmap, bank, 1, UNIT_NORM)
        norms = np.linalg.norm(map_directions(fmap, bank, enc), axis=-1)
        degenerate = enc.raw_distances == 0.0
        assert degenerate.sum() == 6  # the six bank members
        assert np.all(np.abs(norms[~degenerate] - 1.0) < 1e-12)
        assert np.all(norms[degenerate] == 0.0)


class TestNormalizer:
    def test_constant_distances(self):
        # Every foreground feature sits exactly 2.0 away from the bank.
        data = np.zeros((2, 2, 2), dtype=np.float32)
        data[..., 0] = 2.0
        pc = FeatureMap("pc", data)
        rgb = FeatureMap("rgb", data.copy())
        pair = SamplePair("s", pc, rgb)
        banks = {
            "pc": MemoryBank("pc", np.zeros((1, 2), dtype=np.float32)),
            "rgb": MemoryBank("rgb", np.zeros((1, 2), dtype=np.float32)),
        }
        norm = fit_normalizer([pair], banks)
        assert norm.mean_pc == pytest.approx(2.0)
        assert norm.mean_rgb == pytest.approx(2.0)
        enc = encode(data[0, 0], banks["pc"], 0, norm)[0]
        assert enc.distance == pytest.approx(1.0)

    def test_degenerate_full_bank_warns(self):
        rng = np.random.default_rng(2)
        pair = make_pair(rng, h=3, w=3)
        banks = {
            "pc": build_bank(pair.pc.data.reshape(-1, 4), "pc", 1.0),
            "rgb": build_bank(pair.rgb.data.reshape(-1, 3), "rgb", 1.0),
        }
        with pytest.warns(UserWarning):
            norm = fit_normalizer([pair], banks)
        assert norm.mean_pc == 1.0 and norm.mean_rgb == 1.0

    def test_matches_two_pass_average_oracle(self):
        rng = np.random.default_rng(5)
        pairs = [make_pair(rng, sample_id=f"s{i}") for i in range(3)]
        banks = {
            "pc": build_bank(np.concatenate([p.pc.data.reshape(-1, 4) for p in pairs]),
                             "pc", 0.25),
            "rgb": build_bank(np.concatenate([p.rgb.data.reshape(-1, 3) for p in pairs]),
                              "rgb", 0.25),
        }
        norm = fit_normalizer(pairs, banks)
        for modality, got in (("pc", norm.mean_pc), ("rgb", norm.mean_rgb)):
            dists = []
            for pair in pairs:
                fmap = getattr(pair, modality)
                for row in fmap.data.reshape(-1, fmap.dim):
                    dists.append(min(np.linalg.norm(row - p)
                                     for p in banks[modality].prototypes))
            assert got == pytest.approx(np.mean(dists), rel=1e-6)

    def test_normalized_training_mean_is_one(self):
        rng = np.random.default_rng(6)
        pairs = [make_pair(rng, sample_id=f"s{i}") for i in range(2)]
        banks = {
            "pc": build_bank(np.concatenate([p.pc.data.reshape(-1, 4) for p in pairs]),
                             "pc", 0.2),
            "rgb": build_bank(np.concatenate([p.rgb.data.reshape(-1, 3) for p in pairs]),
                              "rgb", 0.2),
        }
        norm = fit_normalizer(pairs, banks)
        for modality in ("pc", "rgb"):
            normalized = []
            for pair in pairs:
                enc = encode_map(getattr(pair, modality), banks[modality], 0, norm)
                normalized.append(enc.distances[:, :, 0].reshape(-1))
            assert abs(np.concatenate(normalized).mean() - 1.0) < 1e-4


def write_split(root, rng, cells, grid=(6, 6), dims=(4, 3)):
    """A training split on disk with one sample per entry of ``cells``: None
    leaves the sample without a foreground file (every cell), a count draws a
    mask of that many cells."""
    refs = []
    for i, count in enumerate(cells):
        ref = SampleRef(f"s{i}", f"s{i}_pc.g2t", f"s{i}_rgb.g2t")
        for modality, dim in zip(("pc", "rgb"), dims):
            data = rng.standard_normal((*grid, dim)).astype(np.float32)
            write_feature_map(FeatureMap(modality, data), root / f"s{i}_{modality}.g2t")
        if count is not None:
            mask = np.zeros(grid[0] * grid[1], dtype=bool)
            mask[rng.permutation(mask.size)[:count]] = True
            ref.foreground = f"s{i}_fg.g2t"
            write_mask(mask.reshape(grid), root / ref.foreground, "foreground")
        refs.append(ref)
    save_manifest(DatasetManifest("train", grid, {"pc": dims[0], "rgb": dims[1]}, refs),
                  root / "train_manifest.json")
    return load_manifest(root / "train_manifest.json")


class TestFitBanks:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_unequal_masks_match_concatenation_and_knn(self, tmp_path, seed):
        # Samples whose foregrounds differ in size, one of them without a
        # mask and one empty, split the coverage unevenly: the streamed fit
        # must still give the banks of the concatenated features and the
        # normalizer of a second k-NN pass, bit for bit.
        manifest = write_split(tmp_path, np.random.default_rng(seed), [None, 10, 25, 0, 3])
        banks, normalizer, means = fit_banks(manifest, 0.25)

        pairs = list(iter_samples(manifest))
        assert [int(p.foreground.sum()) for p in pairs] == [36, 10, 25, 0, 3]
        want = {m: build_bank(np.concatenate([getattr(p, m).data[p.foreground] for p in pairs]),
                              m, 0.25) for m in ("pc", "rgb")}
        for m in ("pc", "rgb"):
            np.testing.assert_array_equal(banks[m].prototypes, want[m].prototypes)
            np.testing.assert_array_equal(banks[m].coverage, want[m].coverage)
        assert normalizer == fit_normalizer(pairs, want)
        assert means == {"pc": normalizer.mean_pc, "rgb": normalizer.mean_rgb}
