import json
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from facealign import synthetic
from facealign.errors import FormatError, NumericError
from facealign.heatmaps import ProbabilityMaps, SynthConfig, sample_blobs, write_maps
from facealign.pose import euler_to_rotation, project_points
from facealign.shapes import AugmentConfig, augment, save_dataset
from facealign.synthetic import (
    CorpusConfig,
    FileMapSource,
    SyntheticMapSource,
    attach_pose_initials,
    generate_corpus,
    part_deform_modes,
    write_corpus,
)
from oracles import (generate_corpus_per_face, save_dataset_per_landmark,
                     write_corpus_maps_full_grid)


class TestCorpus:
    def test_byte_identical_under_seed(self, model3d, schema, tmp_path):
        cfg = CorpusConfig(count=20, seed=7)
        a = generate_corpus(model3d, schema, cfg)
        b = generate_corpus(model3d, schema, cfg)
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(a, pa)
        save_dataset(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_seed_changes_corpus(self, model3d, schema):
        a = generate_corpus(model3d, schema, CorpusConfig(count=5, seed=1))
        b = generate_corpus(model3d, schema, CorpusConfig(count=5, seed=2))
        assert not np.allclose(
            a.samples[0].ground_truth.coords, b.samples[0].ground_truth.coords
        )

    def test_zero_deformation_matches_rigid_projection(self, model3d, schema):
        cfg = CorpusConfig(count=8, seed=4, deform_magnitude=0.0)
        ds = generate_corpus(model3d, schema, cfg)
        for s in ds.samples:
            coords, vis = project_points(model3d, s.pose, center=(80.0, 80.0))
            np.testing.assert_allclose(coords, s.ground_truth.coords, atol=1e-9)
            np.testing.assert_array_equal(vis, s.ground_truth.visibility)

    def test_deformation_adds_variance(self, model3d, schema):
        rigid = generate_corpus(
            model3d, schema, CorpusConfig(count=40, seed=4, deform_magnitude=0.0)
        )
        bent = generate_corpus(
            model3d, schema, CorpusConfig(count=40, seed=4, deform_magnitude=5.0)
        )
        def residual_var(ds):
            res = []
            for s in ds.samples:
                coords, _ = project_points(model3d, s.pose, center=(80.0, 80.0))
                res.append(s.ground_truth.coords - coords)
            return np.var(np.asarray(res), axis=0).sum()
        assert residual_var(rigid) == pytest.approx(0.0, abs=1e-12)
        assert residual_var(bent) > 1.0

    def test_bbox_contains_landmarks(self, tiny_corpus):
        for s in tiny_corpus.samples:
            x, y, w, h = s.bbox
            c = s.ground_truth.coords
            assert np.all(c[:, 0] >= x) and np.all(c[:, 0] <= x + w)
            assert np.all(c[:, 1] >= y) and np.all(c[:, 1] <= y + h)

    def test_deform_modes_fixed_by_seed(self, model3d, schema):
        a = part_deform_modes(model3d, schema, 5)
        b = part_deform_modes(model3d, schema, 5)
        c = part_deform_modes(model3d, schema, 6)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    def test_sign_patterns_respected(self, model3d, schema):
        P = schema.part_count
        pattern = [1, -1] * (P // 2)
        cfg = CorpusConfig(count=10, seed=0, sign_patterns=[pattern])
        ds = generate_corpus(model3d, schema, cfg)
        assert len(ds) == 10  # construction succeeds; signs checked statistically
        # all coefficients share the single allowed sign pattern, so two
        # corpora drawn with opposite patterns must differ
        other = generate_corpus(
            model3d, schema,
            CorpusConfig(count=10, seed=0, sign_patterns=[[-p for p in pattern]]),
        )
        assert not np.allclose(
            ds.samples[0].ground_truth.coords, other.samples[0].ground_truth.coords
        )


def same_sample(a, b) -> bool:
    """Every field of two samples equal bit for bit, dtypes included."""
    ga, gb = a.ground_truth, b.ground_truth
    arrays = [(ga.coords, gb.coords), (ga.visibility, gb.visibility),
              (ga.annotated, gb.annotated), (a.pose.rotation, b.pose.rotation),
              (a.pose.translation, b.pose.translation)]
    return (a.image_ref == b.image_ref and a.initial is None and b.initial is None
            and [type(v) for v in a.bbox] == [type(v) for v in b.bbox] == [float] * 4
            and np.array_equal(np.array(a.bbox).view(np.uint64),
                               np.array(b.bbox).view(np.uint64))
            and a.pose.focal == b.pose.focal and type(a.pose.focal) is type(b.pose.focal)
            and all(x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
                    for x, y in arrays))


def outcome(build):
    try:
        return build(), None
    except Exception as exc:  # the two generators must fail alike
        return None, (type(exc), str(exc))


# zero-width, ordinary and wide half-widths (degrees or pixels)
HALF_WIDTHS = st.one_of(st.just(0.0), st.floats(0.0, 400.0), st.sampled_from([1e6, 1e200]))


class TestBatchedCorpus:
    """generate_corpus projects the whole corpus at once and save_dataset
    writes rows; both must equal the per-face generator and the
    per-landmark writer bit for bit and byte for byte."""

    @given(count=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
           yaw=HALF_WIDTHS, pitch=HALF_WIDTHS, roll=HALF_WIDTHS, shift=HALF_WIDTHS,
           scale=st.sampled_from([(1.0, 1.3), (0.5, 0.5), (1e-3, 1e3), (1e-300, 1e300)]),
           magnitude=st.sampled_from([0.0, 4.0, 1e-3, 250.0]),
           style=st.sampled_from(["independent", "coupled"]),
           signs=st.sampled_from([None, [[1] * 10], [[1, -1] * 5, [0.5] * 10]]),
           unannotated=st.floats(0.0, 1.0))
    @example(count=1, seed=0, yaw=0.0, pitch=0.0, roll=0.0, shift=0.0, scale=(1.0, 1.3),
             magnitude=0.0, style="independent", signs=None, unannotated=0.0)
    @settings(max_examples=40, deadline=None)
    def test_equals_the_per_face_generator(self, model3d, schema, tmp_path_factory, count,
                                         seed, yaw, pitch, roll, shift, scale, magnitude,
                                         style, signs, unannotated):
        cfg = CorpusConfig(count=count, seed=seed, yaw_range=yaw, pitch_range=pitch,
                           roll_range=roll, shift_range=shift, scale_range=scale,
                           deform_magnitude=magnitude, deform_style=style,
                           sign_patterns=signs)
        with np.errstate(all="ignore"):
            got, got_error = outcome(lambda: generate_corpus(model3d, schema, cfg))
            want, want_error = outcome(lambda: generate_corpus_per_face(model3d, schema, cfg))
        assert got_error == want_error
        if want is None:
            return
        assert len(got) == len(want) == count
        assert all(same_sample(a, b) for a, b in zip(got.samples, want.samples))
        # a landmark left unannotated is left out of its record
        drop = np.random.default_rng(seed).random((count, schema.landmark_count)) < unannotated
        for s, d in zip(got.samples, drop):
            s.ground_truth.annotated[d] = 0
        out = tmp_path_factory.getbasetemp()
        save_dataset(got, out / "rows.jsonl")
        save_dataset_per_landmark(got, out / "scalars.jsonl")
        assert (out / "rows.jsonl").read_bytes() == (out / "scalars.jsonl").read_bytes()

    @given(count=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
           magnitude=st.sampled_from([0.0, 4.0, 1e3]))
    @settings(max_examples=20, deadline=None)
    def test_batched_products_equal_per_face(self, model3d, count, seed, magnitude):
        # the corpus's pts @ R^T and normals @ R^T over a stack of rotations
        r = np.random.default_rng(seed)
        R = np.stack([euler_to_rotation(*r.uniform(-np.pi, np.pi, 3)) for _ in range(count)])
        Rt = R.transpose(0, 2, 1)
        pts = model3d.points + magnitude * r.normal(size=(count, *model3d.points.shape))
        cam, normals = pts @ Rt, model3d.normals @ Rt
        for i in range(count):
            assert cam[i].tobytes() == (pts[i] @ R[i].T).tobytes()
            assert normals[i].tobytes() == (model3d.normals @ R[i].T).tobytes()

    def test_writing_one_face_leaves_the_others(self, model3d, schema):
        # faces do not share rows: writing one face leaves the others as they were
        ds = generate_corpus(model3d, schema, CorpusConfig(count=3, seed=2))
        want = generate_corpus_per_face(model3d, schema, CorpusConfig(count=3, seed=2))
        ds.samples[1].ground_truth.coords[:] = 0.0
        ds.samples[1].ground_truth.annotated[:] = 0
        ds.samples[1].pose.rotation[:] = 0.0
        for i in (0, 2):
            assert same_sample(ds.samples[i], want.samples[i])


class TestMapSources:
    def test_synthetic_source_deterministic(self, tiny_corpus):
        src = SyntheticMapSource(SynthConfig(coordinate_noise_sigma=1.0), 3)
        s = tiny_corpus.samples[0]
        np.testing.assert_array_equal(src.maps_for(s).maps, src.maps_for(s).maps)

    def test_same_image_ref_in_two_corpora_differs(self, model3d, schema):
        # maps follow each sample's ground truth, not its image_ref alone
        a = generate_corpus(model3d, schema, CorpusConfig(count=2, seed=1))
        b = generate_corpus(model3d, schema, CorpusConfig(count=2, seed=2))
        src = SyntheticMapSource(SynthConfig(), 0)
        ma = src.maps_for(a.samples[0])
        mb = src.maps_for(b.samples[0])
        assert a.samples[0].image_ref == b.samples[0].image_ref
        assert not np.array_equal(ma.maps, mb.maps)

    def test_requests_share_centres_not_maps(self, tiny_corpus):
        src = SyntheticMapSource(SynthConfig(coordinate_noise_sigma=1.0), 3)
        s = tiny_corpus.samples[0]
        a, b = src.maps_for(s), src.maps_for(s)
        assert a is not b
        np.testing.assert_array_equal(a.centres, b.centres)
        x, y = np.meshgrid(np.arange(-2, 162, 7), np.arange(-2, 162, 5))
        rows = np.arange(24)[:, None, None]
        np.testing.assert_array_equal(a.read(rows, x, y), b.read(rows, x, y))
        np.testing.assert_array_equal(a.peaks(), b.peaks())
        # a raster built for one request is not handed to the next
        assert a.maps is not src.maps_for(s).maps
        np.testing.assert_array_equal(
            a.centres, sample_blobs(s, src.cfg, src.seed, src.size).centres)

    def test_kept_centres_are_read_only(self, tiny_corpus):
        src = SyntheticMapSource(SynthConfig(), 3)
        s = tiny_corpus.samples[1]
        with pytest.raises(ValueError, match="read-only"):
            src.maps_for(s).centres[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            src.maps_for(s).centres[:] = 1.0
        np.testing.assert_array_equal(
            src.maps_for(s).centres, sample_blobs(s, src.cfg, src.seed, src.size).centres)

    def test_centre_store_is_bounded(self, tiny_corpus, monkeypatch, blob_draws):
        # past the limit a face is drawn on every request and not kept
        monkeypatch.setattr(synthetic, "CENTRE_STORE_LIMIT", 3)
        src = SyntheticMapSource(SynthConfig(coordinate_noise_sigma=1.0), 3)
        faces = tiny_corpus.samples[:5]
        first = [src.maps_for(s).centres for s in faces]
        second = [src.maps_for(s).centres for s in faces]
        assert len(blob_draws) == 5 + 2
        assert len(src._centres) == 3
        for s, a, b in zip(faces, first, second):
            want = sample_blobs(s, src.cfg, src.seed, src.size).centres
            np.testing.assert_array_equal(a, want)
            np.testing.assert_array_equal(b, want)

    def test_occluded_copy_gets_its_own_maps(self, model3d, schema):
        # an augmented copy shares its source's image_ref and coordinates;
        # its occluded landmarks lose their maps to the dropout channel
        ds = generate_corpus(model3d, schema, CorpusConfig(count=6, seed=4))
        grown = augment(ds, 12, AugmentConfig(occlusion_prob=1.0, occlusion_frac=0.6), 2)
        src = SyntheticMapSource(SynthConfig(occluded_dropout=1.0), 3)
        # the j-th copy's source is face j % 6
        copies = [(c, ds.samples[j % 6]) for j, c in enumerate(grown.samples[6:])]
        copies = [(c, source) for c, source in copies if not np.array_equal(
            c.ground_truth.visibility, source.ground_truth.visibility)]
        assert copies
        for c, source in copies:
            assert c.image_ref == source.image_ref
            own, theirs = src.maps_for(c).centres, src.maps_for(source).centres
            np.testing.assert_array_equal(
                own, sample_blobs(c, src.cfg, src.seed, src.size).centres)
            np.testing.assert_array_equal(
                theirs, sample_blobs(source, src.cfg, src.seed, src.size).centres)
            assert np.isnan(own[:, 0]).sum() > np.isnan(theirs[:, 0]).sum()

    def test_file_source_round_trip(self, tiny_corpus, tmp_path):
        cfg = SynthConfig(coordinate_noise_sigma=0.5)
        sub = tiny_corpus.subset(range(3))
        write_corpus(sub, cfg, tmp_path, CorpusConfig(count=3, seed=3))
        src_file = FileMapSource(tmp_path / "maps", sub.schema)
        src_synth = SyntheticMapSource(cfg, 3)
        for s in sub.samples:
            np.testing.assert_array_equal(
                src_file.maps_for(s).maps,
                src_synth.maps_for(s).maps.astype(np.float32),
            )

    @pytest.mark.parametrize("L", [10, 30])
    def test_file_source_checks_landmark_count(self, tiny_corpus, tmp_path, L):
        s = tiny_corpus.samples[0]
        write_maps(ProbabilityMaps(np.ones((L, 4, 4), np.float32)),
                   tmp_path / f"{s.image_ref}.fapm")
        assert FileMapSource(tmp_path).maps_for(s).landmark_count == L
        with pytest.raises(FormatError, match=f"holds {L} landmark maps, the schema has 24"):
            FileMapSource(tmp_path, tiny_corpus.schema).maps_for(s)

    @pytest.mark.parametrize("damage, error", [
        (lambda d: d[:-4] + struct.pack("<f", float("nan")), NumericError),
        (lambda d: d[:-4], FormatError),
    ], ids=["nan", "truncate"])
    def test_file_changed_between_requests_is_read_again(self, tiny_corpus, tmp_path,
                                                         damage, error):
        # nothing of a file's first read is kept: the second request maps
        # and validates the rewritten file
        s = tiny_corpus.samples[0]
        source = FileMapSource(tmp_path, tiny_corpus.schema)
        path = tmp_path / f"{s.image_ref}.fapm"
        write_maps(ProbabilityMaps(np.ones((24, 4, 4), np.float32)), path)
        assert source.maps_for(s).landmark_count == 24
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(error) as info:
            source.maps_for(s)
        assert str(info.value).startswith(f"{path}: ")

    def test_write_corpus_manifest(self, tiny_corpus, tmp_path):
        sub = tiny_corpus.subset(range(2))
        write_corpus(sub, SynthConfig(outlier_rate=0.1), tmp_path,
                     CorpusConfig(count=2, seed=9), write_map_files=False)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["count"] == 2
        assert manifest["landmarks"] == 24
        assert manifest["seed"] == 9
        assert manifest["synth"]["outlier_rate"] == 0.1
        assert not manifest["maps_written"]
        assert (tmp_path / "annotations.jsonl").exists()


class TestWriteCorpus:
    """write_corpus renders each face in float32 over its blobs' boxes and
    writes the raster as it is; its files must be the bytes the full-grid
    float64 raster and the copying writer wrote."""

    @pytest.mark.parametrize("synth", [
        {},
        {"coordinate_noise_sigma": 1.0, "outlier_rate": 0.1},
        {"floor": 0.05, "occluded_dropout": 0.5},
        {"floor": -0.0, "coordinate_noise_sigma": 1.0, "outlier_rate": 0.1},
        {"peak_sigma": 0.3, "floor": 1e-40},
        {"peak_sigma": 20.0, "coordinate_noise_sigma": 3.0},
    ], ids=["default", "bench-noise", "floor-dropout", "negative-zero", "narrow", "wide"])
    def test_files_equal_the_full_grid_writer(self, tiny_corpus, tmp_path, synth):
        cfg, sub = SynthConfig(**synth), tiny_corpus.subset(range(6))
        write_corpus(sub, cfg, tmp_path / "got", CorpusConfig(count=6, seed=17))
        write_corpus_maps_full_grid(sub, cfg, tmp_path / "want", 17)
        for s in sub.samples:
            name = f"{s.image_ref}.fapm"
            assert (tmp_path / "got" / "maps" / name).read_bytes() == \
                (tmp_path / "want" / name).read_bytes()

    def test_face_no_reader_accepts_is_named_and_not_written(self, tiny_corpus, tmp_path):
        # a floor past float32's range casts to inf, which read_maps refuses
        sub = tiny_corpus.subset(range(2))
        with pytest.raises(NumericError, match="non-finite") as err:
            write_corpus(sub, SynthConfig(floor=1e39), tmp_path, CorpusConfig(count=2, seed=1))
        assert str(FileMapSource(tmp_path / "maps").path_for(sub.samples[0])) in str(err.value)
        assert list((tmp_path / "maps").iterdir()) == []


class TestAttachInitials:
    def test_clean_maps_all_succeed(self, model3d, schema):
        ds = generate_corpus(model3d, schema, CorpusConfig(count=8, seed=6))
        src = SyntheticMapSource(SynthConfig(), 6)
        failures = attach_pose_initials(ds, model3d, src, Z=10, seed=6)
        assert failures == 0
        for s in ds.samples:
            assert s.initial is not None
            assert s.pose is not None
            # initialization lands near the truth on noiseless maps
            err = np.linalg.norm(
                s.initial.coords - s.ground_truth.coords, axis=1
            ).mean()
            assert err < 0.1 * 160

    def test_existing_initials_untouched(self, model3d, schema):
        ds = generate_corpus(model3d, schema, CorpusConfig(count=3, seed=6))
        src = SyntheticMapSource(SynthConfig(), 6)
        attach_pose_initials(ds, model3d, src, Z=5, seed=6)
        kept = [s.initial for s in ds.samples]
        attach_pose_initials(ds, model3d, src, Z=5, seed=99)
        for a, b in zip(kept, (s.initial for s in ds.samples)):
            assert a is b

    def test_bad_map_file_raises(self, model3d, schema, tmp_path):
        cfg = CorpusConfig(count=3, seed=6)
        ds = generate_corpus(model3d, schema, cfg)
        write_corpus(ds, SynthConfig(coordinate_noise_sigma=1.0), tmp_path, cfg)
        bad = tmp_path / "maps" / f"{ds.samples[1].image_ref}.fapm"
        raw = bytearray(bad.read_bytes())
        raw[-4:] = struct.pack("<f", float("nan"))
        bad.write_bytes(bytes(raw))
        with pytest.raises(NumericError, match="non-finite"):
            attach_pose_initials(ds, model3d, FileMapSource(tmp_path / "maps"), Z=5, seed=6)
