import os
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import facealign
from facealign.errors import FormatError, NumericError
from facealign.features import FreakPattern, extract_pattern_values
from facealign import heatmaps
from facealign.heatmaps import (
    MAP_MAGIC,
    MAP_VERSION,
    BlobMaps,
    GrayMaps,
    MapStack,
    ProbabilityMaps,
    SynthConfig,
    _gaussian_kernel,
    draw_blobs,
    read_maps,
    smooth,
    stack_maps,
    synthesize,
    synthesize_from_shape,
    write_maps,
)
from facealign.pose import INIT_CHUNK
from oracles import blob_raster_full_grid, map_value_error, map_values, write_maps_copying


def test_maps_validation():
    with pytest.raises(FormatError):
        ProbabilityMaps(np.zeros((3, 3)))  # wrong ndim
    with pytest.raises(FormatError):
        ProbabilityMaps(-np.ones((1, 3, 3)))
    bad = np.ones((1, 3, 3))
    bad[0, 1, 1] = np.nan
    with pytest.raises(NumericError):
        ProbabilityMaps(bad)


class TestSmooth:
    def test_constant_preserved(self):
        m = ProbabilityMaps(np.full((2, 9, 9), 0.37))
        out = smooth(m, 2.0)
        np.testing.assert_allclose(out.maps, 0.37, atol=1e-9)

    def test_impulse_center_weight(self):
        sigma = 2.0
        g = np.zeros((1, 41, 41))
        g[0, 20, 20] = 1.0
        out = smooth(ProbabilityMaps(g), sigma)
        k = _gaussian_kernel(sigma)
        c = len(k) // 2
        assert out.maps[0, 20, 20] == pytest.approx(k[c] ** 2, rel=1e-12)

    def test_matches_double_loop_convolution(self):
        # brute-force 2D convolution oracle on the interior (away from borders)
        r = np.random.default_rng(0)
        sigma = 1.5
        g = r.uniform(size=(1, 25, 25))
        out = smooth(ProbabilityMaps(g), sigma)
        k = _gaussian_kernel(sigma)
        rad = len(k) // 2
        k2 = np.outer(k, k)
        for y in range(rad, 25 - rad):
            for x in range(rad, 25 - rad):
                ref = 0.0
                for dy in range(-rad, rad + 1):
                    for dx in range(-rad, rad + 1):
                        ref += k2[dy + rad, dx + rad] * g[0, y + dy, x + dx]
                assert out.maps[0, y, x] == pytest.approx(ref, abs=1e-12)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            smooth(ProbabilityMaps(np.ones((1, 4, 4))), 0.0)

    def test_package_import_leaves_scipy_ndimage_unloaded(self):
        # only smooth needs scipy.ndimage, and it imports it when called
        src = os.path.dirname(os.path.dirname(os.path.abspath(facealign.__file__)))
        code = ("import sys, facealign, facealign.cli, facealign.pipeline; "
                "print('scipy.ndimage' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60)
        assert out.stdout.strip() == "False"


class TestPeaks:
    def test_delta(self):
        g = np.zeros((1, 30, 30))
        g[0, 20, 10] = 1.0  # row 20 = y, col 10 = x
        assert tuple(ProbabilityMaps(g).peaks()[0]) == (10.0, 20.0)

    def test_uniform_tie_break(self):
        g = np.ones((1, 5, 5))
        assert tuple(ProbabilityMaps(g).peaks()[0]) == (0.0, 0.0)

    def test_two_equal_maxima_row_major_first(self):
        g = np.zeros((1, 10, 10))
        g[0, 3, 3] = 2.0
        g[0, 7, 7] = 2.0
        assert tuple(ProbabilityMaps(g).peaks()[0]) == (3.0, 3.0)

    @given(st.floats(0.1, 100.0), st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariance(self, factor, seed):
        g = np.random.default_rng(seed).uniform(size=(2, 8, 8))
        a = ProbabilityMaps(g).peaks()
        b = ProbabilityMaps(factor * g).peaks()
        np.testing.assert_array_equal(a, b)


class TestMapValues:
    """Feature reads round pattern points to the nearest pixel and read 0
    off the map, on the landmark maps and on their gray view alike."""

    def test_rounding(self):
        g = np.arange(12, dtype=np.float64).reshape(1, 3, 4)
        pattern = FreakPattern(np.array([[0.4, 0.4], [0.6, 0.4]]), np.zeros(2), 2.0)
        coords = np.array([[1.0, 2.0]])  # points (1.4, 2.4) and (1.6, 2.4)
        for maps in (ProbabilityMaps(g), GrayMaps(ProbabilityMaps(g))):
            v = extract_pattern_values(maps, coords, pattern, 1.0)
            np.testing.assert_array_equal(v, [[g[0, 2, 1], g[0, 2, 2]]])

    def test_out_of_bounds_zero(self):
        x, y = np.array([-1, 0, 99]), np.array([0, 3, 99])
        grid = ProbabilityMaps(np.ones((2, 3, 3)))
        blobs = BlobMaps(np.array([[1.0, 1.0], [np.nan, np.nan]]), 1.0, 0.5, (3, 3))
        for maps in (grid, blobs, GrayMaps(grid), GrayMaps(blobs)):
            np.testing.assert_array_equal(maps.read(0, x, y), 0.0)


class TestSynthesize:
    def run_shape(self, cfg, seed=0, L=4, vis=None, ann=None):
        r = np.random.default_rng(seed)
        coords = np.array([[20.0, 30.0], [80.0, 40.0], [50.0, 90.0], [110.0, 120.0]])
        vis = np.ones(L) if vis is None else np.asarray(vis, float)
        ann = np.ones(L, dtype=np.uint8) if ann is None else np.asarray(ann, np.uint8)
        return coords, synthesize_from_shape(coords, vis, ann, cfg, r, (160, 160))

    def test_noiseless_peaks_equal_truth(self):
        coords, maps = self.run_shape(SynthConfig())
        np.testing.assert_array_equal(maps.peaks(), np.rint(coords))

    def test_unannotated_is_flat_floor(self):
        cfg = SynthConfig(floor=0.05)
        _, maps = self.run_shape(cfg, ann=[1, 0, 1, 1])
        np.testing.assert_array_equal(maps.maps[1], 0.05)
        assert maps.maps[0].max() == pytest.approx(1.0)

    def test_occluded_dropout(self):
        cfg = SynthConfig(occluded_dropout=1.0, floor=0.01)
        _, maps = self.run_shape(cfg, vis=[1, 0, 1, 1])
        np.testing.assert_array_equal(maps.maps[1], 0.01)
        assert maps.maps[0].max() > 0.9

    def test_flags_do_not_leak_between_landmarks(self):
        # identical streams: flattening one landmark must leave others bit-equal
        cfg = SynthConfig(coordinate_noise_sigma=2.0, occluded_dropout=1.0)
        _, a = self.run_shape(cfg, seed=5)
        _, b = self.run_shape(cfg, seed=5, vis=[1, 0, 1, 1])
        for l in (0, 2, 3):
            np.testing.assert_array_equal(a.maps[l], b.maps[l])

    def test_all_outliers_match_uniform_oracle(self):
        # with outlier_rate=1 every peak is uniform on the grid; compare the
        # mean peak-to-truth distance against a direct uniform simulation
        cfg = SynthConfig(outlier_rate=1.0)
        truth = np.array([[80.0, 80.0]])
        dists = []
        for seed in range(1000):
            r = np.random.default_rng(seed)
            maps = synthesize_from_shape(
                truth, np.ones(1), np.ones(1, np.uint8), cfg, r, (160, 160)
            )
            dists.append(np.linalg.norm(maps.peaks()[0] - truth[0]))
        oracle_rng = np.random.default_rng(987654)
        pts = oracle_rng.uniform(0.0, 159.0, size=(200000, 2))
        expected = np.mean(np.linalg.norm(pts - truth[0], axis=1))
        assert np.mean(dists) == pytest.approx(expected, rel=0.05)

    def test_sample_determinism(self, tiny_corpus):
        cfg = SynthConfig(coordinate_noise_sigma=1.0, outlier_rate=0.2)
        s = tiny_corpus.samples[4]
        a = synthesize(s, cfg, 11)
        b = synthesize(s, cfg, 11)
        np.testing.assert_array_equal(a.maps, b.maps)
        c = synthesize(s, cfg, 12)
        assert not np.array_equal(a.maps, c.maps)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(peak_sigma=0.0)
        with pytest.raises(ValueError):
            SynthConfig(outlier_rate=1.5)
        with pytest.raises(ValueError):
            SynthConfig(coordinate_noise_sigma=-1.0)


class TestMapFiles:
    def test_round_trip_exact(self, tmp_path):
        r = np.random.default_rng(3)
        maps = ProbabilityMaps(r.uniform(size=(5, 17, 13)).astype(np.float32))
        p = tmp_path / "m.fapm"
        write_maps(maps, p)
        out = read_maps(p)
        np.testing.assert_array_equal(out.maps, maps.maps.astype(np.float32))

    def test_truncated_file(self, tmp_path):
        p = tmp_path / "m.fapm"
        write_maps(ProbabilityMaps(np.ones((2, 4, 4))), p)
        data = p.read_bytes()
        p.write_bytes(data[:-7])
        with pytest.raises(FormatError):
            read_maps(p)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "m.fapm"
        p.write_bytes(b"FAPM\x01\x00")
        with pytest.raises(FormatError):
            read_maps(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "m.fapm"
        write_maps(ProbabilityMaps(np.ones((1, 2, 2))), p)
        data = bytearray(p.read_bytes())
        data[0] = ord("X")
        p.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            read_maps(p)

    def test_dims_disagree_with_payload(self, tmp_path):
        p = tmp_path / "m.fapm"
        write_maps(ProbabilityMaps(np.ones((2, 4, 4))), p)
        data = bytearray(p.read_bytes())
        data[4:8] = (1).to_bytes(4, "little")  # keep version, then corrupt L
        data[8:12] = (3).to_bytes(4, "little")
        p.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            read_maps(p)

    def test_float32_raster_is_written_without_a_copy(self, tmp_path):
        maps = ProbabilityMaps(np.ones((24, 160, 160), dtype=np.float32))
        p = tmp_path / "m.fapm"
        tracemalloc.start()
        try:
            write_maps(maps, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the raster is 2.4 MB; a copy of it would show
        assert peak < 1 << 20
        assert read_maps(p).maps.tobytes() == maps.maps.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(maps=hnp.arrays(
        np.float64, hnp.array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=5),
        elements=st.floats(0.0, 3.4028234e38) | st.sampled_from([0.0, 0.5, 1e-46, 1e-40, 7.0])),
        dtype=st.sampled_from(["<f8", ">f8", "<f4", ">f4", "<i4"]),
        order=st.sampled_from(["C", "F", "step"]))
    def test_writes_the_bytes_of_the_copying_writer(self, maps, dtype, order):
        maps = np.minimum(maps, 1e9).astype(dtype) if dtype == "<i4" else maps.astype(dtype)
        if order == "F":
            maps = np.asfortranarray(maps)
        elif order == "step":
            maps = np.repeat(maps, 2, axis=2)[:, :, ::2]
        maps = ProbabilityMaps(maps)
        with tempfile.TemporaryDirectory() as d:
            got, want = Path(d) / "got.fapm", Path(d) / "want.fapm"
            write_maps(maps, got)
            write_maps_copying(maps, want)
            assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("value", [3.5e38, 1e39, 1.7e308])
    def test_value_past_float32_range_is_numeric_error(self, tmp_path, value):
        # read_maps would refuse the inf a cast makes of it
        values = np.ones((2, 4, 4))
        values[1, 2, 3] = value
        p = tmp_path / "m.fapm"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="float32 range") as err:
                write_maps(ProbabilityMaps(values), p)
        assert str(p) in str(err.value)
        assert not p.exists()

    def test_float32_max_as_float64_is_written(self, tmp_path):
        values = np.full((1, 2, 2), float(np.finfo(np.float32).max))
        p = tmp_path / "m.fapm"
        write_maps(ProbabilityMaps(values), p)
        np.testing.assert_array_equal(read_maps(p).maps, values)

    @staticmethod
    def raw_file(path, values, dims=None):
        """A map file with any float32 payload, written past
        ProbabilityMaps' checks; dims overrides the header's (L, H, W)."""
        values = np.asarray(values, dtype="<f4")
        L, H, W = values.shape if dims is None else dims
        path.write_bytes(MAP_MAGIC + struct.pack("<iiii", MAP_VERSION, L, H, W)
                         + values.tobytes())
        return path

    def test_trailing_bytes(self, tmp_path):
        p = tmp_path / "m.fapm"
        write_maps(ProbabilityMaps(np.ones((2, 4, 4))), p)
        p.write_bytes(p.read_bytes() + b"\0\0\0\0")
        with pytest.raises(FormatError):
            read_maps(p)

    def test_header_claiming_more_than_the_file_allocates_nothing(self, tmp_path):
        # a header claiming 4 GiB over a 128-byte payload
        p = self.raw_file(tmp_path / "m.fapm", np.ones((2, 4, 4)), dims=(64, 4096, 4096))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError):
                read_maps(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_payload_is_numeric_error(self, tmp_path, value):
        values = np.ones((2, 4, 4))
        values[1, 2, 3] = value
        with pytest.raises(NumericError):
            read_maps(self.raw_file(tmp_path / "m.fapm", values))

    def test_negative_payload_is_format_error(self, tmp_path):
        values = np.ones((2, 4, 4))
        values[0, 0, 1] = -1e-30
        with pytest.raises(FormatError):
            read_maps(self.raw_file(tmp_path / "m.fapm", values))

    def test_negative_zero_accepted(self, tmp_path):
        values = np.ones((2, 4, 4))
        values[1, 3, 3] = -0.0
        out = read_maps(self.raw_file(tmp_path / "m.fapm", values)).maps
        np.testing.assert_array_equal(out, values)
        assert np.signbit(out[1, 3, 3])

    def test_payload_is_mapped_without_a_copy(self, tmp_path):
        maps = ProbabilityMaps(np.ones((24, 160, 160), dtype=np.float32))
        p = tmp_path / "m.fapm"
        write_maps(maps, p)
        tracemalloc.start()
        try:
            out = read_maps(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the payload is 2.4 MB; a buffer for it would show
        assert peak < 1 << 20
        assert out.maps.tobytes() == maps.maps.tobytes()

    def test_raster_is_read_only(self, tmp_path):
        p = self.raw_file(tmp_path / "m.fapm", np.ones((2, 4, 4)))
        data = p.read_bytes()
        out = read_maps(p).maps
        assert not out.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            out[1, 2, 3] = 2.0
        assert p.read_bytes() == data

    def test_raster_outlives_its_file_name(self, tmp_path):
        # the mapping holds the file: neither unlinking the name nor
        # renaming another file over it changes a held raster
        values = np.arange(32, dtype=np.float32).reshape(2, 4, 4)
        p = self.raw_file(tmp_path / "m.fapm", values)
        held, other = read_maps(p).maps, read_maps(p).maps
        os.replace(self.raw_file(tmp_path / "n.fapm", np.zeros_like(values)), p)
        np.testing.assert_array_equal(held, values)
        os.unlink(p)
        np.testing.assert_array_equal(other, values)

    FILE_DAMAGE = {
        "truncated header": (lambda d: d[:10], FormatError, "truncated map file header"),
        "magic": (lambda d: b"FAPN" + d[4:], FormatError, "bad map file magic"),
        "version": (lambda d: d[:4] + struct.pack("<i", 2) + d[8:], FormatError,
                    "unsupported map file version 2"),
        "dimensions": (lambda d: d[:8] + struct.pack("<i", 0) + d[12:], FormatError,
                       "bad map file dimensions"),
        "payload size": (lambda d: d[:-4], FormatError, "map payload has 124 bytes"),
        "non-finite": (lambda d: d[:-4] + struct.pack("<f", np.nan), NumericError,
                       "non-finite probability map value"),
        "negative": (lambda d: d[:-4] + struct.pack("<f", -1.0), FormatError,
                     "negative probability map value"),
    }

    @pytest.mark.parametrize("damage", FILE_DAMAGE)
    def test_every_refusal_names_the_file(self, tmp_path, damage):
        edit, error, message = self.FILE_DAMAGE[damage]
        p = self.raw_file(tmp_path / "m.fapm", np.ones((2, 4, 4)))
        p.write_bytes(edit(p.read_bytes()))
        with pytest.raises(error) as info:
            read_maps(p)
        assert type(info.value) is error
        assert str(info.value).startswith(f"{p}: {message}")

    @settings(max_examples=200, deadline=None)
    @given(maps=hnp.arrays(
        st.sampled_from([np.float32, np.float64]),
        hnp.array_shapes(min_dims=3, max_dims=3, min_side=0, max_side=4),
        elements=st.floats(width=32)))
    def test_value_rule_matches_oracle(self, maps):
        # min/max decide as the elementwise isfinite and < 0 scans do,
        # empty rasters included
        want = map_value_error(maps)
        if want is None:
            ProbabilityMaps(maps)
        else:
            with pytest.raises(want):
                ProbabilityMaps(maps)

    # the one integer pass accepts only words below the bits of +inf; the
    # words at and around that edge, and -0.0 beside bad values, must meet
    # the min/max rule's class and message
    F32_WORDS = [
        [0x7F7FFFFF],              # largest finite
        [0x7F800000],              # +inf
        [0xFF800000],              # -inf
        [0x7FC00001],              # NaN
        [0xFFC00000],              # NaN with the sign bit
        [0x80000000],              # -0.0
        [0x80000000, 0x7FC00001],  # -0.0 beside a NaN
        [0x80000000, 0xBF800000],  # -0.0 beside -1.0
        [0x00000001, 0x007FFFFF],  # subnormals
        [0x80000001],              # negative subnormal
    ]
    F64_WORDS = [
        [0x7FEFFFFFFFFFFFFF],
        [0x7FF0000000000000],
        [0xFFF0000000000000],
        [0x7FF8000000000001],
        [0xFFF8000000000000],
        [0x8000000000000000],
        [0x8000000000000000, 0x7FF8000000000001],
        [0x8000000000000000, 0xBFF0000000000000],
        [0x0000000000000001, 0x000FFFFFFFFFFFFF],
        [0x8000000000000001],
    ]
    MESSAGES = {NumericError: "non-finite probability map value",
                FormatError: "negative probability map value"}

    @classmethod
    def assert_value_rule(cls, maps):
        """ProbabilityMaps(maps) raises the oracle's class with the min/max
        rule's message, or keeps every value it accepts bit for bit."""
        want = map_value_error(maps)
        if want is None:
            assert ProbabilityMaps(maps).maps.tobytes() == maps.tobytes()
        else:
            with pytest.raises(want) as info:
                ProbabilityMaps(maps)
            assert type(info.value) is want and str(info.value) == cls.MESSAGES[want]

    @staticmethod
    def with_words(words, bits, floats):
        """A (2, 3, 4) raster of 0.5 with words at its first and last cells."""
        maps = np.full((2, 3, 4), 0.5, dtype=floats)
        flat = maps.view(bits).reshape(-1)
        flat[0], flat[-1] = words[0], words[-1]
        return maps

    @pytest.mark.parametrize("words", F32_WORDS, ids=lambda w: "+".join(map(hex, w)))
    def test_float32_words(self, tmp_path, words):
        maps = self.with_words(words, "<u4", "<f4")
        self.assert_value_rule(maps)
        # a map file reads through the same check
        want = map_value_error(maps)
        path = self.raw_file(tmp_path / "m.fapm", maps)
        if want is None:
            assert read_maps(path).maps.tobytes() == maps.tobytes()
        else:
            with pytest.raises(want, match=self.MESSAGES[want]):
                read_maps(path)

    @pytest.mark.parametrize("words", F64_WORDS, ids=lambda w: "+".join(map(hex, w)))
    def test_float64_words(self, words):
        self.assert_value_rule(self.with_words(words, "<u8", "<f8"))

    @pytest.mark.parametrize("words", F32_WORDS, ids=lambda w: "+".join(map(hex, w)))
    def test_big_endian_float32_takes_min_max(self, words):
        # the bytes of -1.0 (BF 80 00 00) read little-endian are a small
        # integer; a big-endian raster must not take the integer pass
        self.assert_value_rule(self.with_words(words, "<u4", "<f4").astype(">f4"))

    @pytest.mark.parametrize("maps", [
        np.full((2, 3, 4), 0x7F800000, dtype=np.uint32),
        np.full((2, 3, 4), -1, dtype=np.int32),
        np.full((1, 2, 2), -0x80000000, dtype=np.int64),
        np.arange(24, dtype=np.int16).reshape(2, 3, 4),
    ], ids=["uint32-inf-bits", "int32-negative", "int64-sign-word", "int16"])
    def test_integer_rasters_take_min_max(self, maps):
        self.assert_value_rule(maps)

    @settings(max_examples=300, deadline=None)
    @given(words=hnp.arrays(
        np.uint32, hnp.array_shapes(min_dims=3, max_dims=3, min_side=0, max_side=4),
        elements=st.integers(0, 2 ** 32 - 1) | st.sampled_from(
            [w for ws in F32_WORDS for w in ws] + [0, 0x3F000000])))
    def test_raw_float32_words_match_oracle(self, words):
        # st.floats(width=32) rarely draws a NaN with its sign bit set
        self.assert_value_rule(words.view("<f4"))


def ref_blob_centres(coords, visibility, annotated, cfg, rng, size):
    """Centre oracle: four draws per landmark (normal pair, outlier test,
    uniform pair, dropout test), one call each."""
    H, W = size
    centres = np.full((len(coords), 2), np.nan)
    for l in range(len(coords)):
        noise = rng.normal(0.0, 1.0, size=2) * cfg.coordinate_noise_sigma
        is_outlier = rng.random() < cfg.outlier_rate
        uni = rng.uniform(0.0, 1.0, size=2)
        dropped = rng.random() < cfg.occluded_dropout
        if not annotated[l] or (visibility[l] < 0.5 and dropped):
            continue
        if is_outlier:
            centres[l] = uni[0] * (W - 1), uni[1] * (H - 1)
        else:
            centres[l] = coords[l, 0] + noise[0], coords[l, 1] + noise[1]
    return centres


class TestDrawBlobs:
    @given(
        noise=st.floats(0.0, 5.0),
        outlier_rate=st.floats(0.0, 1.0),
        dropout=st.floats(0.0, 1.0),
        L=st.integers(0, 30),
        H=st.integers(1, 200),
        W=st.integers(1, 200),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_centres_match_four_draw_oracle(self, noise, outlier_rate, dropout, L, H, W, seed):
        # same centres bit for bit and the generator left in the same state
        r = np.random.default_rng(seed)
        coords = r.uniform(-20.0, 220.0, size=(L, 2))
        vis = r.random(L)
        ann = (r.random(L) < 0.8).astype(np.uint8)
        cfg = SynthConfig(coordinate_noise_sigma=noise, outlier_rate=outlier_rate,
                          occluded_dropout=dropout)
        rng_ref, rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        want = ref_blob_centres(coords, vis, ann, cfg, rng_ref, (H, W))
        got = draw_blobs(coords, vis, ann, cfg, rng, (H, W)).centres
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == rng_ref.bit_generator.state


class TestBlobMaps:
    """BlobMaps answers reads and peaks without a raster; both must equal
    the answers from the raster it builds."""

    @given(
        sigma=st.floats(0.2, 10.0),
        noise=st.sampled_from([0.0, 0.5, 3.0]),
        outlier_rate=st.sampled_from([0.0, 0.3, 1.0]),
        dropout=st.sampled_from([0.0, 0.5, 1.0]),
        floor=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
        L=st.integers(1, 6),
        H=st.integers(1, 48),
        W=st.integers(1, 48),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_reads_and_peaks_equal_the_raster(self, sigma, noise, outlier_rate, dropout,
                                              floor, L, H, W, seed):
        r = np.random.default_rng(seed)
        # centres up to about 100 px off the map, some on half pixels
        coords = r.uniform(-100.0, max(H, W) + 100.0, size=(L, 2))
        half = r.random(L) < 0.3
        coords[half] = np.floor(coords[half]) + 0.5
        inside = r.random(L) < 0.5
        coords[inside] = r.uniform(0.0, 1.0, size=(int(inside.sum()), 2)) * (W, H)
        vis = (r.random(L) < 0.5).astype(np.float64)
        ann = (r.random(L) < 0.8).astype(np.uint8)
        cfg = SynthConfig(peak_sigma=sigma, coordinate_noise_sigma=noise,
                          outlier_rate=outlier_rate, occluded_dropout=dropout, floor=floor)
        blobs = draw_blobs(coords, vis, ann, cfg, np.random.default_rng(seed), (H, W))
        raster = ProbabilityMaps(blobs.maps)
        np.testing.assert_array_equal(
            raster.maps, synthesize_from_shape(coords, vis, ann, cfg,
                                               np.random.default_rng(seed), (H, W)).maps)
        lm = np.arange(L)[:, None, None]
        ys, xs = np.mgrid[-3:H + 3, -3:W + 3]
        got, want = blobs.read(lm, xs, ys), raster.read(lm, xs, ys)
        assert got.dtype == want.dtype == np.float64
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        np.testing.assert_array_equal(blobs.peaks(), raster.peaks())

    def test_read_broadcasts_and_reads_zero_off_the_map(self):
        blobs = BlobMaps(np.array([[2.0, 3.0], [np.nan, np.nan]]), 1.0, 0.25, (6, 5))
        assert blobs.read(0, 2, 3) == 1.0
        assert blobs.read(1, 4, 4) == 0.25
        np.testing.assert_array_equal(blobs.read([[0], [1]], [-1, 5, 0], [0, 0, 6]), 0.0)
        np.testing.assert_array_equal(blobs.peaks(), [[2.0, 3.0], [0.0, 0.0]])


def coordinates(n):
    """One centre coordinate on an axis of n pixels: inside the map, on an
    edge, near it, far off it, or not finite."""
    return st.one_of(
        st.floats(0.0, n - 1.0),
        st.sampled_from([0.0, n - 1.0, -0.5, n - 0.5, float(n)]),
        st.floats(-3.0 * n - 50.0, 4.0 * n + 50.0),
        st.sampled_from([-1e3, 1e6, 1e200, -1e300]),
        st.sampled_from([np.nan, np.inf, -np.inf]))


@st.composite
def blob_maps(draw):
    H, W = draw(st.sampled_from([(1, 1), (1, 7), (9, 2)])
                | st.tuples(st.integers(1, 40), st.integers(1, 40)))
    centres = [[draw(coordinates(W)), draw(coordinates(H))]
               for _ in range(draw(st.integers(1, 5)))]
    sigma = draw(st.sampled_from([1e-200, 1e-160, 1e-3, 0.3, 3.0, 1e3, np.float64(1e200), np.inf])
                 | st.floats(0.05, 2.0 * max(H, W)))
    floor = draw(st.sampled_from([0.0, -0.0, 1e-46, 1e-40, 0.05, 1.0, 1.5, 3e38, 1e39])
                 | st.floats(0.0, 2.0))
    return BlobMaps(np.array(centres), sigma, floor, (H, W))


class TestRaster:
    """BlobMaps.raster(dtype) evaluates each blob only in its box, and must
    equal the full-grid float64 raster cast to dtype, bit for bit."""

    @given(blobs=blob_maps(), dtype=st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=400, deadline=None)
    # a drawn blob off the map under a -0.0 floor writes +0.0
    @example(BlobMaps(np.array([[-50.0, 3.0], [np.nan, np.nan]]), 1.0, -0.0, (4, 5)), np.float32)
    # the pixels on the box's edge reach float32's subnormals
    @example(BlobMaps(np.array([[9.3, 11.6], [20.5, 3.0]]), 1.3, 0.0, (40, 33)), np.float32)
    # one NaN coordinate, an infinite one, and 2 sigma**2 that underflows to 0
    @example(BlobMaps(np.array([[2.0, np.nan], [1.0, 1.0]]), 1.0, 0.0, (3, 3)), np.float32)
    @example(BlobMaps(np.array([[np.inf, 1.0]]), 1.0, 0.05, (3, 3)), np.float64)
    @example(BlobMaps(np.array([[1.0, 2.0]]), 1e-200, 0.0, (3, 4)), np.float32)
    def test_equals_the_full_grid_raster_cast(self, blobs, dtype):
        with np.errstate(over="ignore"):
            want = blob_raster_full_grid(blobs).astype(dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = blobs.raster(dtype)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_maps_is_the_float64_raster(self):
        cfg = SynthConfig(coordinate_noise_sigma=1.0, outlier_rate=0.3)
        coords = np.random.default_rng(4).uniform(0.0, 160.0, size=(24, 2))
        blobs = draw_blobs(coords, np.ones(24), np.ones(24, np.uint8), cfg,
                           np.random.default_rng(5))
        assert blobs.maps.tobytes() == blob_raster_full_grid(blobs).tobytes()
        assert blobs.maps is blobs.maps

    def test_float32_evaluates_only_the_box(self, monkeypatch):
        # sigma 3 falls below half float32's smallest subnormal 44 px out
        shapes, blob = [], heatmaps._blob

        def recorded(*args):
            shapes.append(blob(*args).shape)
            return blob(*args)

        monkeypatch.setattr(heatmaps, "_blob", recorded)
        blobs = BlobMaps(np.array([[80.0, 80.0], [-500.0, 10.0]]), 3.0, 0.0, (160, 160))
        blobs.raster(np.float32)
        blobs.raster(np.float64)
        assert shapes == [(87, 87), (54, 0), (160, 160), (160, 160)]

    def test_past_the_float32_range_is_inf_without_a_warning(self):
        blobs = BlobMaps(np.array([[2.0, 3.0], [np.nan, np.nan]]), 1.0, 1e39, (6, 5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = blobs.raster(np.float32)
        assert np.isposinf(out).all()
        with pytest.raises(NumericError):
            ProbabilityMaps(out)


class TestGrayMaps:
    """The gray view reads the max over all landmark maps at the queried
    pixels: bitwise a gather from the ``maps.max(axis=0)`` raster, for
    every kind of map."""

    @given(
        kind=st.sampled_from(["blobs", "file"]),
        sigma=st.floats(0.2, 10.0),
        floor=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
        L=st.integers(1, 6),
        H=st.integers(1, 40),
        W=st.integers(1, 40),
        M=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_reads_equal_the_max_raster(self, kind, sigma, floor, L, H, W, M, seed):
        r = np.random.default_rng(seed)
        if kind == "blobs":
            # centres on and off the map; NaN centres are flat floor maps
            centres = r.uniform(-20.0, max(H, W) + 20.0, size=(L, 2))
            centres[r.random(L) < 0.3] = np.nan
            maps = BlobMaps(centres, sigma, floor, (H, W))
        else:
            # float32 values with zeros and repeated maxima
            raster = r.choice([0.0, 0.5, 1.0, r.random()], size=(L, H, W))
            raster = np.where(r.random((L, H, W)) < 0.5, r.random((L, H, W)), raster)
            raster = raster.astype(np.float32)
            with tempfile.TemporaryDirectory() as d:
                write_maps(ProbabilityMaps(raster), Path(d) / "face.fapm")
                maps = read_maps(Path(d) / "face.fapm")
            assert maps.maps.dtype == np.float32
        # the (landmark, pattern point) layout features read, pixels up to
        # 3 px off every side of the map
        x = r.integers(-3, W + 3, size=(L, M))
        y = r.integers(-3, H + 3, size=(L, M))
        got = GrayMaps(maps).read(np.arange(L)[:, None], x, y)
        want = map_values(maps.maps.max(axis=0), np.stack([x, y], axis=-1))
        assert got.dtype == want.dtype == np.float64
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def face_maps(kind, r, L, H, W, sigma, floor):
    """One face's maps: blobs with centres on and off the map and NaN
    (flat) centres, or a float32 or float64 raster with zeros and repeated
    maxima."""
    if kind == "blobs":
        centres = r.uniform(-20.0, max(H, W) + 20.0, size=(L, 2))
        centres[r.random(L) < 0.3] = np.nan
        return BlobMaps(centres, sigma, floor, (H, W))
    raster = np.where(r.random((L, H, W)) < 0.5, r.random((L, H, W)),
                      r.choice([0.0, 0.5, 1.0], size=(L, H, W)))
    return ProbabilityMaps(raster.astype(np.float32 if kind == "float32" else np.float64))


class TestStackedMaps:
    """A stack of F faces' maps reads, and finds peaks, bit for bit as
    each face's own maps do."""

    @given(
        kind=st.sampled_from(["blobs", "float32", "float64"]),
        gray=st.booleans(),
        F=st.sampled_from([1, INIT_CHUNK, INIT_CHUNK + 1]),
        sigma=st.floats(0.2, 10.0),
        floor=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
        L=st.integers(1, 5),
        H=st.integers(1, 24),
        W=st.integers(1, 24),
        M=st.integers(2, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_reads_equal_per_face_reads(self, kind, gray, F, sigma, floor, L, H, W, M, seed):
        r = np.random.default_rng(seed)
        maps = [face_maps(kind, r, L, H, W, sigma, floor) for _ in range(F)]
        if gray:
            maps = [GrayMaps(m) for m in maps]
        stack = stack_maps(maps)
        # pattern points up to 8 px off every side of the map
        radius = r.uniform(0.5, 4.0)
        pattern = FreakPattern(r.uniform(-radius, radius, (M, 2)) / np.sqrt(2), np.zeros(M),
                               2 * radius)
        coords = r.uniform(-4.0, max(H, W) + 4.0, (F, L, 2))
        scale = r.uniform(0.2, 1.0)
        got = extract_pattern_values(stack, coords, pattern, scale)
        want = np.stack([extract_pattern_values(m, coords[f], pattern, scale)
                         for f, m in enumerate(maps)])
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        # a stack whose entries pick faces, as robust_inits scores poses
        faces = r.integers(F, size=7)
        x = r.integers(-3, W + 3, (7, L))
        y = r.integers(-3, H + 3, (7, L))
        got = stack_maps(maps, faces).read(np.arange(L), x, y)
        want = np.stack([maps[f].read(np.arange(L), x[b], y[b]) for b, f in enumerate(faces)])
        assert got.tobytes() == want.tobytes()
        if not gray:
            want = np.stack([m.peaks() for m in maps])
            assert stack.peaks().reshape(want.shape).tobytes() == want.tobytes()
            assert stack_maps(maps, faces).peaks().tobytes() == want[faces].tobytes()

    def test_what_each_kind_stacks_into(self):
        r = np.random.default_rng(3)
        blobs = [face_maps("blobs", r, 4, 9, 7, 2.0, 0.1) for _ in range(3)]
        stacked = stack_maps(blobs)
        assert type(stacked) is BlobMaps and stacked.centres.shape == (3, 4, 2)
        assert stack_maps(blobs[:1]) is blobs[0]
        assert stack_maps(blobs[:1], [0, 0]).centres.shape == (2, 4, 2)
        # rasters are held as they are, never copied
        rasters = [face_maps("float32", r, 4, 9, 7, 0.0, 0.0) for _ in range(3)]
        stacked = stack_maps(rasters)
        assert type(stacked) is MapStack
        assert all(a is b for a, b in zip(stacked.members, rasters))
        # blobs of another sigma, and GrayMaps, are read face by face
        other = BlobMaps(blobs[0].centres, 3.0, 0.1, (9, 7))
        assert type(stack_maps(blobs + [other])) is MapStack
        assert type(stack_maps([GrayMaps(b) for b in blobs])) is MapStack
        with pytest.raises(FormatError, match="share a landmark count"):
            stack_maps(blobs + [face_maps("blobs", r, 5, 9, 7, 2.0, 0.1)])
