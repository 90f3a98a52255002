import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from facealign.errors import FormatError, NumericError
from facealign.features import (
    FreakPattern,
    SplitParams,
    _draw_raw,
    draw_candidates,
    extract_pattern_values,
    gen_candidates,
    stage_scale,
)
from facealign.heatmaps import ProbabilityMaps
from facealign.shapes import Shape
from oracles import map_values


def feature_value(maps, shape, theta: SplitParams, pattern: FreakPattern,
                  scale: float = 1.0) -> float:
    """Feature oracle: the difference of two map reads around the
    landmark's current estimate, one candidate at a time."""
    if not 0.0 < scale <= 1.0:
        raise ValueError("stage scale must lie in (0,1]")
    anchor = shape.coords[theta.landmark]
    pts = np.rint(anchor + scale * pattern.offsets[[theta.p1, theta.p2]]).astype(np.int64)
    v = maps.read(theta.landmark, pts[:, 0], pts[:, 1])
    return float(v[0] - v[1])


def ref_gen_candidates(count, part_landmarks, pattern_size, tau_range, rng):
    """Candidate oracle: the per-candidate draw with ``rng.choice`` over
    the part's global landmark ids."""
    out = []
    for _ in range(count):
        l = int(rng.choice(np.asarray(part_landmarks, dtype=np.int64)))
        p1 = int(rng.integers(pattern_size))
        p2 = int(rng.integers(pattern_size - 1))
        if p2 >= p1:
            p2 += 1
        tau = float(rng.uniform(*tau_range))
        out.append(SplitParams(tau=tau, p1=p1, p2=p2, landmark=l))
    return out


def ref_draw(count, part_size, pattern_size, tau_range, rng):
    """Candidate oracle over part-local rows, one scalar integers or
    uniform call per value: lists (lm, p1, p2, tau)."""
    rows = []
    for _ in range(count):
        lm = int(rng.integers(part_size))
        p1 = int(rng.integers(pattern_size))
        p2 = int(rng.integers(pattern_size - 1))
        rows.append((lm, p1, p2 + (p2 >= p1), float(rng.uniform(*tau_range))))
    return [list(col) for col in zip(*rows)]


BIT_GENERATORS = (np.random.PCG64, np.random.MT19937, np.random.Philox)


def same_state(a, b) -> bool:
    """Whether two generators' bit generator states are equal; MT19937 and
    Philox states hold arrays."""
    def flat(state):
        if isinstance(state, dict):
            return [(k, flat(v)) for k, v in sorted(state.items())]
        return np.asarray(state).tolist()
    return flat(a.bit_generator.state) == flat(b.bit_generator.state)


def make_shape(L, xy=(50.0, 50.0)):
    return Shape(np.tile(xy, (L, 1)), np.ones(L), np.ones(L, np.uint8))


class TestPattern:
    def test_default_pattern_structure(self, pattern):
        assert len(pattern) == 43
        np.testing.assert_array_equal(pattern.offsets[0], [0.0, 0.0])
        # every point fits the base diameter; rings shrink inward
        ring_max = []
        for rid in np.unique(pattern.rings):
            pts = pattern.offsets[pattern.rings == rid][1:] if rid == 0 else \
                pattern.offsets[pattern.rings == rid]
            radii = np.linalg.norm(pts, axis=1)
            assert radii.max() <= pattern.base_diameter / 2 + 1e-6
            ring_max.append(radii.max())
        assert all(a >= b for a, b in zip(ring_max, ring_max[1:]))

    def test_round_trip(self, tmp_path, pattern):
        p = tmp_path / "pat.txt"
        pattern.save(p)
        p2 = FreakPattern.load(p)
        np.testing.assert_allclose(p2.offsets, pattern.offsets, atol=1e-5)
        np.testing.assert_array_equal(p2.rings, pattern.rings)

    def test_rejects_out_of_diameter(self):
        with pytest.raises(FormatError):
            FreakPattern(np.array([[30.0, 0.0]]), np.array([0]), 32.0)

    def test_rejects_empty(self):
        with pytest.raises(FormatError):
            FreakPattern(np.zeros((0, 2)), np.zeros(0), 32.0)

    def test_rejects_single_offset(self, tmp_path):
        # a split test needs two distinct offsets
        with pytest.raises(FormatError, match="at least 2 offsets"):
            FreakPattern(np.zeros((1, 2)), np.zeros(1), 32.0)
        p = tmp_path / "pat.txt"
        p.write_text("diameter 32.0\n0 0.0 0.0\n")
        with pytest.raises(FormatError):
            FreakPattern.load(p)
        assert len(FreakPattern(np.array([[0.0, 0.0], [1.0, 0.0]]), np.zeros(2), 32.0)) == 2

    def test_missing_diameter_line(self, tmp_path):
        p = tmp_path / "pat.txt"
        p.write_text("0 1.0 2.0\n")
        with pytest.raises(FormatError):
            FreakPattern.load(p)

    @pytest.mark.parametrize("offsets, diameter", [
        ([[0.0, 0.0], [np.nan, 0.0]], 32.0),
        ([[0.0, 0.0], [1.0, -np.inf]], 32.0),
        ([[0.0, 0.0], [1.0, 0.0]], np.nan),
        ([[0.0, 0.0], [1.0, 0.0]], np.inf),
        ([[0.0, 0.0], [0.0, 0.0]], 0.0),
        ([[0.0, 0.0], [0.0, 0.0]], -4.0),
        ([[0.0, 0.0], [1.0, 0.0]], True),
    ])
    def test_rejects_non_finite_values(self, offsets, diameter):
        with pytest.raises(FormatError, match="finite"):
            FreakPattern(np.array(offsets), np.zeros(2), diameter)

    @settings(max_examples=200, deadline=None)
    @given(line=st.integers(0, 3), field=st.integers(0, 2),
           value=st.one_of(st.sampled_from(["nan", "inf", "-inf", "x", "", "1e400", "1.5",
                                            "-3", "0", "1" * 400, "diameter", "#"]),
                           st.text(st.characters(min_codepoint=32, max_codepoint=126),
                                   max_size=6)))
    def test_one_corrupt_token_loads_or_is_a_format_error(self, tmp_path_factory, line,
                                                          field, value):
        lines = [["diameter", "32.0"], ["0", "0.0", "0.0"], ["0", "16.0", "0.0"],
                 ["1", "3.0", "4.0"]]
        tok = lines[line]
        tok[min(field, len(tok) - 1)] = value
        p = tmp_path_factory.getbasetemp() / "corrupt_pattern.txt"
        p.write_text("".join(" ".join(t) + "\n" for t in lines))
        try:
            pat = FreakPattern.load(p)
        except FormatError:
            return
        assert np.isfinite(pat.offsets).all()
        assert np.isfinite(pat.base_diameter) and pat.base_diameter > 0


class TestStageScale:
    def test_endpoints(self):
        assert stage_scale(0, 20) == 1.0
        assert stage_scale(19, 20, floor=0.2) == pytest.approx(0.2)

    def test_single_stage(self):
        assert stage_scale(0, 1) == 1.0

    def test_monotone_non_increasing(self):
        for T in range(1, 21):
            vals = [stage_scale(t, T) for t in range(T)]
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            stage_scale(5, 5)


class TestFeatureValue:
    def test_constant_map_is_zero(self, pattern):
        maps = ProbabilityMaps(np.full((2, 100, 100), 0.7))
        shape = make_shape(2)
        theta = SplitParams(tau=0.0, p1=3, p2=11, landmark=1)
        assert feature_value(maps, shape, theta, pattern) == 0.0

    def test_direct_read(self, pattern):
        maps = np.zeros((1, 100, 100))
        shape = make_shape(1)
        theta = SplitParams(tau=0.0, p1=0, p2=1, landmark=0)
        a = np.rint(shape.coords[0] + pattern.offsets[0]).astype(int)
        b = np.rint(shape.coords[0] + pattern.offsets[1]).astype(int)
        maps[0, a[1], a[0]] = 0.9
        maps[0, b[1], b[0]] = 0.4
        got = feature_value(ProbabilityMaps(maps), shape, theta, pattern)
        assert got == pytest.approx(0.5)

    def test_against_two_lookup_oracle(self, pattern):
        r = np.random.default_rng(42)
        for _ in range(100):
            maps = ProbabilityMaps(r.uniform(size=(3, 60, 60)))
            shape = make_shape(3, xy=tuple(r.uniform(10, 50, size=2)))
            p1 = int(r.integers(len(pattern)))
            p2 = int(r.integers(len(pattern)))
            if p2 == p1:
                p2 = (p2 + 1) % len(pattern)
            l = int(r.integers(3))
            scale = float(r.uniform(0.2, 1.0))
            theta = SplitParams(tau=0.0, p1=p1, p2=p2, landmark=l)
            got = feature_value(maps, shape, theta, pattern, scale)
            ref = float(
                map_values(maps.maps[l], shape.coords[l] + scale * pattern.offsets[p1])
                - map_values(maps.maps[l], shape.coords[l] + scale * pattern.offsets[p2])
            )
            assert got == ref

    def test_p1_p2_must_differ(self):
        with pytest.raises(ValueError):
            SplitParams(tau=0.0, p1=4, p2=4, landmark=0)

    def test_scale_validated(self, pattern):
        maps = ProbabilityMaps(np.ones((1, 10, 10)))
        theta = SplitParams(tau=0.0, p1=0, p2=1, landmark=0)
        with pytest.raises(ValueError):
            feature_value(maps, make_shape(1), theta, pattern, scale=1.5)


class TestGenCandidates:
    def test_restricted_landmark_set(self, pattern):
        cands = gen_candidates(50, [3], pattern, seed=0)
        assert all(c.landmark == 3 for c in cands)

    def test_deterministic(self, pattern):
        a = gen_candidates(40, [0, 1, 5], pattern, seed=7)
        b = gen_candidates(40, [0, 1, 5], pattern, seed=7)
        assert a == b

    def test_distinct_offsets_and_range(self, pattern):
        cands = gen_candidates(300, list(range(10)), pattern, tau_range=(-0.3, 0.3), seed=1)
        for c in cands:
            assert c.p1 != c.p2
            assert 0 <= c.p1 < len(pattern) and 0 <= c.p2 < len(pattern)
            assert -0.3 <= c.tau <= 0.3

    def test_count_validation(self, pattern):
        with pytest.raises(ValueError):
            gen_candidates(0, [0], pattern)
        with pytest.raises(ValueError):
            gen_candidates(5, [], pattern)

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 60),
           part=st.lists(st.integers(0, 200), min_size=1, max_size=30, unique=True),
           M=st.integers(2, 64), lo=st.floats(-50, 50), width=st.floats(0, 50),
           buffered=st.booleans(), bit_generator=st.sampled_from(BIT_GENERATORS))
    @example(seed=1, count=5, part=[7], M=2, lo=-0.3, width=0.6, buffered=True,
             bit_generator=np.random.PCG64)
    @example(seed=2, count=4, part=[3], M=3, lo=0.0, width=1.0, buffered=False,
             bit_generator=np.random.PCG64)
    def test_array_draw_matches_oracle(self, seed, count, part, M, lo, width, buffered,
                                       bit_generator):
        # the array draw takes the stream of the rng.choice loop: same
        # values and the generator left in the same state, also when a
        # 32-bit half is buffered at the start, a part has one landmark
        # (integers(1) takes nothing), the pattern two offsets, or the bit
        # generator is not the PCG64 the raw decode emulates
        pattern = FreakPattern(np.zeros((M, 2)), np.zeros(M), 1.0)
        tau_range = (lo, lo + width)
        r_ref, r_arr, r_gen = (np.random.Generator(bit_generator(seed)) for _ in range(3))
        if buffered:
            for r in (r_ref, r_arr, r_gen):
                r.integers(7)
        ref = ref_gen_candidates(count, part, M, tau_range, r_ref)
        lm, p1, p2, tau = draw_candidates(count, len(part), M, tau_range, r_arr)
        assert gen_candidates(count, part, pattern, tau_range=tau_range, rng=r_gen) == ref
        assert [np.asarray(part)[lm].tolist(), p1.tolist(), p2.tolist(), tau.tolist()] == \
            [[c.landmark for c in ref], [c.p1 for c in ref], [c.p2 for c in ref],
             [c.tau for c in ref]]
        assert lm.dtype == p1.dtype == p2.dtype == np.int64 and tau.dtype == np.float64
        assert same_state(r_ref, r_arr) and same_state(r_ref, r_gen)

    @pytest.mark.parametrize("part_size, M, frequent", [
        (2 ** 31 + 5, 43, True), (24, 2 ** 31 + 3, True), (1, 2 ** 31 + 1, True),
        (2 ** 32 - 1, 2, False), (2 ** 32 + 7, 5, False)])
    def test_array_draw_with_frequent_rejections(self, part_size, M, frequent):
        # just above 2**31 about half of the 32-bit draws are redrawn by
        # Lemire's rejection, which the raw decode cannot follow: it
        # restores the state and gives way to the loop; from 2**32 on,
        # integers takes 64-bit draws and only the loop runs
        declined = 0
        for seed in range(12):
            r_ref, r_arr, r_raw = (np.random.default_rng(seed) for _ in range(3))
            if seed % 2:
                for r in (r_ref, r_arr, r_raw):
                    r.integers(7)
            before = r_raw.bit_generator.state
            if part_size < 2 ** 32 and \
                    _draw_raw(6, part_size, M, -0.3, 0.3, r_raw.bit_generator) is None:
                declined += 1
                assert r_raw.bit_generator.state == before
            ref = ref_draw(6, part_size, M, (-0.3, 0.3), r_ref)
            got = draw_candidates(6, part_size, M, (-0.3, 0.3), r_arr)
            assert [a.tolist() for a in got] == ref
            assert same_state(r_arr, r_ref)
        assert declined >= 10 if frequent else declined == 0


class TestExtraction:
    def test_matches_feature_value(self, pattern):
        r = np.random.default_rng(5)
        maps = ProbabilityMaps(r.uniform(size=(4, 80, 80)))
        coords = r.uniform(20, 60, size=(4, 2))
        shape = Shape(coords, np.ones(4), np.ones(4, np.uint8))
        scale = 0.5
        V = extract_pattern_values(maps, coords, pattern, scale)
        assert V.shape == (4, len(pattern))
        for l in range(4):
            for (p1, p2) in [(0, 10), (5, 42), (17, 3)]:
                theta = SplitParams(tau=0.0, p1=p1, p2=p2, landmark=l)
                assert V[l, p1] - V[l, p2] == pytest.approx(
                    feature_value(maps, shape, theta, pattern, scale), abs=1e-12
                )

    @pytest.mark.parametrize("value, refused", [
        (np.nan, True), (np.inf, True), (-np.inf, True), (2.0**63, True), (-1.3e120, True),
        (1e15, False), (-1e15, False)])
    def test_points_off_the_int64_range_are_refused(self, pattern, value, refused):
        # one landmark far off the map: read as 0 while its pixels fit an
        # int64, refused before the cast otherwise
        maps = ProbabilityMaps(np.ones((3, 8, 8)))
        coords = np.full((3, 2), 4.0)
        coords[1, 0] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if refused:
                with pytest.raises(NumericError, match="int64 pixel range"):
                    extract_pattern_values(maps, coords, pattern, 1.0)
            else:
                V = extract_pattern_values(maps, coords, pattern, 1.0)
                assert (V[1] == 0).all() and (V[[0, 2]] > 0).any()
