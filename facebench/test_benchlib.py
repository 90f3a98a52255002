"""Tests of the benchmark's own helpers: percentile choice, drift
normalisation, the independent NME and score gather, and span self times.

    python3 -m pytest facebench -q
"""

import math
import time

import numpy as np
import pytest

import benchlib
import tracing
from benchlib import REF_NOMINAL_S


@pytest.mark.parametrize("n, expected", [
    (0, None), (39, None), (40, None), (99, None), (100, 90.0), (199, 90.0),
    (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_choice(n, expected):
    assert benchlib.tail_percentile(n) == expected


@pytest.mark.parametrize("n", [100, 200, 250, 1000, 1234, 10000])
def test_tail_percentile_leaves_ten_samples_beyond(n):
    values = np.random.default_rng(n).normal(size=n)
    p = benchlib.tail_percentile(n)
    assert np.count_nonzero(values > np.percentile(values, p)) >= benchlib.BEYOND_TAIL


def test_normalise_scales_to_reference_speed():
    assert benchlib.normalise(2.0, REF_NOMINAL_S) == 2.0
    assert math.isclose(benchlib.normalise(2.0, 2 * REF_NOMINAL_S), 1.0)
    with pytest.raises(ValueError):
        benchlib.normalise(1.0, 0.0)


def test_normalise_series_cancels_a_step_in_host_speed():
    # the host slows by 1.6x halfway; work and reference slow alike
    ref = [REF_NOMINAL_S] * 50 + [1.6 * REF_NOMINAL_S] * 50
    raw = [0.05 * r / REF_NOMINAL_S for r in ref]
    out = benchlib.normalise_series(raw, ref, half_window=10)
    assert all(math.isclose(v, 0.05) for v in out)


def test_normalise_series_ignores_a_lone_reference_outlier():
    ref = [REF_NOMINAL_S] * 21
    ref[10] = 5 * REF_NOMINAL_S
    out = benchlib.normalise_series([0.01] * 21, ref, half_window=10)
    assert all(math.isclose(v, 0.01) for v in out)


def test_normalise_series_rejects_unpaired_series():
    with pytest.raises(ValueError):
        benchlib.normalise_series([1.0, 2.0], [REF_NOMINAL_S])


def test_nme_pct_hand_computed():
    # face 0: one annotated landmark 5 px off in a 10x10 box -> 50%;
    # its unannotated landmark is ignored. face 1: 2 px and 0 px off in a
    # 4x16 box (d = 8) -> mean 1 px -> 12.5%.
    pred = np.array([[[3.0, 4.0], [100.0, 100.0]], [[2.0, 0.0], [5.0, 5.0]]])
    gt = np.array([[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [5.0, 5.0]]])
    ann = np.array([[1, 0], [1, 1]])
    bboxes = np.array([[0, 0, 10, 10], [0, 0, 4, 16]])
    assert math.isclose(benchlib.nme_pct(pred, gt, ann, bboxes), (50.0 + 12.5) / 2)


def test_nme_pct_matches_a_per_landmark_loop():
    rng = np.random.default_rng(7)
    pred, gt = rng.normal(50, 10, size=(2, 6, 5, 2))
    ann = rng.integers(0, 2, size=(6, 5))
    ann[:, 0] = 1
    bboxes = np.column_stack([np.zeros((6, 2)), rng.uniform(20, 90, size=(6, 2))])
    per_face = []
    for f in range(6):
        d = math.sqrt(bboxes[f, 2] * bboxes[f, 3])
        errs = [math.dist(pred[f, l], gt[f, l]) for l in range(5) if ann[f, l]]
        per_face.append(100.0 * sum(errs) / len(errs) / d)
    assert math.isclose(benchlib.nme_pct(pred, gt, ann, bboxes), sum(per_face) / 6,
                        rel_tol=1e-12)


def test_gather_score_rounds_and_reads_off_map_as_zero():
    maps = np.zeros((3, 4, 5))
    maps[0, 2, 1] = 0.5      # read at x=1.4, y=1.6 -> (1, 2)
    maps[1, 0, 2] = 0.25     # x=2.5 rounds half to even -> 2
    maps[2, :, :] = 9.0      # read off the map -> 0
    coords = np.array([[1.4, 1.6], [2.5, 0.0], [5.0, 0.0]])
    assert benchlib.gather_score(maps, coords) == 0.75


def test_quartile_spread():
    assert benchlib.quartile_spread([10.0] * 10) == 0.0
    # exclusive quartiles of these ten values: 9.75 and 10.25; median 10
    values = [9.0, 10.0, 10.0, 10.0, 11.0, 10.0, 10.0, 12.0, 8.0, 10.0]
    assert math.isclose(benchlib.quartile_spread(values), 0.05)


def test_ref_sampler_excludes_its_own_time():
    with benchlib.RefSampler(interval_s=0.005) as sampler:
        out, raw, refs = sampler.timed(lambda: time.sleep(0.1) or "done")
    assert out == "done"
    assert len(refs) >= 3          # before, during (from the timer) and after
    # the sleep's 0.1 s of wall time is split between the call and the timer
    assert sampler.overhead_s > 0
    assert math.isclose(raw + sampler.overhead_s, 0.1, abs_tol=0.02)


def test_span_self_time_subtracts_direct_children():
    spans = [
        ["root", 0.0, 10.0, -1, "timed", False, None],
        ["child", 1.0, 4.0, 0, "timed", False, 3],
        ["grandchild", 2.0, 3.0, 1, "timed", True, None],
        ["child", 5.0, 6.0, 0, "timed", False, 4],
        ["root", 20.0, 21.0, -1, "setup", False, None],
    ]
    st = tracing.span_stats(spans, "timed")
    assert st["root"]["calls"] == 1 and math.isclose(st["root"]["self_s"], 6.0)
    assert st["child"]["calls"] == 2 and math.isclose(st["child"]["self_s"], 3.0)
    assert st["child"]["value"] == 7
    assert st["grandchild"]["failed"] == 1
    assert tracing.span_stats(spans)["root"]["calls"] == 2
