import dataclasses
import gc
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facealign import cascade, features
from facealign.cascade import (
    CascadeModel,
    PartModel,
    PartsStage,
    TrainConfig,
    Tree,
    _branch_cost,
    apply_stage,
    best_split,
    extract_stage_features,
    fit_node,
    fine_parts,
    fit_tree,
    leaf_ids,
    make_initializer,
    predict,
    predict_faces,
    relative_improvement,
    stop_stage,
    stops_at,
    train_cascade,
    train_parts,
)
from facealign.errors import FormatError, NumericError
from facealign.features import SplitParams, draw_candidates
from facealign.heatmaps import BlobMaps, ProbabilityMaps, SynthConfig, write_maps
from facealign.metrics import nme_percent, normalizer
from facealign.modelio import load_model, save_model
from facealign.pipeline import RunConfig, predict_dataset, train_model
from facealign.pose import INIT_CHUNK, anchor_shape, bbox_center, mean_shape_init, robust_init
from facealign.shapes import Dataset
from facealign.synthetic import (CorpusConfig, FileMapSource, SyntheticMapSource,
                                 generate_corpus)
from oracles import (apply_stage_per_part, best_split_every_shortlisted,
                     extract_stage_features_per_face, fit_tree_per_node, leaf_ids_active_set,
                     predict_per_face)


def cand(tau, p1=0, p2=1, landmark=0):
    return SplitParams(tau=tau, p1=p1, p2=p2, landmark=landmark)


class TestFitNode:
    def test_single_candidate(self):
        res = np.array([[1.0, 0.0], [-1.0, 0.0], [2.0, 0.0]])
        f = np.array([[0.5, -0.5, 0.7]])
        best, cost, mask = fit_node(res, [cand(0.0)], f)
        assert best == 0
        np.testing.assert_array_equal(mask, [True, False, True])

    def test_perfect_split_zero_cost(self):
        res = np.array([[3.0, -2.0], [-3.0, 2.0]])
        f = np.array([[1.0, -1.0], [0.1, 0.2]])
        best, cost, mask = fit_node(res, [cand(0.0), cand(0.5, 2, 3)], f)
        assert best == 0
        assert cost == 0.0

    def test_tie_goes_to_lowest_index(self):
        res = np.array([[1.0], [-1.0]])
        # both candidates induce the same perfect split
        f = np.array([[1.0, -1.0], [2.0, -2.0]])
        best, cost, _ = fit_node(res, [cand(0.0), cand(0.0, 2, 3)], f)
        assert best == 0 and cost == 0.0

    def test_matches_brute_force(self):
        r = np.random.default_rng(17)
        for _ in range(30):
            n = int(r.integers(2, 33))
            C = int(r.integers(1, 17))
            d = int(r.integers(1, 21))
            res = r.normal(size=(n, d))
            cands = [cand(float(r.uniform(-1, 1)), 0, 1) for _ in range(C)]
            F = r.normal(size=(C, n))
            best, cost, mask = fit_node(res, cands, F)
            # independent exhaustive search with the documented cost
            ref_cost, ref_idx = np.inf, -1
            for c in range(C):
                m = F[c] > cands[c].tau
                tot = 0.0
                for side in (res[m], res[~m]):
                    if len(side):
                        tot += float(((side - side.mean(axis=0)) ** 2).sum())
                if tot < ref_cost:
                    ref_cost, ref_idx = tot, c
            assert best == ref_idx
            assert cost == ref_cost  # bitwise: same arithmetic order

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            fit_node(np.zeros((1, 2)), [cand(0.0)], np.zeros((1, 1)))


def ref_fit_node(residuals, candidates, features):
    """Split oracle: both branch costs of every candidate, one candidate
    after the other, strict improvement (ties keep the lowest index)."""
    best_idx, best_cost, best_mask = -1, np.inf, None
    for c, cand in enumerate(candidates):
        mask = features[c] > cand.tau
        cost = _branch_cost(residuals[mask]) + _branch_cost(residuals[~mask])
        if cost < best_cost:
            best_idx, best_cost, best_mask = c, cost, mask
    return best_idx, best_cost, best_mask


def split_case(seed, n, d, C, exponent, kind):
    """Residuals, features and candidates for one node, of a given kind."""
    r = np.random.default_rng(seed)
    res = r.normal(size=(n, d))
    if kind == "constant":
        res = np.tile(res[:1], (n, 1))
    elif kind == "mirror":
        # each row and its negation: splits that swap mirrored rows tie in
        # exact arithmetic and differ only by rounding
        half = r.normal(size=((n + 1) // 2, d))
        res = np.concatenate([half, -half])[:n] * (1.0 + 1e-13 * r.normal(size=(n, d)))
    elif kind == "integer":
        res = r.integers(-2, 3, size=(n, d)).astype(np.float64)
    res = res * 10.0 ** exponent
    F = r.normal(size=(C, n))
    if kind == "quantised":
        F = np.round(F)
    tau = r.uniform(-1, 1, size=C)
    # some candidates send every sample one way, some repeat another
    side = r.random(C)
    tau[side < 0.1] = -np.inf
    tau[(side >= 0.1) & (side < 0.2)] = np.inf
    for c in np.flatnonzero(side > 0.8):
        src = int(r.integers(C))
        F[c], tau[c] = F[src], tau[src]
    return res, F, [cand(float(t)) for t in tau]


class TestBranchCost:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 40), d=st.integers(1, 6),
           exponent=st.integers(-150, 150))
    @settings(max_examples=60, deadline=None)
    def test_equals_mean_centred_sum(self, seed, n, d, exponent):
        # the reductions np.mean and .sum() make, bit for bit
        sub = np.random.default_rng(seed).normal(size=(n, d)) * 10.0**exponent
        want = float(((sub - sub.mean(axis=0)) ** 2).sum()) if n else 0.0
        assert _branch_cost(sub).hex() == want.hex()


class TestBestSplitOracle:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 120), d=st.integers(1, 16),
           C=st.integers(1, 60), exponent=st.integers(-6, 3),
           kind=st.sampled_from(["normal", "constant", "mirror", "integer", "quantised"]))
    def test_matches_candidate_loop(self, seed, n, d, C, exponent, kind):
        # winning index, cost and mask bitwise equal to the per-candidate loop
        res, F, cands = split_case(seed, n, d, C, exponent, kind)
        ref_best, ref_cost, ref_mask = ref_fit_node(res, cands, F)
        best, cost, mask = fit_node(res, cands, F)
        assert best == ref_best
        assert np.float64(cost).tobytes() == np.float64(ref_cost).tobytes()
        np.testing.assert_array_equal(mask, ref_mask)
        tau = np.array([c.tau for c in cands])
        assert best_split(res, F, tau)[:2] == (best, cost)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 7), d=st.integers(1, 4),
           C=st.integers(2, 200), exponent=st.integers(-6, 3),
           kind=st.sampled_from(["normal", "constant", "integer"]))
    def test_repeated_partitions_cost_once(self, seed, n, d, C, exponent, kind):
        # few rows and many candidates, most of them a partition another
        # made, its complement or a one-sided split: skipping the repeats
        # leaves every output bit as costing each shortlisted candidate
        r = np.random.default_rng(seed)
        res = r.normal(size=(n, d)) * 10.0 ** exponent
        if kind == "constant":
            res = np.tile(res[:1], (n, 1))
        elif kind == "integer":
            res = r.integers(-2, 3, size=(n, d)) * 10.0 ** exponent
        F = r.integers(-3, 4, size=(C, n)).astype(np.float64)
        tau = r.integers(-3, 3, size=C) + 0.5
        # a complement: -F > -tau exactly where F < tau, and no F equals tau
        flip = r.random(C) < 0.3
        F[flip], tau[flip] = -F[flip], -tau[flip]
        got = best_split(res, F, tau)
        want = best_split_every_shortlisted(res, F, tau)
        assert got[0] == want[0]
        assert [float(v).hex() for v in got[1:2] + got[3:]] == \
            [float(v).hex() for v in want[1:2] + want[3:]]
        np.testing.assert_array_equal(got[2], want[2])

    def test_all_to_one_side(self):
        # every candidate leaves one side empty: the cost is the whole
        # node's, and the first candidate wins
        res = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.5]])
        F = np.zeros((3, 3))
        cands = [cand(1.0), cand(-1.0), cand(5.0)]
        best, cost, mask = fit_node(res, cands, F)
        assert best == 0 and cost == _branch_cost(res)
        assert not mask.any()


def table(V):
    """train_parts' (part_size*M, N) table of per-face reads V (N, part_size, M)."""
    return np.ascontiguousarray(V.reshape(len(V), -1).T)


def fit_all_rows(res, ann, vis, V, part, cfg, rng):
    """fit_tree on every face of V, read through its table."""
    return fit_tree(res, ann, vis, table(V), part, cfg, rng, V.shape[2], cols=np.arange(len(V)))


def leaf_cfg(**kw):
    base = dict(depth=0, candidates_per_node=4, tau_range=(-0.5, 0.5))
    base.update(kw)
    return TrainConfig(**base)


class TestTreeLeaves:
    def test_identical_residuals_give_that_residual(self):
        res = np.tile([[2.0, -1.0]], (6, 1))
        ann = np.ones((6, 2))
        vis = np.ones((6, 1))
        V = np.zeros((6, 1, 43))
        tree = fit_all_rows(res, ann, vis, V, [0], leaf_cfg(), np.random.default_rng(0))
        assert tree.n_nodes == 0
        np.testing.assert_allclose(tree.leaf_residual[0], [2.0, -1.0])

    def test_leaf_visibility_mean(self):
        res = np.zeros((4, 2))
        ann = np.ones((4, 2))
        vis = np.array([[1.0], [1.0], [1.0], [0.0]])
        V = np.zeros((4, 1, 43))
        tree = fit_all_rows(res, ann, vis, V, [0], leaf_cfg(), np.random.default_rng(0))
        assert tree.leaf_visibility[0, 0] == pytest.approx(0.75)

    def test_unannotated_leaf_residual_is_zero(self):
        # annotation mask all-zero for one landmark: residual must stay 0
        res = np.zeros((5, 4))
        res[:, 0:2] = 7.0  # poisoned values that the mask must annihilate
        ann = np.zeros((5, 4))
        ann[:, 2:4] = 1.0
        res[:, 0:2] *= ann[:, 0:2]  # masked residual, as train_parts builds it
        vis = np.ones((5, 2))
        V = np.zeros((5, 2, 43))
        tree = fit_all_rows(res, ann, vis, V, [0, 1], leaf_cfg(depth=2),
                            np.random.default_rng(3))
        assert np.all(tree.leaf_residual[:, 0:2] == 0.0)


def ref_fit_tree(residuals, ann_mask, gt_vis, V, part_global, cfg, rng) -> Tree:
    """Tree oracle: the recursive builder with one SplitParams per drawn
    candidate (``rng.choice`` over the part's global landmark ids), the
    features of each candidate gathered from V (n, part_size, M) and
    ``ref_fit_node``."""
    part_global = np.asarray(part_global, dtype=np.int64)
    local = {int(g): i for i, g in enumerate(part_global)}
    M = V.shape[2]
    nodes = {k: [] for k in ("lm", "p1", "p2", "tau", "left", "right")}
    leaf_res, leaf_vis = [], []

    def make_leaf(idx):
        num = residuals[idx].sum(axis=0)
        den = ann_mask[idx].sum(axis=0)
        leaf_res.append(np.where(den > 0, num / np.maximum(den, 1), 0.0))
        leaf_vis.append(gt_vis[idx].mean(axis=0))
        return ~(len(leaf_res) - 1)

    def build(idx, depth):
        if depth >= cfg.depth or len(idx) < 2:
            return make_leaf(idx)
        cands = []
        for _ in range(cfg.candidates_per_node):
            l = int(rng.choice(part_global))
            p1 = int(rng.integers(M))
            p2 = int(rng.integers(M - 1))
            if p2 >= p1:
                p2 += 1
            cands.append(SplitParams(tau=float(rng.uniform(*cfg.tau_range)), p1=p1, p2=p2,
                                     landmark=l))
        lm = np.array([local[c.landmark] for c in cands])
        Vs = V[idx]
        F = (Vs[:, lm, [c.p1 for c in cands]] - Vs[:, lm, [c.p2 for c in cands]]).T
        best, cost, mask = ref_fit_node(residuals[idx], cands, F)
        if cost >= _branch_cost(residuals[idx]):
            return make_leaf(idx)
        i = len(nodes["tau"])
        for k in nodes:
            nodes[k].append(0)
        c = cands[best]
        nodes["lm"][i], nodes["p1"][i], nodes["p2"][i], nodes["tau"][i] = \
            local[c.landmark], c.p1, c.p2, c.tau
        nodes["left"][i] = build(idx[mask], depth + 1)
        nodes["right"][i] = build(idx[~mask], depth + 1)
        return i

    build(np.arange(len(residuals)), 0)
    ints = {k: np.asarray(v, dtype=np.int64) for k, v in nodes.items()}
    return Tree(
        node_landmark=ints["lm"], node_p1=ints["p1"], node_p2=ints["p2"],
        node_tau=np.asarray(nodes["tau"], dtype=np.float64),
        node_left=ints["left"], node_right=ints["right"],
        leaf_residual=np.asarray(leaf_res, dtype=np.float64),
        leaf_visibility=np.asarray(leaf_vis, dtype=np.float64),
    )


TREE_ARRAYS = ("node_landmark", "node_p1", "node_p2", "node_tau", "node_left",
               "node_right", "leaf_residual", "leaf_visibility")


class TestFitTreeOracle:
    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), N=st.integers(1, 90), part_size=st.integers(1, 4),
           M=st.integers(2, 9), depth=st.integers(0, 5), C=st.integers(1, 24),
           exponent=st.integers(-6, 3), decimals=st.sampled_from([None, 0, 1]))
    def test_matches_recursive_builder(self, seed, N, part_size, M, depth, C, exponent,
                                       decimals):
        # every tree array bitwise equal to the recursive builder's, on a
        # subset of the faces of train_parts' (part_size*M, N) table
        r = np.random.default_rng(seed)
        part = np.sort(r.choice(30, size=part_size, replace=False))
        V = r.normal(size=(N, part_size, M))
        if decimals is not None:
            V = np.round(V, decimals)  # many equal features and masks
        sub = np.sort(r.choice(N, size=int(r.integers(1, N + 1)), replace=False))
        n = len(sub)
        ann = np.repeat(r.random((n, part_size)) > 0.2, 2, axis=1).astype(np.float64)
        res = r.normal(size=(n, 2 * part_size)) * 10.0 ** exponent * ann
        vis = r.random((n, part_size))
        cfg = leaf_cfg(depth=depth, candidates_per_node=C)
        rng_ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        ref = ref_fit_tree(res, ann, vis, V[sub], part, cfg, rng_ref)
        tree = fit_tree(res, ann, vis, table(V), part, cfg, rng, M, cols=sub)
        for f in TREE_ARRAYS:
            a, b = getattr(tree, f), getattr(ref, f)
            assert a.dtype == b.dtype and a.shape == b.shape, f
            assert a.tobytes() == b.tobytes(), f
        assert rng.bit_generator.state == rng_ref.bit_generator.state

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), N=st.integers(1, 60), part_size=st.integers(1, 3),
           M=st.integers(2, 9), depth=st.integers(0, 5), decimals=st.sampled_from([None, 0]))
    def test_face_leaf_is_the_walks_leaf(self, seed, N, part_size, M, depth, decimals):
        # every face of the table, in the subsample or not, gets the leaf
        # a walk of the finished tree picks
        r = np.random.default_rng(seed)
        V = r.normal(size=(N, part_size, M))
        if decimals is not None:
            V = np.round(V, decimals)  # faces on a threshold's either side
        sub = np.sort(r.choice(N, size=int(r.integers(1, N + 1)), replace=False))
        res = r.normal(size=(len(sub), 2 * part_size))
        face_leaf = np.full(N, -1)
        tree = fit_tree(res, np.ones_like(res), r.random((len(sub), part_size)), table(V),
                        np.arange(part_size), leaf_cfg(depth=depth, candidates_per_node=6),
                        np.random.default_rng(seed), M, cols=sub, face_leaf=face_leaf)
        want = leaf_ids_active_set(PartModel(np.arange(part_size), [tree]), V)[:, 0]
        assert face_leaf.tobytes() == want.tobytes()

    def test_leaves_no_garbage_cycles(self):
        # a tree fit frees its reads and residuals when it returns, not at
        # the next cyclic collection (which let RSS creep across trainings)
        r = np.random.default_rng(0)
        V = r.normal(size=(40, 2, 6))
        res = r.normal(size=(40, 4))
        gc.collect()
        gc.disable()
        try:
            tree = fit_all_rows(res, np.ones((40, 4)), np.ones((40, 2)), V, [0, 1],
                                leaf_cfg(depth=4, candidates_per_node=8),
                                np.random.default_rng(1))
            assert tree.n_nodes > 0
            assert gc.collect() == 0
        finally:
            gc.enable()


def generator(kind, seed):
    """PCG64, whose draws fit_tree decodes from raw words; PCG64 holding a
    buffered 32-bit half; or MT19937, which draws through the scalar loop."""
    if kind == "mt19937":
        return np.random.Generator(np.random.MT19937(seed))
    rng = np.random.default_rng(seed)
    if kind == "buffered":
        rng.integers(7)  # keeps the high half of a word for the next draw
    return rng


def tree_case(seed, N, part_size, M, decimals):
    """A part, reads V (N, part_size, M) and the sorted face rows of one
    tree with their masked residuals, annotation mask and visibility."""
    r = np.random.default_rng(seed)
    part = np.sort(r.choice(30, size=part_size, replace=False))
    V = r.normal(size=(N, part_size, M))
    if decimals is not None:
        V = np.round(V, decimals)  # many equal features, and nodes no split helps
    sub = np.sort(r.choice(N, size=int(r.integers(1, N + 1)), replace=False))
    ann = np.repeat(r.random((len(sub), part_size)) > 0.2, 2, axis=1).astype(np.float64)
    res = r.normal(size=(len(sub), 2 * part_size)) * ann
    return part, V, sub, res, ann, r.random((len(sub), part_size))


def assert_same_tree(tree, want):
    for f in TREE_ARRAYS:
        a, b = getattr(tree, f), getattr(want, f)
        assert a.dtype == b.dtype and a.shape == b.shape, f
        assert a.tobytes() == b.tobytes(), f


def assert_same_state(rng, ref):
    # an MT19937 state holds an array
    np.testing.assert_equal(rng.bit_generator.state, ref.bit_generator.state)


class TestFitTreeBlockDraw:
    """fit_tree's one block of candidate draws and carried branch costs
    against a draw_candidates call and a branch cost per node."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), N=st.integers(1, 40), part_size=st.integers(1, 4),
           M=st.integers(2, 9), depth=st.integers(0, 4), C=st.integers(1, 24),
           decimals=st.sampled_from([None, 0, 1]),
           kind=st.sampled_from(["pcg64", "buffered", "mt19937"]))
    def test_equals_per_node_draws(self, seed, N, part_size, M, depth, C, decimals, kind):
        # small N leaves nodes of 0 or 1 rows above the last level; rounded
        # reads leave nodes that no candidate splits, so rows go unused
        part, V, sub, res, ann, vis = tree_case(seed, N, part_size, M, decimals)
        cfg = leaf_cfg(depth=depth, candidates_per_node=C)
        rng, rng_ref = generator(kind, seed), generator(kind, seed)
        tree = fit_tree(res, ann, vis, table(V), part, cfg, rng, M, cols=sub)
        want = fit_tree_per_node(res, ann, vis, table(V), part, cfg, rng_ref, M, cols=sub)
        assert_same_tree(tree, want)
        assert_same_state(rng, rng_ref)

    @pytest.mark.parametrize("kind", ["pcg64", "buffered", "mt19937"])
    def test_a_lone_leaf_takes_one_node_of_draws(self, kind):
        # equal residuals: the root draws, cannot split, and the 14 other
        # nodes' rows of the depth-4 block are given back
        res = np.tile([[1.5, -0.5]], (12, 1))
        V = np.random.default_rng(2).normal(size=(12, 1, 5))
        rng, ref = generator(kind, 9), generator(kind, 9)
        tree = fit_all_rows(res, np.ones((12, 2)), np.ones((12, 1)), V, [3],
                            leaf_cfg(depth=4, candidates_per_node=6), rng)
        assert tree.n_nodes == 0
        draw_candidates(6, 1, 5, (-0.5, 0.5), ref)
        assert_same_state(rng, ref)

    def test_declined_raw_decode(self, monkeypatch):
        # the scalar loop's draws, as when the raw decode meets a number
        # the loop would have drawn again
        monkeypatch.setattr(features, "_draw_raw", lambda *args: None)
        part, V, sub, res, ann, vis = tree_case(4, 30, 3, 6, None)
        cfg = leaf_cfg(depth=4, candidates_per_node=10)
        rng, rng_ref = generator("buffered", 4), generator("buffered", 4)
        assert_same_tree(fit_tree(res, ann, vis, table(V), part, cfg, rng, 6, cols=sub),
                         fit_tree_per_node(res, ann, vis, table(V), part, cfg, rng_ref, 6,
                                           cols=sub))
        assert_same_state(rng, rng_ref)

    def test_at_most_two_draws_per_tree(self, monkeypatch):
        calls = []

        def counted(count, *args):
            calls.append(count)
            return draw_candidates(count, *args)

        monkeypatch.setattr(cascade, "draw_candidates", counted)
        part, V, sub, res, ann, vis = tree_case(5, 60, 2, 6, 1)
        for depth in range(5):
            calls.clear()
            fit_tree(res, ann, vis, table(V), part, leaf_cfg(depth=depth, candidates_per_node=8),
                     np.random.default_rng(depth), 6, cols=sub)
            assert len(calls) <= 2
            assert calls[:1] == ([8 * (2 ** depth - 1)] if depth else [])


def leaf_id_single(tree: Tree, V1: np.ndarray) -> int:
    """Traversal oracle: one face (V1: (part_size, M)) down one tree, one
    node at a time; returns the tree's own leaf id."""
    c = 0
    if tree.n_nodes == 0:
        return 0
    while True:
        lm = tree.node_landmark[c]
        f = V1[lm, tree.node_p1[c]] - V1[lm, tree.node_p2[c]]
        nxt = tree.node_left[c] if f > tree.node_tau[c] else tree.node_right[c]
        if nxt < 0:
            return ~nxt
        c = nxt


def random_tree(r, part_size, M, max_depth) -> Tree:
    """A random tree of irregular shape, in fit_tree's preorder layout."""
    nodes = {k: [] for k in ("lm", "p1", "p2", "tau", "left", "right")}
    n_leaves = 0

    def build(depth):
        nonlocal n_leaves
        if depth >= max_depth or r.random() < 0.3:
            n_leaves += 1
            return ~(n_leaves - 1)
        i = len(nodes["tau"])
        for k in nodes:
            nodes[k].append(0)
        p1 = int(r.integers(0, M))
        nodes["lm"][i] = int(r.integers(0, part_size))
        nodes["p1"][i] = p1
        nodes["p2"][i] = (p1 + 1 + int(r.integers(0, M - 1))) % M
        nodes["tau"][i] = float(r.uniform(-0.2, 0.2))
        nodes["left"][i] = build(depth + 1)
        nodes["right"][i] = build(depth + 1)
        return i

    build(0)
    ints = {k: np.asarray(v, dtype=np.int64) for k, v in nodes.items()}
    return Tree(
        node_landmark=ints["lm"], node_p1=ints["p1"], node_p2=ints["p2"],
        node_tau=np.asarray(nodes["tau"], dtype=np.float64),
        node_left=ints["left"], node_right=ints["right"],
        leaf_residual=r.normal(size=(n_leaves, part_size * 2)),
        leaf_visibility=r.uniform(size=(n_leaves, part_size)),
    )


def chain_tree(r, part_size, M, length) -> Tree:
    """A tree of length nodes, each with a leaf on one side and the next
    node on the other, in fit_tree's preorder layout."""
    lm = r.integers(0, part_size, size=length)
    p1 = r.integers(0, M, size=length)
    p2 = (p1 + 1 + r.integers(0, M - 1, size=length)) % M
    node, leaf = np.arange(1, length + 1), ~np.arange(length + 1)
    # the last node's inner child is the final leaf
    node[-1] = leaf[-1]
    inner_left = r.random(length) < 0.5
    return Tree(
        node_landmark=lm, node_p1=p1, node_p2=p2,
        node_tau=np.round(r.uniform(-0.2, 0.2, size=length), 1),
        node_left=np.where(inner_left, node, leaf[:-1]),
        node_right=np.where(inner_left, leaf[:-1], node),
        leaf_residual=r.normal(size=(length + 1, part_size * 2)),
        leaf_visibility=r.uniform(size=(length + 1, part_size)),
    )


def tree_depth(tree, node=0) -> int:
    """The most internal nodes on a root-to-leaf path of a lone tree."""
    if tree.n_nodes == 0 or node < 0:
        return 0
    return 1 + max(tree_depth(tree, tree.node_left[node]),
                   tree_depth(tree, tree.node_right[node]))


def single_leaf_tree(part_size=3):
    return Tree(
        node_landmark=np.zeros(0, np.int64), node_p1=np.zeros(0, np.int64),
        node_p2=np.zeros(0, np.int64), node_tau=np.zeros(0),
        node_left=np.zeros(0, np.int64), node_right=np.zeros(0, np.int64),
        leaf_residual=np.zeros((1, 2 * part_size)),
        leaf_visibility=np.zeros((1, part_size)),
    )


class TestTraversal:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_trees=st.integers(1, 6),
           n_faces=st.integers(1, 8), part_size=st.integers(1, 4),
           max_depth=st.integers(0, 5))
    def test_batch_equals_single(self, seed, n_trees, n_faces, part_size, max_depth):
        # the packed traversal of every (face, tree) pair equals the
        # one-node-at-a-time oracle, on forests of single-leaf trees and
        # trees of unequal size alike
        r = np.random.default_rng(seed)
        M = 43
        trees = [random_tree(r, part_size, M, max_depth) for _ in range(n_trees)]
        if r.random() < 0.5:
            trees.insert(int(r.integers(0, n_trees + 1)), single_leaf_tree(part_size))
        V = r.uniform(size=(n_faces, part_size, M))
        leaves = leaf_ids(PartModel(np.arange(part_size), trees), V)
        leaf_base = np.cumsum([0] + [len(t.leaf_residual) for t in trees])
        assert leaves.shape == (n_faces, len(trees))
        for i in range(n_faces):
            for k, t in enumerate(trees):
                assert leaves[i, k] == leaf_base[k] + leaf_id_single(t, V[i])

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_faces=st.integers(1, 8),
           part_size=st.integers(1, 4), max_depth=st.integers(0, 5))
    def test_a_tree_walks_as_a_forest_of_one(self, seed, n_faces, part_size, max_depth):
        # a one-tree part walks to the leaf the one-node-at-a-time oracle
        # reaches
        r = np.random.default_rng(seed)
        tree = random_tree(r, part_size, 43, max_depth)
        V = r.uniform(size=(n_faces, part_size, 43))
        leaves = leaf_ids(PartModel(np.arange(part_size), [tree]), V)
        assert leaves.tolist() == [[leaf_id_single(tree, v)] for v in V]

    def test_zero_node_tree(self):
        tree = single_leaf_tree()
        assert leaf_id_single(tree, np.zeros((3, 43))) == 0
        pm = PartModel(np.arange(3), [tree, tree])
        np.testing.assert_array_equal(pm.roots, [~0, ~1])
        np.testing.assert_array_equal(leaf_ids(pm, np.zeros((5, 3, 43))), [[0, 1]] * 5)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_trees=st.integers(1, 6),
           n_faces=st.sampled_from([0, 1, 2, 7]), part_size=st.integers(1, 4),
           max_depth=st.integers(0, 6), chain=st.integers(0, 24),
           lone_leaves=st.integers(0, 3), quantised=st.booleans())
    def test_equals_active_set(self, seed, n_trees, n_faces, part_size, max_depth, chain,
                               lone_leaves, quantised):
        # the fixed-round walk picks the active-set loop's leaves bit for
        # bit: irregular trees, a chain deeper than any trained tree,
        # single-leaf trees anywhere, and zero, one or many faces
        r = np.random.default_rng(seed)
        M = 43
        trees = [random_tree(r, part_size, M, max_depth) for _ in range(n_trees)]
        if chain:
            trees.append(chain_tree(r, part_size, M, chain))
        for _ in range(lone_leaves):
            trees.insert(int(r.integers(0, len(trees) + 1)), single_leaf_tree(part_size))
        trees = [trees[k] for k in r.permutation(len(trees))]
        V = r.uniform(-0.2, 0.2, size=(n_faces, part_size, M))
        if quantised:
            V = np.round(V, 1)  # differences equal to a threshold
        pm = PartModel(np.arange(part_size), trees)
        assert pm.walk[3] == max(tree_depth(t) for t in trees)  # the walk's rounds
        want = leaf_ids_active_set(pm, V)
        got = leaf_ids(pm, V)
        assert got.dtype == want.dtype and got.shape == want.shape == (n_faces, len(trees))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_faces", [0, 1, 5])
    def test_stage_forests_of_trained_and_loaded_models(self, tiny_corpus, pattern, tmp_path,
                                                        n_faces):
        # every stage forest of a trained model, and of the same model
        # saved and loaded, walks as the active-set loop walks it
        r = np.random.default_rng(n_faces)
        L, M = 24, len(pattern)
        gt, _, _, coords, _ = TestTrainParts().setup_problem(seed=6, N=20, L=L, M=M)
        cfg = TrainConfig(depth=4, candidates_per_node=10, subsample=0.6)
        stages = [train_parts(gt, np.ones((20, L), np.uint8), np.ones((20, L)), coords,
                              r.uniform(size=(20, L, M)), parts, 5, 0.3, 0.6, cfg,
                              np.random.default_rng(t), 1.0)
                  for t, parts in enumerate([[np.arange(L)], fine_parts(tiny_corpus.schema)])]
        mean = mean_shape_init(tiny_corpus)
        model = CascadeModel(stages=stages, init_mode="mean", feature_mode="heatmap",
                             schema=tiny_corpus.schema, mean_shape=mean, pattern=pattern,
                             config=cfg)
        save_model(model, tmp_path / "m.facm")
        loaded = load_model(tmp_path / "m.facm")
        V = r.uniform(size=(n_faces, L, M))
        for stage in stages + loaded.stages:
            want = leaf_ids_active_set(stage.forest, V)
            assert leaf_ids(stage.forest, V).tobytes() == want.tobytes()


class TestStageFeatures:
    """Training's feature reads, a chunk of faces' maps at a time, equal
    the per-face reads bit for bit."""

    @pytest.fixture(scope="class")
    def faces(self, model3d, schema, tmp_path_factory):
        """INIT_CHUNK + 1 faces on 48x56 maps, from a synthetic source and
        from map files of its float32 rasters."""
        ds = generate_corpus(model3d, schema, CorpusConfig(count=INIT_CHUNK + 1, seed=21))
        synthetic = SyntheticMapSource(SynthConfig(coordinate_noise_sigma=1.0, floor=0.05,
                                                   occluded_dropout=0.5), 4, (48, 56))
        files = FileMapSource(tmp_path_factory.mktemp("stage_maps"), schema)
        for s in ds.samples:
            write_maps(ProbabilityMaps(synthetic.maps_for(s).maps), files.path_for(s))
        coords = np.random.default_rng(8).uniform(-6.0, 62.0, (len(ds), schema.landmark_count, 2))
        return ds, coords, {"synthetic": synthetic, "files": files}

    @pytest.mark.parametrize("n", [1, INIT_CHUNK, INIT_CHUNK + 1])
    @pytest.mark.parametrize("mode", ["heatmap", "gray"])
    @pytest.mark.parametrize("source", ["synthetic", "files"])
    def test_equal_per_face_reads(self, faces, pattern, n, mode, source):
        ds, coords, sources = faces
        part = Dataset(ds.samples[:n], ds.schema)
        got = extract_stage_features(part, coords[:n], sources[source], pattern, 0.6, mode)
        want = extract_stage_features_per_face(part, coords[:n], sources[source], pattern,
                                               0.6, mode)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("mode", ["heatmap", "gray"])
    @pytest.mark.parametrize("source", ["synthetic", "files"])
    def test_holds_one_chunk_of_maps(self, faces, pattern, mode, source):
        ds, _, sources = faces
        part = Dataset(ds.samples * 2 + ds.samples[:3], ds.schema)
        # weak references, as ProbabilityMaps is not hashable
        handed, most = [], []

        class Counted:
            def maps_for(self, sample):
                m = sources[source].maps_for(sample)
                handed.append(weakref.ref(m))
                most.append(sum(r() is not None for r in handed))
                return m

        coords = np.zeros((len(part), ds.schema.landmark_count, 2))
        extract_stage_features(part, coords, Counted(), pattern, 1.0, mode)
        # BlobMaps are held a chunk at a time, rasters one at a time
        assert max(most) == (INIT_CHUNK if source == "synthetic" else 1)


class TestTrainParts:
    def setup_problem(self, seed=0, N=12, L=4, M=43):
        r = np.random.default_rng(seed)
        gt = r.uniform(20, 140, size=(N, L, 2))
        coords = gt + r.normal(0, 5, size=(N, L, 2))
        ann = np.ones((N, L), dtype=np.uint8)
        gt_vis = np.ones((N, L))
        V = r.uniform(size=(N, L, M))
        return gt, ann, gt_vis, coords, V

    def test_single_leaf_boosting_step(self):
        # K=1, one part, nu=1, depth 0, full sampling: every sample moves by
        # the mean masked residual
        gt, ann, gt_vis, coords, V = self.setup_problem()
        before = coords.copy()
        cfg = TrainConfig(depth=0, candidates_per_node=4, subsample=1.0)
        train_parts(gt, ann, gt_vis, coords, V, [np.arange(4)], 1, 1.0,
                    1.0, cfg, np.random.default_rng(0), 1.0)
        expected = before + (gt - before).mean(axis=0, keepdims=True)
        np.testing.assert_allclose(coords, expected, atol=1e-9)

    def test_unannotated_landmark_never_moves(self):
        gt, ann, gt_vis, coords, V = self.setup_problem(seed=2)
        ann[:, 1] = 0
        before = coords.copy()
        cfg = TrainConfig(depth=3, candidates_per_node=20, subsample=1.0)
        train_parts(gt, ann, gt_vis, coords, V, [np.arange(4)], 5, 0.5,
                    1.0, cfg, np.random.default_rng(0), 1.0)
        np.testing.assert_array_equal(coords[:, 1, :], before[:, 1, :])
        assert not np.array_equal(coords[:, 0, :], before[:, 0, :])

    def test_fine_part_cannot_touch_outside(self):
        gt, ann, gt_vis, coords, V = self.setup_problem(seed=3)
        poison = coords.copy()
        cfg = TrainConfig(depth=2, candidates_per_node=10, subsample=0.5)
        # train only on part {2, 3}; landmarks 0 and 1 are outside
        train_parts(gt, ann, gt_vis, coords, V, [np.array([2, 3])], 4,
                    0.3, 0.5, cfg, np.random.default_rng(1), 1.0)
        np.testing.assert_array_equal(coords[:, :2, :], poison[:, :2, :])


class TestApplyStage:
    def test_replays_training_coords(self):
        gt, ann, gt_vis, coords, V = TestTrainParts().setup_problem(seed=4)
        init_coords = coords.copy()
        cfg = TrainConfig(depth=2, candidates_per_node=10, subsample=0.7)
        parts = [np.array([0, 1]), np.array([2, 3])]
        stage = train_parts(gt, ann, gt_vis, coords, V, parts, 7, 0.4,
                            0.7, cfg, np.random.default_rng(5), 1.0)
        replay = init_coords.copy()
        apply_stage(stage, V, replay)
        np.testing.assert_array_equal(replay, coords)  # bit for bit

    def test_batch_equals_predict(self, tiny_corpus, pattern):
        # a two-stage model run on a batch of faces at once gives each face
        # exactly what predict gives it alone
        r = np.random.default_rng(9)
        L, M, n = 24, len(pattern), 6
        mean = mean_shape_init(tiny_corpus)
        cfg = TrainConfig(depth=3, candidates_per_node=12)
        stages = []
        for t, parts in enumerate([[np.arange(L)], [np.arange(12), np.arange(12, L)]]):
            gt = r.uniform(20, 140, size=(20, L, 2))
            start = gt + r.normal(0, 4, size=gt.shape)
            gt_vis = (r.random((20, L)) < 0.7).astype(np.float64)
            stages.append(train_parts(
                gt, np.ones((20, L), np.uint8), gt_vis, start,
                r.uniform(size=(20, L, M)), parts, 6, 0.3, 0.5, cfg, r, 1.0 - 0.4 * t,
            ))
        model = CascadeModel(
            stages=stages, init_mode="mean", feature_mode="heatmap",
            schema=tiny_corpus.schema, mean_shape=mean, pattern=pattern, config=cfg,
        )
        faces = tiny_corpus.samples[:n]
        maps = [ProbabilityMaps(r.uniform(size=(L, 160, 160))) for _ in faces]
        singles = [predict(model, m, s.bbox) for m, s in zip(maps, faces)]
        batch = predict_faces(model, maps, [s.bbox for s in faces])
        np.testing.assert_array_equal([p.shape.coords for p in batch],
                                      [p.shape.coords for p in singles])
        np.testing.assert_array_equal([p.shape.visibility for p in batch],
                                      [p.shape.visibility for p in singles])

    def test_visibility_clipped(self, tiny_corpus, pattern):
        # six always-visible leaves blend to 1 within rounding in the closed
        # form (1 ulp above it with OpenBLAS); predict clips what
        # apply_stage hands back
        L = 24
        leaf = dataclasses.replace(single_leaf_tree(L), leaf_visibility=np.ones((1, L)))
        stage = PartsStage([PartModel(np.arange(L), [leaf] * 6)], 0.1, 1.0)
        vis = np.ones((2, L))
        apply_stage(stage, np.zeros((2, L, len(pattern))), np.zeros((2, L, 2)), vis)
        np.testing.assert_allclose(vis, 1.0, rtol=0.0, atol=1e-15)
        mean = mean_shape_init(tiny_corpus)
        mean.visibility[:] = 1.0
        model = CascadeModel(
            stages=[stage], init_mode="mean", feature_mode="heatmap",
            schema=tiny_corpus.schema, mean_shape=mean, pattern=pattern,
            config=TrainConfig(),
        )
        out = predict(model, ProbabilityMaps(np.ones((L, 160, 160))),
                      tiny_corpus.samples[0].bbox)
        v = out.shape.visibility
        assert v.min() >= 1.0 - 1e-15 and v.max() <= 1.0


class TestStageForest:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           sizes=st.lists(st.integers(1, 4), min_size=1, max_size=4),
           K=st.integers(1, 5), n=st.integers(1, 4), max_depth=st.integers(0, 4),
           uncovered=st.integers(0, 3), with_vis=st.booleans())
    def test_equals_per_part(self, seed, sizes, K, n, max_depth, uncovered, with_vis):
        # one traversal of the stage forest and one gather give bitwise the
        # coords and visibility of applying each part on its own: parts of
        # unequal size with unsorted landmark ids, single-leaf trees mixed
        # in, landmarks no part covers
        r = np.random.default_rng(seed)
        M, L = 43, sum(sizes) + uncovered
        ids = r.permutation(L)
        parts = []
        for lo, m in zip(np.cumsum([0] + sizes), sizes):
            trees = [random_tree(r, m, M, max_depth) if r.random() < 0.7 else
                     dataclasses.replace(single_leaf_tree(m),
                                         leaf_residual=r.normal(size=(1, 2 * m)),
                                         leaf_visibility=r.uniform(size=(1, m)))
                     for _ in range(K)]
            parts.append(PartModel(ids[lo:lo + m], trees))
        stage = PartsStage(parts, float(r.uniform(0.05, 1.0)), 1.0)
        V = r.uniform(size=(n, L, M))
        coords = r.uniform(0, 160, size=(n, L, 2))
        vis = r.uniform(size=(n, L)) if with_vis else None
        want_coords, want_vis = coords.copy(), None if vis is None else vis.copy()
        apply_stage_per_part(stage, V, want_coords, want_vis)
        apply_stage(stage, V, coords, vis)
        np.testing.assert_array_equal(coords, want_coords)
        np.testing.assert_array_equal(vis, want_vis)

    @pytest.mark.parametrize("n", [1, 5])
    def test_one_blend_per_part_size(self, n):
        # interleaved, repeated part sizes blend visibility in one matmul
        # per size, bitwise the per-part products
        r = np.random.default_rng(20)
        sizes, K, M = [2, 3, 2, 1, 3, 2], 6, 43
        ids = r.permutation(sum(sizes))
        parts = [PartModel(ids[lo:lo + m], [random_tree(r, m, M, 3) for _ in range(K)])
                 for lo, m in zip(np.cumsum([0] + sizes), sizes)]
        stage = PartsStage(parts, 0.3, 1.0)
        # (parts, size) of each group
        assert [(len(g[0]), g[1].shape[1]) for g in stage.vis_groups] == [(3, 2), (2, 3), (1, 1)]
        V = r.uniform(size=(n, len(ids), M))
        coords, vis = r.uniform(0, 160, size=(n, len(ids), 2)), r.uniform(size=(n, len(ids)))
        want_coords, want_vis = coords.copy(), vis.copy()
        apply_stage_per_part(stage, V, want_coords, want_vis)
        apply_stage(stage, V, coords, vis)
        np.testing.assert_array_equal(coords, want_coords)
        np.testing.assert_array_equal(vis, want_vis)

    @pytest.mark.parametrize("counts, landmarks", [
        ((2, 3), ([0, 1], [2, 3])),   # tree counts differ
        ((2, 2), ([0, 1], [1, 2])),   # landmark 1 in both parts
    ])
    def test_rejects_parts_it_cannot_fuse(self, counts, landmarks):
        parts = [PartModel(np.array(lm), [single_leaf_tree(2)] * k)
                 for k, lm in zip(counts, landmarks)]
        with pytest.raises(ValueError):
            PartsStage(parts, 0.1, 1.0)

    @pytest.mark.parametrize("arrays, message", [
        ({"node_left": [0]}, "node_left must name a leaf row or a node after its own"),
        ({"node_right": [~2]}, "node_right must name a leaf row or a node after its own"),
        ({"node_landmark": [2]}, "node landmark rows below the part's 2 landmarks"),
        ({"node_p2": [-1]}, "packed indices must be >= 0"),
        ({"node_p1": [0, 1]}, "node arrays, and its leaf arrays, must share a length"),
        ({"leaf_visibility": np.zeros((3, 2))}, "must share a length"),
        ({"node_tau": [np.nan]}, "node_tau and leaf_residual must be finite"),
        ({"leaf_residual": np.full((2, 4), np.inf)}, "node_tau and leaf_residual must be finite"),
        ({"leaf_visibility": np.full((2, 2), 1.5)}, r"leaf_visibility in \[0, 1\]"),
        ({"leaf_visibility": np.full((2, 2), np.nan)}, r"leaf_visibility in \[0, 1\]"),
    ], ids=["child-cycle", "leaf-out-of-range", "node-landmark-row", "negative-offset",
            "node-lengths", "leaf-counts", "nan-threshold", "infinite-residual",
            "visibility-above-1", "nan-visibility"])
    def test_rejects_packed_arrays_leaf_ids_cannot_walk(self, arrays, message):
        # one node over two leaves, with one array replaced; a node that is
        # its own child would trap a walk short of a leaf
        one_node = {"node_landmark": [0], "node_p1": [0], "node_p2": [1], "node_tau": [0.0],
                    "node_left": [~0], "node_right": [~1], "leaf_residual": np.zeros((2, 4)),
                    "leaf_visibility": np.zeros((2, 2))}
        tree = Tree(**{k: np.asarray(v) for k, v in {**one_node, **arrays}.items()})
        with pytest.raises(ValueError, match=message):
            PartsStage([PartModel(np.arange(2), [tree])], 0.1, 1.0)


class TestStoppingRule:
    def test_documented_sequence(self):
        # improvements 10%, 5%, 0.5% -> halt after the third stage
        vals = [100.0, 90.0, 85.5, 85.0725, 80.0]
        assert stop_stage(vals, 0.01, T=20) == 3

    def test_t_equals_one_cap(self):
        vals = [100.0, 50.0, 25.0]
        assert stop_stage(vals, 0.01, T=1) == 1

    def test_never_exceeds_T(self):
        vals = [100.0 / (2 ** i) for i in range(30)]
        assert stop_stage(vals, 0.01, T=20) == 20

    def test_relative_improvement(self):
        assert relative_improvement(100.0, 90.0) == pytest.approx(0.10)
        assert relative_improvement(0.0, 5.0) == 0.0
        assert relative_improvement(10.0, 11.0) == pytest.approx(-0.1)

    def test_switch_stage_gets_a_grace_stage(self):
        # improvements 10%, 0.5%, 0.5%: stage 2 is sub-threshold, but the
        # switch fired there, so the rule halts at stage 3
        vals = [100.0, 90.0, 89.55, 89.10225]
        assert [stops_at(vals, t, 0.01) for t in (1, 2, 3)] == [False, True, True]
        assert [stops_at(vals, t, 0.01, switched_at=2) for t in (1, 2, 3)] == [False, False, True]
        assert stop_stage(vals, 0.01, T=20) == 2
        assert stop_stage(vals, 0.01, T=20, switched_at=2) == 3
        assert stop_stage(vals, 0.01, T=2, switched_at=2) == 2


class TestTrainingStops:
    """train_cascade stops where stop_stage, given its logged validation
    NMEs and switch stage, says it does."""

    CFG = dict(K1=2, K2=2, depth=2, candidates_per_node=6, shrinkage=0.3)

    @pytest.fixture(scope="class")
    def split(self, model3d, schema):
        ds = generate_corpus(model3d, schema, CorpusConfig(count=16, seed=8))
        return Dataset(ds.samples[:12], schema), Dataset(ds.samples[12:], schema)

    def train(self, split, pattern, cfg):
        train, val = split
        mean = mean_shape_init(train)
        return train_cascade(train, val, SyntheticMapSource(SynthConfig(), 8),
                             make_initializer("mean", mean, None, cfg), cfg, pattern,
                             init_mode="mean", mean_shape=mean)

    @staticmethod
    def rule_stages(model):
        log, cfg = model.training_log, model.config
        switched = [e["stage"] for e in log if "coarse-to-fine" in e.get("note", "")]
        return stop_stage([e["val_nme"] for e in log], cfg.early_stop_delta, cfg.T,
                          switched[0] if switched else None)

    @settings(max_examples=12, deadline=None)
    @given(T=st.integers(1, 4), coarse_to_fine=st.booleans(), seed=st.integers(0, 50),
           delta=st.sampled_from([-1.0, 0.0, 0.02, 0.1, 0.999]))
    def test_stage_count_is_the_rules(self, split, pattern, T, coarse_to_fine, seed, delta):
        cfg = TrainConfig(T=T, early_stop_delta=delta, coarse_to_fine=coarse_to_fine,
                          seed=seed, **self.CFG)
        model = self.train(split, pattern, cfg)
        assert len(model.stages) == self.rule_stages(model)
        assert len(model.training_log) == len(model.stages) + 1

    def test_sub_threshold_switch_stage_trains_one_more(self, split, pattern):
        # every stage is sub-threshold, and the switch fires on stage 1
        cfg = TrainConfig(T=4, early_stop_delta=0.999, seed=3, **self.CFG)
        model = self.train(split, pattern, cfg)
        log = model.training_log
        assert log[1]["note"] == "coarse-to-fine triggered"
        assert log[1]["improvement"] < cfg.early_stop_delta
        assert len(model.stages) == 2 == self.rule_stages(model)
        assert "early stop" in log[2]["note"]


class FlatMapsFor(SyntheticMapSource):
    """Synthetic maps, except that the named faces get only flat maps, on
    which every pose hypothesis fails."""

    def __init__(self, flat_refs, seed):
        super().__init__(SynthConfig(coordinate_noise_sigma=1.0), seed)
        self.flat_refs = flat_refs

    def maps_for(self, sample):
        maps = super().maps_for(sample)
        if sample.image_ref in self.flat_refs:
            return BlobMaps(np.full_like(maps.centres, np.nan), maps.sigma, maps.floor,
                            maps.size)
        return maps


class TestInitializer:
    CFG = TrainConfig(T=1, K1=3, K2=2, depth=2, candidates_per_node=6, Z=5, seed=3)

    def split(self, model3d, schema):
        ds = generate_corpus(model3d, schema, CorpusConfig(count=14, seed=12))
        return (Dataset(ds.samples[:10], schema), Dataset(ds.samples[10:], schema))

    def test_all_fail_validation_face_starts_from_mean(self, model3d, schema, pattern):
        train, val = self.split(model3d, schema)
        src = FlatMapsFor({val.samples[1].image_ref}, 12)
        mean = mean_shape_init(train)
        init_fn = make_initializer("3d", mean, model3d, self.CFG)
        want = []
        for s in val.samples:
            if s is val.samples[1]:
                want.append(anchor_shape(mean, s.bbox).coords)
            else:
                want.append(robust_init(src.maps_for(s), model3d, Z=5, seed=3,
                                        center=bbox_center(s.bbox)).shape.coords)
        assert np.array_equal(init_fn(val.samples, src), np.stack(want))
        model = train_cascade(train, val, src, init_fn, self.CFG, pattern,
                              init_mode="3d", mean_shape=mean, model3d=model3d)
        gt = np.stack([s.ground_truth.coords for s in val.samples])
        ann = np.stack([s.ground_truth.annotated for s in val.samples])
        d = [normalizer(s.ground_truth, s.bbox, "height") for s in val.samples]
        assert model.training_log[0]["val_nme"] == np.mean(
            nme_percent(np.stack(want), gt, ann, np.array(d)))

    def test_samples_with_an_initial_keep_it(self, model3d, schema):
        train, _ = self.split(model3d, schema)
        mean = mean_shape_init(train)
        shifted = anchor_shape(mean, (1.0, 2.0, 30.0, 40.0))
        train.samples[4].initial = shifted
        for mode in ("3d", "mean"):
            coords = make_initializer(mode, mean, model3d, self.CFG)(
                train.samples, SyntheticMapSource(SynthConfig(), 12))
            assert np.array_equal(coords[4], shifted.coords)

    def test_maps_error_propagates(self, model3d, schema):
        train, _ = self.split(model3d, schema)

        class Broken:
            def maps_for(self, sample):
                raise NumericError("non-finite probability map value")

        init_fn = make_initializer("3d", mean_shape_init(train), model3d, self.CFG)
        with pytest.raises(NumericError):
            init_fn(train.samples, Broken())


class TestPredictDegenerate:
    def test_zero_stage_model_returns_init(self, tiny_corpus, pattern):
        mean = mean_shape_init(tiny_corpus)
        model = CascadeModel(
            stages=[], init_mode="mean", feature_mode="heatmap",
            schema=tiny_corpus.schema, mean_shape=mean, pattern=pattern,
            config=TrainConfig(),
        )
        maps = ProbabilityMaps(np.ones((24, 160, 160)))
        bbox = tiny_corpus.samples[0].bbox
        out = predict(model, maps, bbox)
        np.testing.assert_array_equal(out.shape.coords, out.init_shape.coords)

    def test_branch_cost_empty(self):
        assert _branch_cost(np.zeros((0, 3))) == 0.0

    @pytest.mark.parametrize("init_mode", ["mean", "3d"])
    @pytest.mark.parametrize("L", [10, 30])
    def test_maps_with_the_wrong_landmark_count(self, tiny_corpus, pattern, model3d,
                                                init_mode, L):
        # too few maps used to end in an IndexError, too many in one under
        # the 3D init and in a prediction from the first 24 maps under mean
        stage = PartsStage([PartModel(np.arange(24), [single_leaf_tree(24)] * 2)], 0.1, 1.0)
        model = CascadeModel(
            stages=[stage], init_mode=init_mode, feature_mode="heatmap",
            schema=tiny_corpus.schema, mean_shape=mean_shape_init(tiny_corpus),
            pattern=pattern, config=TrainConfig(Z=3), model3d=model3d,
        )
        bbox = tiny_corpus.samples[0].bbox
        with pytest.raises(FormatError, match=f"maps hold {L} landmarks, the model's "
                                              "schema has 24"):
            predict(model, ProbabilityMaps(np.ones((L, 160, 160), np.float32)), bbox)
        assert predict(model, ProbabilityMaps(np.ones((24, 160, 160), np.float32)),
                       bbox).shape.landmark_count == 24


@pytest.fixture(scope="module")
def served(model3d, schema, tmp_path_factory):
    """A trained coarse-to-fine 3d model, INIT_CHUNK + 1 faces to serve, and
    their maps at 160x160 and 144x176: synthetic, float32 .fapm files of
    those rasters (the second size for odd faces only), and both, the
    first size synthetic and the second a file."""
    cfg = RunConfig(
        corpus={"count": 24, "seed": 41}, seed=6, val_fraction=0.25,
        synth={"coordinate_noise_sigma": 1.0, "outlier_rate": 0.1},
        train={"T": 3, "K1": 6, "K2": 4, "depth": 3, "candidates_per_node": 12, "Z": 6},
    )
    model = train_model(cfg, generate_corpus(model3d, schema, cfg.corpus_config()))
    faces = generate_corpus(model3d, schema,
                            CorpusConfig(count=INIT_CHUNK + 1, seed=42, tag="served"))
    synthetic = [SyntheticMapSource(cfg.synth_config(), 7, size)
                 for size in ((160, 160), (144, 176))]
    files = [FileMapSource(tmp_path_factory.mktemp(f"served{i}"), schema) for i in range(2)]
    for k, s in enumerate(faces.samples):
        for i in range(1 + k % 2):
            write_maps(ProbabilityMaps(synthetic[i].maps_for(s).maps), files[i].path_for(s))
    return model, faces, {"synthetic": synthetic, "files": files,
                          "both": [synthetic[0], files[1]]}


class ServedMaps:
    """The maps of served faces from one kind of source; with mixed, odd
    faces get the second size. Faces whose index is in flat get flat maps,
    on which every pose hypothesis fails: all-NaN blob centres, or a
    raster of the floor."""

    def __init__(self, faces, sources, mixed, flat):
        self.index = {s.image_ref: k for k, s in enumerate(faces.samples)}
        self.sources, self.mixed, self.flat = sources, mixed, flat

    def maps_for(self, sample):
        k = self.index[sample.image_ref]
        maps = self.sources[self.mixed and k % 2].maps_for(sample)
        if k not in self.flat:
            return maps
        if isinstance(maps, BlobMaps):
            return BlobMaps(np.full_like(maps.centres, np.nan), maps.sigma, maps.floor,
                            maps.size)
        return ProbabilityMaps(np.full_like(maps.maps, maps.maps.min()))


def served_bits(pred) -> tuple:
    return (pred.shape.coords.tobytes(), pred.shape.visibility.tobytes(),
            pred.init_shape.coords.tobytes(), pred.init_shape.visibility.tobytes(),
            pred.used_fallback)


class TestPredictFaces:
    """The one cascade run: predict_faces, and predict_dataset over it,
    give each face bitwise what the per-face reference gives it alone."""

    @settings(max_examples=40, deadline=None)
    @given(init_mode=st.sampled_from(["3d", "mean"]),
           feature_mode=st.sampled_from(["heatmap", "gray"]),
           kind=st.sampled_from(["synthetic", "files", "both"]),
           n=st.sampled_from([1, INIT_CHUNK, INIT_CHUNK + 1]),
           mixed=st.booleans(),
           flat=st.sets(st.integers(0, INIT_CHUNK), max_size=3),
           seed=st.one_of(st.none(), st.integers(0, 3)))
    def test_equal_per_face(self, served, init_mode, feature_mode, kind, n, mixed, flat,
                            seed):
        model, faces, sources = served
        model = dataclasses.replace(model, init_mode=init_mode, feature_mode=feature_mode)
        part = Dataset(faces.samples[:n], faces.schema)
        maps = ServedMaps(faces, sources[kind], mixed, flat)
        want = [served_bits(predict_per_face(model, maps.maps_for(s), s.bbox, seed))
                for s in part.samples]
        batch = predict_faces(model, [maps.maps_for(s) for s in part.samples],
                              [s.bbox for s in part.samples], seed)
        assert [served_bits(p) for p in batch] == want
        assert [served_bits(p) for p in predict_dataset(model, part, maps, seed)] == want
        if init_mode == "3d":
            # the fallback path ran on every flat face
            assert all(want[k][-1] for k in flat if k < n)

    @pytest.mark.parametrize("init_mode", ["3d", "mean"])
    @pytest.mark.parametrize("kind, held", [("synthetic", INIT_CHUNK), ("files", 1), ("both", 5)])
    def test_dataset_requests_each_faces_maps_once(self, served, init_mode, kind, held):
        # BlobMaps are held a chunk at a time and rasters one at a time, for
        # either init; with both kinds, every fifth face's maps are a raster,
        # which ends its chunk
        model, faces, sources = served
        model = dataclasses.replace(model, init_mode=init_mode)
        ds = Dataset(faces.samples * 2 + faces.samples[:3], faces.schema)
        # weak references, as ProbabilityMaps is not hashable
        requested, handed, most, rasters = [], [], [], []

        class Counted:
            def maps_for(self, sample):
                raster = kind == "files" or (kind == "both" and len(requested) % 5 == 4)
                m = sources["files" if raster else "synthetic"][0].maps_for(sample)
                requested.append(sample)
                handed.append(weakref.ref(m))
                alive = [a for a in (r() for r in handed) if a is not None]
                most.append(len(alive))
                rasters.append(sum(isinstance(a, ProbabilityMaps) for a in alive))
                return m

        predict_dataset(model, ds, Counted())
        assert len(requested) == len(ds)
        assert all(a is b for a, b in zip(requested, ds.samples))
        assert max(most) == held
        assert max(rasters) == (kind != "synthetic")

    def test_no_faces(self, served):
        model, faces, _ = served
        assert predict_faces(model, [], []) == []
        assert predict_dataset(model, Dataset([], faces.schema), None) == []

    def test_one_bbox_per_face(self, served):
        model, faces, sources = served
        maps = [sources["synthetic"][0].maps_for(s) for s in faces.samples[:2]]
        with pytest.raises(ValueError, match="2 faces' maps but 1 bboxes"):
            predict_faces(model, maps, [faces.samples[0].bbox])


class TestServingLatency:
    """Per-face serving with the 3D initializer: the consensus search at
    Z=25 plus the cascade, on a trained 24-landmark model. Criterion 12
    times the cascade alone from the mean shape; this budget includes the
    initializer that serving really runs."""

    def test_3d_init_plus_cascade_within_budget(self, model3d, schema):
        cfg = RunConfig(
            corpus={"count": 40, "seed": 31}, seed=5, val_fraction=0.2,
            synth={"coordinate_noise_sigma": 1.0, "outlier_rate": 0.1},
            train={"T": 3, "K1": 10, "K2": 5, "depth": 3, "candidates_per_node": 16,
                   "shrinkage": 0.3, "Z": 25},
        )
        model = train_model(cfg, generate_corpus(model3d, schema, cfg.corpus_config()))
        assert model.init_mode == "3d" and model.config.Z == 25
        assert model.model3d.landmark_count == 24
        faces = generate_corpus(model3d, schema, CorpusConfig(count=30, seed=32, tag="serve"))
        source = SyntheticMapSource(cfg.synth_config(), cfg.seed)
        times_ms = []
        for s in [faces.samples[0]] + faces.samples:  # the first face warms up
            maps = source.maps_for(s)  # built outside the timer
            start = time.perf_counter()
            p = predict(model, maps, s.bbox)
            times_ms.append((time.perf_counter() - start) * 1000.0)
            assert not p.used_fallback
        assert float(np.median(times_ms[1:])) <= 20.0
