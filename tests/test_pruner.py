import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    naive_forward,
    naive_inputs,
    random_policy,
    ranking_tuples,
    reference_ranking,
)
from prunecert import linalg, pruner
from prunecert.linalg import (
    SingularMatrixError,
    auto_damping,
    damped_inverse,
    gram,
    spectral_norm,
)
from prunecert.policy import ActivationKind, Layer, MlpPolicy, forward
from prunecert.pruner import (
    CalibrationBatch,
    _Anchor,
    PrunePlan,
    collect_calibration,
    obs_compensate,
    prune_to_budget,
    rank_weights,
)


def _diagonal_gram_states(rng, d, n=None, lo=0.5, hi=2.0):
    """Calibration matrix with orthogonal rows: X = [diag(c) | 0]."""
    n = n or d + 2
    c = rng.uniform(lo, hi, size=d)
    x = np.zeros((d, n))
    x[:, :d] = np.diag(c)
    return x


def _positions(ranking):
    """(row, col) of each ranked weight, in ranking order."""
    return list(zip(ranking.row.tolist(), ranking.col.tolist()))


def _output_loss(w, w_hat, x):
    """Oracle: exact squared deviation of one layer's outputs on the batch
    ``x`` when its weights move from ``w`` to ``w_hat``, with raw numpy."""
    diff = (np.asarray(w) - np.asarray(w_hat)) @ x
    return float((diff * diff).sum())


def _zero_only_loss(w, r, c, x):
    """Oracle: exact loss of zeroing one weight."""
    w_hat = np.array(w, dtype=float)
    w_hat[r, c] = 0.0
    return _output_loss(w, w_hat, x)


class TestCollectCalibration:
    """The batch keeps ``gram`` of each layer's input, bit for bit, and no
    activation."""

    def test_single_state_single_layer(self):
        p = MlpPolicy(
            layers=(Layer(weight=[[1.0, 0.0]], bias=[0.0], activation=ActivationKind("relu")),)
        )
        calib = collect_calibration(p, [np.array([3.0, 4.0])])
        assert len(calib.curvature) == 1
        # 2 x x^T of the one column (3, 4)
        assert calib.curvature[0].tolist() == [[18.0, 24.0], [24.0, 32.0]]

    def test_columns_follow_input_order(self):
        p = MlpPolicy(
            layers=(Layer(weight=[[1.0]], bias=[0.0], activation=ActivationKind("relu")),)
        )
        calib = collect_calibration(p, [np.array([1.0]), np.array([2.0])])
        assert calib.curvature[0].tobytes() == gram([[1.0, 2.0]]).tobytes()

    def test_deeper_layers_match_naive_forward(self):
        rng = np.random.default_rng(0)
        p = random_policy(rng, depth=3, max_width=6)
        states = [rng.normal(size=p.input_dim) for _ in range(5)]
        calib = collect_calibration(p, states)
        inputs = naive_inputs(p, states)
        assert [h.tobytes() for h in calib.curvature] == [gram(x).tobytes() for x in inputs]
        assert [h.shape for h in calib.curvature] == [(la.in_dim,) * 2 for la in p.layers]
        for j, s in enumerate(states):
            np.testing.assert_array_equal(inputs[0][:, j], np.asarray(s, dtype=float))
            for k in range(1, p.num_layers):
                # layer k's input is layer k-1's output on layer k-1's input
                sub = MlpPolicy(layers=(p.layers[k - 1],))
                np.testing.assert_allclose(
                    inputs[k][:, j],
                    naive_forward(sub, inputs[k - 1][:, j]),
                    rtol=1e-12,
                    atol=1e-14,
                )

    def test_dimension_mismatch(self):
        p = MlpPolicy(
            layers=(Layer(weight=[[1.0, 0.0]], bias=[0.0], activation=ActivationKind("relu")),)
        )
        with pytest.raises(ValueError):
            collect_calibration(p, [np.array([1.0])])

    def test_array_of_rows_matches_list_of_states(self):
        # one state per row, as a matrix or as a list: the same C-contiguous
        # columns, so the same blocks, bit for bit
        rng = np.random.default_rng(1)
        p = random_policy(rng, depth=3, max_width=6)
        states = rng.normal(size=(7, p.input_dim))
        from_array = collect_calibration(p, states).curvature
        from_list = collect_calibration(p, list(states)).curvature
        for a, b in zip(from_array, from_list, strict=True):
            assert a.tobytes() == b.tobytes()
        assert from_array[0].tobytes() == gram(np.ascontiguousarray(states.T)).tobytes()

    def test_non_finite_state_rejected(self):
        p = MlpPolicy(layers=(Layer([[1.0, 0.0]], [0.0], ActivationKind("relu")),))
        with pytest.raises(ValueError, match="non-finite"):
            collect_calibration(p, [[1.0, 2.0], [math.nan, 0.0]])

    def test_batch_requires_square_blocks(self):
        for blocks in ((np.ones((2, 3)),), (np.eye(2), np.ones(4)), (np.ones((0, 0)),), ()):
            with pytest.raises(ValueError):
                CalibrationBatch(blocks)

    def test_batch_keeps_a_non_finite_block(self):
        # an overflowing block is refused only where a layer reads it
        calib = CalibrationBatch((np.eye(2), np.full((1, 1), math.inf)))
        assert calib.curvature[1].tolist() == [[math.inf]]


class TestObdSaliency:
    """The OBD saliency ``0.5 * w_q**2 / (H^-1)_qq`` as ``rank_weights`` scores it."""

    def _saliency(self, w, x):
        w = np.asarray(w, dtype=float)
        p = MlpPolicy(
            layers=(Layer(weight=w, bias=np.zeros(len(w)), activation=ActivationKind("relu")),)
        )
        ranking = rank_weights(p, CalibrationBatch((gram(x),)), [0])
        return {(r, c): s for r, c, s in zip(
            ranking.row.tolist(), ranking.col.tolist(), ranking.saliency.tolist()
        )}

    def test_basic_value(self):
        # H = 2 x x^T = 2, so (H^-1)_qq = 0.5 and the saliency is 0.5*4/0.5
        assert self._saliency([[2.0]], [[1.0]]) == {(0, 0): 4.0}

    def test_zero_weight(self):
        # removing a weight that is already 0 changes nothing, so it takes no
        # slot of a sparsity budget; H = 2 I scores the 1 at 0.5*1/0.5
        assert self._saliency([[0.0, 1.0]], np.eye(2)) == {(0, 1): 1.0}

    def test_nonpositive_curvature_rejected(self, monkeypatch):
        # a broken inversion must not yield negative or infinite saliencies
        for bad in (0.0, -1.0):
            monkeypatch.setattr(linalg, "damped_inverse", lambda h, lam: np.diag([1.0, bad]))
            with pytest.raises(ValueError, match="nonpositive diagonal"):
                self._saliency([[1.0, 1.0]], np.eye(2))

    def test_diagonal_gram_equals_exact_removal_loss(self):
        # H = diag(2, 8); (H^-1)_11 = 1/8; saliency = 0.5*0.25*8 = 1.0
        x = np.array([[1.0, 0.0], [0.0, 2.0]])
        w = np.array([[0.5, 0.5]])
        sal = self._saliency(w, x)[(0, 1)]
        assert sal == pytest.approx(1.0, rel=1e-12)
        assert sal == pytest.approx(_zero_only_loss(w, 0, 1, x), rel=1e-12)


class TestRankWeights:
    def test_monotone_in_weight_for_equal_curvature(self):
        p = MlpPolicy(
            layers=(Layer(weight=[[1.0, 2.0]], bias=[0.0], activation=ActivationKind("relu")),)
        )
        calib = CalibrationBatch((gram(np.eye(2)),))
        ranking = rank_weights(p, calib, [0])
        assert _positions(ranking) == [(0, 0), (0, 1)]
        assert ranking.saliency[0] < ranking.saliency[1]

    def test_all_zero_layer_lexicographic(self):
        # a layer whose inputs are all zero (a dead block under auto damping)
        # scores every weight 0, so its nonzero weights are ranked by
        # position; its zero weight is not ranked
        p = MlpPolicy(
            layers=(
                Layer(weight=[[2.0, 0.0], [-1.0, 3.0]], bias=np.zeros(2),
                      activation=ActivationKind("relu")),
            )
        )
        calib = CalibrationBatch((gram(np.zeros((2, 3))),), damping="auto")
        ranking = rank_weights(p, calib, [0])
        assert ranking.saliency.tolist() == [0.0] * 3
        assert ranking.layer.tolist() == [0] * 3
        assert _positions(ranking) == [(0, 0), (1, 0), (1, 1)]

    def test_all_zero_layer_ranks_nothing(self):
        p = MlpPolicy(
            layers=(
                Layer(weight=np.zeros((2, 2)), bias=np.zeros(2), activation=ActivationKind("relu")),
            )
        )
        ranking = rank_weights(p, CalibrationBatch((gram(np.eye(2)),)), [0])
        assert len(ranking) == 0
        _, plan = prune_to_budget(p, ranking)
        assert plan.layers == ()

    def test_matches_brute_force_ranking_with_diagonal_gram(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(4, 4))
        p = MlpPolicy(
            layers=(Layer(weight=w, bias=np.zeros(4), activation=ActivationKind("relu")),)
        )
        x = _diagonal_gram_states(rng, 4)
        calib = CalibrationBatch((gram(x),))
        ranking = rank_weights(p, calib, [0])
        brute = sorted(
            (
                (_zero_only_loss(w, r, c, x), 0, r, c)
                for r in range(4)
                for c in range(4)
            )
        )
        assert _positions(ranking) == [(r, c) for _, _, r, c in brute]

    def test_saliencies_nonnegative(self):
        rng = np.random.default_rng(2)
        p = random_policy(rng, depth=2, max_width=8)
        states = [rng.normal(size=p.input_dim) for _ in range(12)]
        calib = collect_calibration(p, states, damping="auto")
        ranking = rank_weights(p, calib, range(p.num_layers))
        assert (ranking.saliency >= 0.0).all()

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        p = random_policy(rng, depth=2, max_width=6)
        states = [rng.normal(size=p.input_dim) for _ in range(10)]
        calib = collect_calibration(p, states, damping="auto")
        a = rank_weights(p, calib, [0, 1])
        b = rank_weights(p, calib, [0, 1])
        assert ranking_tuples(a) == ranking_tuples(b)

    def test_singular_hessian_without_damping_raises(self):
        p = MlpPolicy(
            layers=(
                Layer(weight=np.ones((1, 3)), bias=[0.0], activation=ActivationKind("relu")),
            )
        )
        blocks = (gram(np.ones((3, 1))),)  # rank-1 gram
        with pytest.raises(SingularMatrixError):
            rank_weights(p, CalibrationBatch(blocks), [0])
        # damping (or auto) unblocks the same call
        assert len(rank_weights(p, CalibrationBatch(blocks, damping="auto"), [0])) == 3

    def test_dead_layer_under_auto_damping_scores_zero(self):
        relu = ActivationKind("relu")
        p = MlpPolicy(
            layers=(
                Layer(weight=[[1.0, 0.5], [-0.5, 1.0]], bias=[-10.0, -10.0], activation=relu),
                Layer(weight=[[2.0, -3.0]], bias=[0.0], activation=relu),
            )
        )
        calib = collect_calibration(p, [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]], damping="auto")
        assert not calib.curvature[1].any()  # layer 1's inputs are all zero
        ranking = rank_weights(p, calib, [1])
        assert ranking_tuples(ranking) == [(0.0, 1, 0, 0), (0.0, 1, 0, 1)]
        # a compensated removal there only zeroes the weight
        pruned, plan = prune_to_budget(p, ranking[:1], calib=calib)
        assert pruned.layers[1].weight.tolist() == [[0.0, -3.0]]
        assert plan.layers[0].delta_spectral_norm >= 2.0
        assert not plan.layers[0].compensated

    @staticmethod
    def _overflowing(scale, states, damping="auto"):
        # layer 1's inputs are layer 0's outputs, about ``scale`` times the states
        relu = ActivationKind("relu")
        p = MlpPolicy(layers=(Layer(np.eye(2) * scale, np.zeros(2), relu),
                              Layer([[1.0, -1.0]], [0.0], ActivationKind("identity"))))
        return p, collect_calibration(p, states, damping)

    @pytest.mark.parametrize(
        "damping, diagonal, compensate",
        [("auto", False, False), ("auto", True, False), (0.1, True, False),
         ("auto", False, True), (0.1, False, True)],
    )
    def test_overflowing_curvature_names_the_layer(self, damping, diagonal, compensate):
        # the inputs (~1e300) are finite, their curvature block 2 X X^T is
        # not; unrefused, a fixed diagonal damping would score layer 1 inf
        # and rank it by position alone
        states = np.random.default_rng(40).uniform(-1.0, 1.0, size=(16, 2))
        p, calib = self._overflowing(1e300, states, damping)
        with np.errstate(over="ignore"), pytest.raises(
            ValueError, match=r"^layer 1: the calibration curvature 2 X X\^T overflows$"
        ):
            if compensate:  # the re-fit's block, with layer 0 alone ranked
                ranking = rank_weights(p, calib, [0], diagonal=diagonal)
                prune_to_budget(p, ranking, {0: math.inf, 1: math.inf}, calib)
            else:
                rank_weights(p, calib, [0, 1], diagonal=diagonal)

    @pytest.mark.parametrize("compensate", [False, True])
    def test_an_unranked_overflowing_block_is_never_read(self, compensate):
        # layer 1's inputs (~1e200) are finite and its block 2 X X^T is not;
        # with layer 0 alone ranked and walked, nothing reads that block, so
        # there is no error and no warning (the suite makes a warning fail)
        states = np.random.default_rng(40).uniform(-1.0, 1.0, size=(16, 2))
        p, calib = self._overflowing(1e200, states)
        assert not np.isfinite(calib.curvature[1]).all()
        ranking = rank_weights(p, calib, [0])
        pruned, plan = prune_to_budget(p, ranking[:2], calib=calib if compensate else None)
        assert [(lp.layer, len(lp.mask)) for lp in plan.layers] == [(0, 2)]
        assert pruned.layers[1].weight is p.layers[1].weight

    @pytest.mark.parametrize("diagonal", [False, True])
    def test_overflowing_auto_damping_trace_names_the_layer(self, diagonal):
        # each diagonal entry of the block, 2 * 4 * (3.5e153)^2 ~ 9.8e307, is
        # finite, but the trace auto damping sums is not
        p, calib = self._overflowing(3.5e153, np.ones((4, 2)))
        assert np.isfinite(calib.curvature[1]).all()
        with np.errstate(over="ignore"), pytest.raises(
            ValueError, match=r"^layer 1: the calibration curvature 2 X X\^T overflows$"
        ):
            rank_weights(p, calib, [1], diagonal=diagonal)

    @pytest.mark.parametrize("damping", [math.inf, math.nan, -1.0])
    @pytest.mark.parametrize("diagonal", [False, True])
    def test_damping_must_be_auto_or_a_finite_number_at_least_zero(self, damping, diagonal):
        # unrefused, an infinite damping scored every weight alike (diagonal)
        # or failed as a singular matrix, and a NaN one scored every weight 0
        relu = ActivationKind("relu")
        p = MlpPolicy(layers=(Layer(np.eye(2), np.zeros(2), ActivationKind("identity")),
                              Layer([[1.0, -2.0]], [0.0], relu)))
        with pytest.raises(ValueError, match="^damping must be 'auto' or a finite number >= 0"):
            rank_weights(p, collect_calibration(p, np.ones((4, 2)), damping), [1],
                         diagonal=diagonal)

    def test_overflowing_input_names_the_layer(self):
        # layer 1's output is inf - inf = NaN, which calibration never reads
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValueError, match=r"^layer 1's calibration input contains non-finite entries$"
        ):
            self._overflowing(1e300, np.full((4, 2), 1e10))

    def test_dead_layer_with_huge_weights_scores_zero(self):
        # w * w overflows in the dead layer 1; dividing it by an infinite
        # inverse diagonal scored inf / inf = NaN and ranked these free
        # removals last
        rng = np.random.default_rng(36)
        relu = ActivationKind("relu")
        p = MlpPolicy(
            layers=(
                Layer(weight=[[1.0, 0.5], [-0.5, 1.0]], bias=[-10.0, -10.0], activation=relu),
                Layer(weight=[[2e200, -3e300]], bias=[0.0], activation=relu),
            )
        )
        calib = collect_calibration(p, list(rng.uniform(-1.0, 1.0, size=(6, 2))), damping="auto")
        assert not calib.curvature[1].any()
        ranking = rank_weights(p, calib, [0, 1])
        assert ranking_tuples(ranking[:2]) == [(0.0, 1, 0, 0), (0.0, 1, 0, 1)]
        assert np.isfinite(ranking.saliency).all()

    @pytest.mark.parametrize("diagonal", [False, True])
    def test_overflowing_square_keeps_a_finite_score(self, diagonal):
        # w ~ 1e200 against states ~ 1e-100: w * w overflows, but the score
        # 0.5 w^2 / (H^-1)_qq (or 0.5 w^2 H_qq) is about 1e200.  Scaling the
        # weights by 2^-664 is exact and scales every score by 2^-1328.
        rng = np.random.default_rng(37)
        w = rng.normal(size=(3, 4)) * 1e200
        states = list(rng.normal(size=(8, 4)) * 1e-100)

        def ranked(weight):
            p = MlpPolicy(layers=(Layer(weight, np.zeros(3), ActivationKind("identity")),))
            return rank_weights(p, collect_calibration(p, states, "auto"), [0], diagonal)

        ranking, scaled = ranked(w), ranked(np.ldexp(w, -664))
        assert np.isfinite(ranking.saliency).all()
        assert _positions(ranking) == _positions(scaled)
        np.testing.assert_allclose(
            ranking.saliency, np.ldexp(scaled.saliency, 1328), rtol=4 * np.finfo(float).eps
        )

    def test_diagonal_variant_matches_full_inverse_on_diagonal_gram(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=(3, 3))
        p = MlpPolicy(
            layers=(Layer(weight=w, bias=np.zeros(3), activation=ActivationKind("relu")),)
        )
        x = _diagonal_gram_states(rng, 3)
        calib = CalibrationBatch((gram(x),))
        full = rank_weights(p, calib, [0])
        diag = rank_weights(p, calib, [0], diagonal=True)
        assert _positions(full) == _positions(diag)
        assert list(full.saliency) == pytest.approx(list(diag.saliency), rel=1e-9)


class TestObsCompensate:
    def test_identity_inverse_pure_zeroing(self):
        out = obs_compensate([3.0, 1.0], 0, np.eye(2))
        np.testing.assert_array_equal(out, [0.0, 1.0])

    def test_diagonal_inverse_touches_only_q(self):
        rng = np.random.default_rng(5)
        row = rng.normal(size=4)
        h_inv = np.diag(rng.uniform(0.1, 2.0, size=4))
        out = obs_compensate(row, 2, h_inv)
        assert out[2] == 0.0
        np.testing.assert_array_equal(np.delete(out, 2), np.delete(row, 2))

    def test_matches_constrained_least_squares_oracle(self):
        rng = np.random.default_rng(6)
        d = 3
        x = rng.normal(size=(d, d + 4))
        row = rng.normal(size=d)
        q = 2
        h_inv = np.linalg.inv(gram(x))
        out = obs_compensate(row, q, h_inv)
        # oracle: minimize ||(row+delta)X - rowX|| with delta_q = -row_q fixed
        free = [i for i in range(d) if i != q]
        rhs = row[q] * x[q, :]
        z, *_ = np.linalg.lstsq(x[free, :].T, rhs, rcond=None)
        expected = row.copy()
        expected[free] += z - 0.0
        expected[free] = row[free] + z
        expected[q] = 0.0
        np.testing.assert_allclose(out, expected, atol=1e-8)

    def test_nonpositive_qq_rejected(self):
        h = np.eye(2)
        h[1, 1] = 0.0
        with pytest.raises(ValueError):
            obs_compensate([1.0, 2.0], 1, h)

    def test_non_finite_column_rejected(self):
        # the update reads column q of H^-1, so a non-finite entry there is an
        # error; an entry of another column is never read
        for bad in (math.nan, math.inf):
            h = np.eye(3)
            h[2, 1] = bad
            with pytest.raises(ValueError, match="column 1"):
                obs_compensate([1.0, 2.0, 3.0], 1, h)
            np.testing.assert_array_equal(obs_compensate([1.0, 2.0, 3.0], 0, h), [0.0, 2.0, 3.0])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 8), size=st.integers(1, 7))
    def test_set_formula_matches_constrained_least_squares(self, seed, d, size):
        rng = np.random.default_rng(seed)
        cols = rng.permutation(d)[: min(size, d - 1)].tolist()
        x = rng.normal(size=(d, d + 4))
        row = rng.normal(size=d)
        out = obs_compensate(row, cols, np.linalg.inv(gram(x)))
        # oracle: minimize ||(out - row) X|| with out_S = 0, so the free
        # entries' change solves X_F^T z = X_S^T row_S in least squares
        free = [i for i in range(d) if i not in cols]
        z, *_ = np.linalg.lstsq(x[free, :].T, x[cols, :].T @ row[cols], rcond=None)
        expected = np.zeros(d)
        expected[free] = row[free] + z
        np.testing.assert_allclose(out, expected, atol=1e-8)
        assert not out[cols].any()
        zero = row.copy()
        zero[cols] = 0.0
        assert _output_loss(row[None, :], out[None, :], x) <= _output_loss(
            row[None, :], zero[None, :], x
        ) + 1e-10

    def test_out_of_range_column_rejected(self):
        for cols in (3, [0, 3], -1):
            with pytest.raises(ValueError, match="out of range"):
                obs_compensate([1.0, 2.0, 3.0], cols, np.eye(3))

    def test_repeated_column_rejected(self):
        # a column listed twice makes (H^-1)[S, S] singular
        with pytest.raises(ValueError):
            obs_compensate([1.0, 2.0, 3.0], [1, 1], np.eye(3))

    def test_never_worse_than_zero_only(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            d = int(rng.integers(2, 8))
            x = rng.normal(size=(d, d + 3))
            row = rng.normal(size=d)
            q = int(rng.integers(d))
            h_inv = np.linalg.inv(gram(x))
            comp = obs_compensate(row, q, h_inv)
            base = row[None, :]
            comp_loss = _output_loss(base, comp[None, :], x)
            zero = row.copy()
            zero[q] = 0.0
            zero_loss = _output_loss(base, zero[None, :], x)
            assert comp_loss <= zero_loss + 1e-10


class TestApplyPlan:
    """``prune_to_budget`` with no caps over a ranking prefix, the sparsity
    mode walk: it removes exactly the prefix's entries."""

    def _setup(self, seed=8, d=4):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(d, d))
        p = MlpPolicy(
            layers=(Layer(weight=w, bias=np.zeros(d), activation=ActivationKind("relu")),)
        )
        x = _diagonal_gram_states(rng, d)
        calib = CalibrationBatch((gram(x),))
        entries = rank_weights(p, calib, [0])
        return rng, p, x, calib, entries

    def test_count_zero_identity(self):
        _, p, _, _, entries = self._setup()
        pruned, plan = prune_to_budget(p, entries[:0])
        assert plan.layers == ()
        np.testing.assert_array_equal(pruned.layers[0].weight, p.layers[0].weight)

    def test_plan_lists_only_the_layers_the_prefix_touches(self):
        rng = np.random.default_rng(19)
        p = random_policy(rng, depth=3, max_width=6)
        calib = collect_calibration(p, [rng.normal(size=p.input_dim) for _ in range(10)], "auto")
        ranking = rank_weights(p, calib, [0, 1, 2])
        for count in range(len(ranking) + 1):
            head = ranking[:count]
            pruned, plan = prune_to_budget(p, head)
            touched = sorted(set(head.layer.tolist()))
            assert [lp.layer for lp in plan.layers] == touched
            assert sum(len(lp.mask) for lp in plan.layers) == count
            for k in set(range(p.num_layers)) - set(touched):
                np.testing.assert_array_equal(pruned.layers[k].weight, p.layers[k].weight)

    def test_full_layer_zero_only(self):
        _, p, _, _, entries = self._setup()
        pruned, plan = prune_to_budget(p, entries)
        assert not pruned.layers[0].weight.any()
        lp = plan.layers[0]
        np.testing.assert_array_equal(
            pruned.layers[0].weight - p.layers[0].weight, -p.layers[0].weight
        )
        assert lp.delta_spectral_norm == pytest.approx(
            spectral_norm(p.layers[0].weight), rel=1e-9
        )

    def test_loss_additivity_with_orthogonal_calibration_rows(self):
        _, p, x, _, ranking = self._setup()
        w = p.layers[0].weight
        pruned, plan = prune_to_budget(p, ranking[:3])
        total = _output_loss(w, pruned.layers[0].weight, x)
        parts = sum(_zero_only_loss(w, r, c, x) for r, c in _positions(ranking[:3]))
        assert total == pytest.approx(parts, rel=1e-12, abs=1e-15)

    def test_masked_weights_exactly_zero_biases_untouched(self):
        rng = np.random.default_rng(9)
        p = random_policy(rng, depth=3, max_width=8)
        states = [rng.normal(size=p.input_dim) for _ in range(16)]
        calib = collect_calibration(p, states, damping="auto")
        entries = rank_weights(p, calib, range(p.num_layers))
        count = len(entries) // 2
        pruned, plan = prune_to_budget(p, entries[:count])
        for lp in plan.layers:
            w = pruned.layers[lp.layer].weight
            for r, c in lp.mask:
                assert w[r, c] == 0.0
        for la, lb in zip(p.layers, pruned.layers):
            np.testing.assert_array_equal(la.bias, lb.bias)

    def test_zero_only_reconstruction_is_bitwise(self):
        rng, p, _, _, entries = self._setup(seed=10)
        pruned, _ = prune_to_budget(p, entries[:5])
        delta = pruned.layers[0].weight - p.layers[0].weight
        rebuilt = MlpPolicy(
            layers=(
                Layer(
                    weight=p.layers[0].weight + delta,
                    bias=p.layers[0].bias,
                    activation=p.layers[0].activation,
                ),
            )
        )
        for _ in range(20):
            s = rng.normal(size=p.input_dim)
            np.testing.assert_array_equal(forward(pruned, s), forward(rebuilt, s))

    def test_compensated_loss_never_worse_per_layer(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            w = rng.normal(size=(d, d))
            p = MlpPolicy(
                layers=(Layer(weight=w, bias=np.zeros(d), activation=ActivationKind("relu")),)
            )
            x = rng.normal(size=(d, d + 4))
            calib = CalibrationBatch((gram(x),))
            entries = rank_weights(p, calib, [0])
            count = int(rng.integers(1, d))
            zero_p, _ = prune_to_budget(p, entries[:count])
            comp_p, comp_plan = prune_to_budget(p, entries[:count], calib=calib)
            assert comp_plan.layers[0].compensated
            zero_loss = _output_loss(w, zero_p.layers[0].weight, x)
            comp_loss = _output_loss(w, comp_p.layers[0].weight, x)
            assert comp_loss <= zero_loss + 1e-10

    def test_delta_norm_invariant(self):
        rng = np.random.default_rng(12)
        p = random_policy(rng, depth=2, max_width=8)
        states = [rng.normal(size=p.input_dim) for _ in range(12)]
        calib = collect_calibration(p, states, damping="auto")
        entries = rank_weights(p, calib, [0, 1])
        pruned, plan = prune_to_budget(p, entries[: len(entries) // 3])
        for lp in plan.layers:
            delta = pruned.layers[lp.layer].weight - p.layers[lp.layer].weight
            truth = spectral_norm(delta) if delta.any() else 0.0
            assert lp.delta_spectral_norm == pytest.approx(truth, rel=1e-9, abs=1e-15)

    @pytest.mark.parametrize("compensate", [False, True])
    def test_one_norm_per_pruned_layer(self, monkeypatch, compensate):
        rng = np.random.default_rng(9)
        p = random_policy(rng, depth=3, max_width=6)
        calib = collect_calibration(p, [rng.normal(size=p.input_dim) for _ in range(10)], "auto")
        ranking = rank_weights(p, calib, [0, 2])
        calls = []

        def counted(m):
            calls.append(np.shape(m))
            return spectral_norm(m)

        monkeypatch.setattr(linalg, "spectral_norm", counted)
        pruned, plan = prune_to_budget(
            p, ranking[: len(ranking) * 2 // 3], calib=calib if compensate else None
        )
        # the uncapped walk takes no norm per removal, only the plan's own
        assert [lp.layer for lp in plan.layers] == [0, 2]
        assert calls == [p.layers[0].weight.shape, p.layers[2].weight.shape]
        for lp in plan.layers:
            delta = pruned.layers[lp.layer].weight - p.layers[lp.layer].weight
            assert lp.delta_spectral_norm == spectral_norm(delta)


class TestCompensatedPlanDescribesModel:
    """A compensated plan lists exactly the weights its model holds at 0:
    each row is re-fit over its whole removed set, so no later removal in
    the row refills an earlier one."""

    @pytest.mark.parametrize("capped", [False, True])
    @pytest.mark.parametrize("seed", range(5))
    def test_every_masked_weight_is_zero(self, seed, capped):
        rng = np.random.default_rng(seed)
        p = random_policy(rng, dims=[4, 7, 5, 2])
        calib = collect_calibration(p, rng.uniform(-2.0, 2.0, (16, 4)), damping="auto")
        ranking = rank_weights(p, calib, range(p.num_layers))
        caps = {k: 0.5 * spectral_norm(layer.weight) for k, layer in enumerate(p.layers)}
        if not capped:
            ranking, caps = ranking[:36], None
        pruned, plan = prune_to_budget(p, ranking, caps, calib)
        if not capped:
            assert sum(len(lp.mask) for lp in plan.layers) == 36
        recovered = {lp.layer: lp.mask for lp in PrunePlan.from_policies(p, pruned).layers}
        for lp in plan.layers:
            assert not pruned.layers[lp.layer].weight[lp.mask[:, 0], lp.mask[:, 1]].any()
            got = recovered.get(lp.layer, np.empty((0, 2), dtype=int))
            assert set(map(tuple, got.tolist())) == set(map(tuple, lp.mask.tolist()))


class TestPrunePlanConstruction:
    def test_from_policies_detects_shape_mismatch(self):
        a = MlpPolicy(
            layers=(Layer(weight=[[1.0]], bias=[0.0], activation=ActivationKind("relu")),)
        )
        b = MlpPolicy(
            layers=(Layer(weight=[[1.0, 2.0]], bias=[0.0], activation=ActivationKind("relu")),)
        )
        with pytest.raises(ValueError, match=r"layer 0.*shape"):
            PrunePlan.from_policies(a, b)

    def test_from_policies_rejects_bias_changes(self):
        a = MlpPolicy(
            layers=(Layer(weight=[[1.0]], bias=[0.0], activation=ActivationKind("relu")),)
        )
        b = MlpPolicy(
            layers=(Layer(weight=[[1.0]], bias=[0.5], activation=ActivationKind("relu")),)
        )
        with pytest.raises(ValueError, match="bias"):
            PrunePlan.from_policies(a, b)

    def test_from_policies_round_trip(self):
        rng = np.random.default_rng(13)
        p = random_policy(rng, depth=3, max_width=8)
        states = [rng.normal(size=p.input_dim) for _ in range(10)]
        calib = collect_calibration(p, states, damping="auto")
        entries = rank_weights(p, calib, [1])
        pruned, plan = prune_to_budget(p, entries[: len(entries) // 2])
        recovered = PrunePlan.from_policies(p, pruned)
        assert [lp.layer for lp in recovered.layers] == [lp.layer for lp in plan.layers]
        for lp_a, lp_b in zip(plan.layers, recovered.layers):
            assert lp_a.delta_spectral_norm == lp_b.delta_spectral_norm
            assert sorted(lp_a.mask.tolist()) == sorted(lp_b.mask.tolist())
            assert not lp_b.compensated


class TestPruneToBudget:
    def test_zero_caps_prune_nothing(self):
        rng = np.random.default_rng(14)
        p = random_policy(rng, depth=2, max_width=6)
        states = [rng.normal(size=p.input_dim) for _ in range(8)]
        calib = collect_calibration(p, states, damping="auto")
        ranking = rank_weights(p, calib, [0])
        pruned, plan = prune_to_budget(p, ranking, {0: 0.0})
        assert plan.layers[0].mask.shape == (0, 2)
        np.testing.assert_array_equal(pruned.layers[0].weight, p.layers[0].weight)

    def test_caps_respected(self):
        rng = np.random.default_rng(15)
        p = random_policy(rng, depth=2, max_width=8)
        states = [rng.normal(size=p.input_dim) for _ in range(10)]
        calib = collect_calibration(p, states, damping="auto")
        entries = rank_weights(p, calib, [0, 1])
        caps = {0: 0.15, 1: 0.05}
        _, plan = prune_to_budget(p, entries, caps)
        for lp in plan.layers:
            assert lp.delta_spectral_norm <= caps[lp.layer] + 1e-12

    @pytest.mark.parametrize("compensate", [False, True])
    def test_infinite_cap_prunes_everything(self, monkeypatch, compensate):
        rng = np.random.default_rng(16)
        p = random_policy(rng, depth=1, max_width=5)
        states = [rng.normal(size=p.input_dim) for _ in range(8)]
        calib = collect_calibration(p, states, damping="auto")
        entries = rank_weights(p, calib, [0])
        calls, anchors = [], []

        def counted(m):
            calls.append(np.shape(m))
            return spectral_norm(m)

        monkeypatch.setattr(linalg, "spectral_norm", counted)
        monkeypatch.setattr(pruner, "_Anchor", lambda *args: anchors.append(args))
        pruned, plan = prune_to_budget(p, entries, {0: np.inf}, calib if compensate else None)
        monkeypatch.undo()
        assert plan.layers[0].mask.tolist() == np.column_stack((entries.row, entries.col)).tolist()
        assert not pruned.layers[0].weight.any()
        # no removal needs a bound or an exact norm; the plan's own norm is the only one
        assert anchors == []
        assert calls == [p.layers[0].weight.shape]
        delta = pruned.layers[0].weight - p.layers[0].weight
        assert plan.layers[0].delta_spectral_norm == spectral_norm(delta)
        _budget_matches_reference(
            p, states, calib, entries, reference_ranking(p, states, [0], damping="auto"),
            {0: math.inf}, compensate,
        )

    def test_nan_cap_rejected(self):
        # a NaN cap never compares above a delta norm, so it would cap nothing
        rng = np.random.default_rng(17)
        p = random_policy(rng, depth=2, max_width=5)
        calib = collect_calibration(p, [rng.normal(size=p.input_dim) for _ in range(8)], "auto")
        ranking = rank_weights(p, calib, [0, 1])
        with pytest.raises(ValueError, match="NaN"):
            prune_to_budget(p, ranking, {0: 0.5, 1: math.nan})

    def test_cap_on_a_missing_layer_rejected(self):
        rng = np.random.default_rng(18)
        p = random_policy(rng, depth=2, max_width=5)
        calib = collect_calibration(p, [rng.normal(size=p.input_dim) for _ in range(8)], "auto")
        ranking = rank_weights(p, calib, [0])
        for k in (-1, 2):
            with pytest.raises(ValueError, match="out of range"):
                prune_to_budget(p, ranking, {k: 1.0})


def _tied_policy(rng):
    """Four layers built for exact saliency ties.  Layer 0 has an all-zero row,
    which is not ranked, and a duplicated column fed by duplicated state
    coordinates.  The negative biases of layers 0 and 1 hold their outputs at
    0, so layers 1 and 2 are dead blocks under auto damping whose weights all
    score 0.  Layer 3 repeats one weight value along a row.  Returns the
    policy, its calibration states and their batch, under auto damping."""
    w0 = rng.normal(size=(5, 4))
    w0[2] = 0.0
    w0[:, 3] = w0[:, 1]
    w3 = rng.normal(size=(2, 6))
    w3[1, :] = 0.75
    relu = ActivationKind("relu")
    p = MlpPolicy(
        layers=(
            Layer(weight=w0, bias=np.full(5, -100.0), activation=relu),
            Layer(weight=rng.normal(size=(6, 5)), bias=-rng.uniform(0.1, 1.0, size=6),
                  activation=relu),
            Layer(weight=rng.normal(size=(6, 6)), bias=rng.uniform(0.1, 1.0, size=6),
                  activation=relu),
            Layer(weight=w3, bias=np.zeros(2), activation=ActivationKind("identity")),
        )
    )
    states = rng.normal(size=(12, 4))
    states[:, 3] = states[:, 1]
    return p, states, collect_calibration(p, states, damping="auto")


def _reference_budget(p, entries, caps, states, damping, compensate):
    """The per-entry loop ``prune_to_budget`` replaces: walk the reference
    ranking, try each removal in a capped layer, undo and close the layer
    at the first one whose delta norm exceeds the cap.  A compensated
    removal re-fits the row's original weights over its whole removed set,
    ``w - H^-1[:, S] (H^-1[S, S])^-1 w_S``, written out with raw numpy, with
    each curvature block ``gram`` of ``naive_inputs`` on ``states``."""
    work = {k: p.layers[k].weight.copy() for k in caps}
    h_inv = {}
    if compensate:
        inputs = naive_inputs(p, states)
        for k in caps:
            h = gram(inputs[k])
            lam = auto_damping(h) if damping == "auto" else float(damping)
            # a dead layer (an all-zero block under auto damping) only zeroes
            h_inv[k] = damped_inverse(h, lam) if damping != "auto" or h.any() else None
    removed = {}
    open_caps = dict(caps)
    taken = {k: [] for k in caps}
    for e in entries:
        _, k, r, c = e
        if open_caps.get(k, 0.0) <= 0.0:
            continue
        saved = work[k][r].copy()
        cols = removed.setdefault((k, r), [])
        cols.append(c)
        if compensate and h_inv[k] is not None:
            hi, w0 = h_inv[k], p.layers[k].weight[r]
            work[k][r] = w0 - hi[:, cols] @ np.linalg.solve(hi[np.ix_(cols, cols)], w0[cols])
            work[k][r, cols] = 0.0
        else:
            work[k][r, c] = 0.0
        delta = work[k] - p.layers[k].weight
        if (spectral_norm(delta) if delta.any() else 0.0) > caps[k]:
            work[k][r] = saved
            cols.pop()
            open_caps[k] = 0.0
            continue
        taken[k].append(e)
    return work, taken


def _budget_matches_reference(p, states, calib, ranking, reference, caps, compensate):
    """Run ``prune_to_budget`` on ``calib``, the batch of ``states`` (re-fitting
    only with ``compensate``), and ``_reference_budget`` on ``states`` with the
    same caps and damping and check that
    both take, mask and leave the same weights; returns the pruned policy,
    the plan and the reference's taken entries."""
    pruned, plan = prune_to_budget(p, ranking, caps, calib if compensate else None)
    work, expected = _reference_budget(p, reference, caps, states, calib.damping, compensate)
    inputs = naive_inputs(p, states)
    assert sorted(caps) == [lp.layer for lp in plan.layers]
    for lp in plan.layers:
        k = lp.layer
        # the mask holds the taken head of the layer's ranking, in removal order
        head = ranking[ranking.layer == k][: len(lp.mask)]
        assert ranking_tuples(head) == expected[k]
        assert lp.mask.tolist() == [[r, c] for _, _, r, c in expected[k]]
        np.testing.assert_array_equal(pruned.layers[k].weight, work[k])
        # every masked weight is 0 in the pruned model
        assert not pruned.layers[k].weight[lp.mask[:, 0], lp.mask[:, 1]].any()
        # a dead block (all-zero inputs under auto damping) runs no re-fit
        assert lp.compensated == (compensate and inputs[k].any() and len(expected[k]) > 0)
        delta = work[k] - p.layers[k].weight
        assert lp.delta_spectral_norm == (spectral_norm(delta) if delta.any() else 0.0)
    return pruned, plan, expected


class TestRankingMatchesReference:
    @pytest.mark.parametrize("diagonal", [False, True])
    @pytest.mark.parametrize("seed", [30, 31, 32])
    def test_tied_policy(self, seed, diagonal):
        p, states, calib = _tied_policy(np.random.default_rng(seed))
        ranking = rank_weights(p, calib, [0, 1, 2, 3], diagonal=diagonal)
        reference = reference_ranking(p, states, [0, 1, 2, 3], damping="auto", diagonal=diagonal)
        assert ranking_tuples(ranking) == reference
        # the ties are real: zero saliency spans the two dead layers, so every
        # key (layer, row, col) takes part in the order
        assert not calib.curvature[1].any() and not calib.curvature[2].any()
        zero_layers = {k for sal, k, _, _ in reference if sal == 0.0}
        assert zero_layers == {1, 2}
        # layer 0's zero row is not ranked
        assert len(reference) == sum(np.count_nonzero(layer.weight) for layer in p.layers)
        assert len({sal for sal, _, _, _ in reference}) < len(reference)
        # widths 4 and 6 with two layers skipped, and 5 and 6 tied at zero:
        # each flat index maps back to its own layer, row and column
        for subset in ([0, 3], [1, 2]):
            ranking = rank_weights(p, calib, subset, diagonal=diagonal)
            reference = reference_ranking(p, states, subset, damping="auto", diagonal=diagonal)
            assert ranking_tuples(ranking) == reference

    @pytest.mark.parametrize("diagonal", [False, True])
    def test_random_policies_layer_subsets(self, diagonal):
        rng = np.random.default_rng(33)
        for _ in range(10):
            p = random_policy(rng, depth=3, max_width=7)
            states = [rng.normal(size=p.input_dim) for _ in range(9)]
            calib = collect_calibration(p, states, damping=0.05)
            layers = [0, 2]
            ranking = rank_weights(p, calib, layers, diagonal=diagonal)
            assert ranking_tuples(ranking) == reference_ranking(
                p, states, layers, damping=0.05, diagonal=diagonal
            )

    @pytest.mark.parametrize("compensate", [False, True])
    def test_prune_to_budget_taken_matches_reference_loop(self, compensate):
        p, states, calib = _tied_policy(np.random.default_rng(34))
        ranking = rank_weights(p, calib, [0, 1, 2, 3])
        reference = reference_ranking(p, states, [0, 1, 2, 3], damping="auto")

        def check(caps):
            return _budget_matches_reference(
                p, states, calib, ranking, reference, caps, compensate
            )

        # layers 1 and 2 are ranked but uncapped, so the walk must skip their entries
        caps = {k: 0.3 * spectral_norm(p.layers[k].weight) for k in (0, 3)}
        pruned, plan, expected = check(caps)
        for lp in plan.layers:
            assert 0 < len(expected[lp.layer]) < p.layers[lp.layer].weight.size
            assert lp.compensated == compensate
        for k in (1, 2):
            np.testing.assert_array_equal(pruned.layers[k].weight, p.layers[k].weight)

        # caps on the decision boundary: exactly the exact norm of each prefix's
        # delta, and one ulp below it, where that removal must be refused
        stops = 0
        for k in (0, 3):
            layer_entries = [e for e in reference if e[1] == k]
            for j in range(1, len(layer_entries) + 1):
                work, _ = _reference_budget(
                    p, layer_entries[:j], {k: math.inf}, states, "auto", compensate
                )
                delta = work[k] - p.layers[k].weight
                norm = spectral_norm(delta) if delta.any() else 0.0
                at = len(check({k: norm})[2][k])
                below = len(check({k: math.nextafter(norm, 0.0)})[2][k])
                stops += norm > 0.0 and at >= j and below == j - 1
        assert stops >= 10

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        compensate=st.booleans(),
        fractions=st.lists(
            st.one_of(st.none(), st.floats(0.0, 1.5), st.just(math.inf)), min_size=3, max_size=3
        ),
    )
    # layer 2 is dead on this seed's calibration batch: its curvature block is all zero
    @example(seed=1259363, compensate=True, fractions=[0.5, 0.5, 0.5])
    @example(seed=1259363, compensate=False, fractions=[None, None, 1.0])
    @example(seed=1259363, compensate=True, fractions=[math.inf, 0.5, math.inf])
    def test_prune_to_budget_matches_reference_on_random_policies(
        self, seed, compensate, fractions
    ):
        rng = np.random.default_rng(seed)
        p = random_policy(rng, depth=3, max_width=6)
        states = [rng.normal(size=p.input_dim) for _ in range(8)]
        calib = collect_calibration(p, states, damping="auto")
        # an infinite fraction is the uncapped walk, checked against the same loop
        caps = {
            k: f if f == math.inf else f * spectral_norm(p.layers[k].weight)
            for k, f in enumerate(fractions)
            if f is not None
        }
        _, plan, _ = _budget_matches_reference(
            p, states, calib, rank_weights(p, calib, [0, 1, 2]),
            reference_ranking(p, states, [0, 1, 2], damping="auto"), caps, compensate,
        )
        for lp in plan.layers:
            assert lp.delta_spectral_norm <= caps[lp.layer]

    def test_closed_layer_records_no_compensation(self):
        p, _, calib = _tied_policy(np.random.default_rng(35))
        ranking = rank_weights(p, calib, [0, 3])
        _, plan = prune_to_budget(p, ranking, {0: 0.0, 3: np.inf}, calib)
        closed, wide_open = plan.layers
        assert (closed.mask.shape, closed.compensated) == ((0, 2), False)
        assert (len(wide_open.mask), wide_open.compensated) == (p.layers[3].weight.size, True)
        # a cap below the first removal's norm: that compensated removal is
        # tried and undone, so the layer keeps nothing and is not compensated
        _, plan = prune_to_budget(p, ranking, {3: 1e-300}, calib)
        (undone,) = plan.layers
        assert (undone.mask.shape, undone.compensated) == ((0, 2), False)
        assert undone.delta_spectral_norm == 0.0


def _exactly_within(bound, delta) -> bool:
    """Oracle: ``||delta||_2 <= bound`` in exact rational arithmetic, as
    ``bound^2 I - G`` positive semidefinite for the smaller Gram ``G``,
    by an LDL^T factorization with no negative pivot."""
    rows = [[Fraction(x) for x in r] for r in np.asarray(delta).tolist()]
    if len(rows) > len(rows[0]):
        rows = [list(c) for c in zip(*rows)]
    b2 = Fraction(bound) ** 2
    m = [
        [(b2 if i == j else 0) - sum(x * y for x, y in zip(ri, rj)) for j, rj in enumerate(rows)]
        for i, ri in enumerate(rows)
    ]
    for k in range(len(m)):
        pivot = m[k][k]
        if pivot < 0 or (pivot == 0 and any(m[k][j] for j in range(k + 1, len(m)))):
            return False
        for i in range(k + 1, len(m)):
            f = m[i][k] / pivot if pivot else 0
            for j in range(k + 1, len(m)):
                m[i][j] -= f * m[k][j]
    return True


class TestRowCouplingBound:
    """``_Anchor.bound``, the walk's one running bound, against exact
    arithmetic; the walk's decisions are only exact if it is sound."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(["row", "column", "square"]),
        size=st.integers(1, 6),
        # 1e-160: every square underflows; 1e160: every square overflows
        scale=st.sampled_from([1.0, 1e-160, 1e150, 1e160]),
        steps=st.lists(st.booleans(), min_size=1, max_size=6),
    )
    def test_bound_is_sound_after_every_change(self, seed, shape, size, scale, steps):
        rng = np.random.default_rng(seed)
        m, n = {"row": (1, size), "column": (size, 1), "square": (size, size)}[shape]
        original = rng.normal(size=(m, n)) * scale
        work = original.copy()
        # the anchor's delta: some weights zeroed, some rows rewritten
        hit = rng.random((m, n)) < 0.5
        redrawn = rng.normal(size=int(hit.sum())) * scale
        work[hit] = np.where(rng.random(redrawn.shape) < 0.5, 0.0, redrawn)
        delta0 = work - original
        anchor = _Anchor(spectral_norm(delta0) if delta0.any() else 0.0, m)
        for compensated in steps:
            row = int(rng.integers(m))
            anchor.keep(row, work[row].copy(), original)
            if compensated:
                work[row] = rng.normal(size=n) * scale
                work[row, rng.integers(n)] = 0.0
            else:
                work[row, rng.integers(n)] = 0.0
            with np.errstate(over="ignore", invalid="ignore"):  # as the walk runs it
                bound = anchor.bound(work, original)
            # inf or NaN is never taken as a bound: the walk takes the exact norm
            if math.isfinite(bound):
                assert _exactly_within(bound, work - original), (bound, work - original)
            if scale == 1.0:
                assert math.isfinite(bound)

    def test_zero_only_changes_grow_the_bound_slowly(self):
        # zeroing weights the anchor's delta leaves alone couples only through
        # the row norms: far below Weyl's s + sum |w_q| after many removals
        rng = np.random.default_rng(40)
        original = rng.normal(size=(32, 32))
        work = original.copy()
        work[:, :16] = 0.0
        delta0 = work - original
        s = spectral_norm(delta0)
        anchor = _Anchor(s, 32)
        weyl = s
        for row in range(32):
            anchor.keep(row, work[row].copy(), original)
            weyl += abs(work[row, 16])
            work[row, 16] = 0.0
        truth = spectral_norm(work - original)
        assert truth <= anchor.bound(work, original) < s + 0.5 * (weyl - s)


class TestPinnedNormCount:
    """The row-coupling bound's saving on a capped width-64 walk, pinned."""

    # the exact norms this walk takes, for 1,051 and 727 removals; with Weyl's
    # bound alone the zero-only walk took 191
    @pytest.mark.parametrize("compensate, pinned", [(False, 48), (True, 61)])
    def test_capped_relu_walk_norm_count(self, monkeypatch, compensate, pinned):
        rng = np.random.default_rng(20)
        dims = [8, 64, 64, 2]
        relu = ActivationKind("relu")
        p = MlpPolicy(layers=tuple(
            Layer(rng.normal(0.0, d**-0.5, (e, d)), rng.normal(0.0, 0.1, e), relu)
            for d, e in zip(dims, dims[1:])
        ))
        states = list(rng.uniform(-1.0, 1.0, (64, 8)))
        calib = collect_calibration(p, states, damping="auto")
        ranking = rank_weights(p, calib, [0, 1, 2])
        caps = {k: 0.3 * spectral_norm(p.layers[k].weight) for k in range(3)}
        calls = []

        def counted(m):
            calls.append(np.shape(m))
            return spectral_norm(m)

        monkeypatch.setattr(linalg, "spectral_norm", counted)
        _, plan = prune_to_budget(p, ranking, caps, calib if compensate else None)
        monkeypatch.undo()
        # every layer closes at a refused removal, which was tried too
        sizes = [int((ranking.layer == lp.layer).sum()) for lp in plan.layers]
        assert all(len(lp.mask) < size for lp, size in zip(plan.layers, sizes))
        tried = sum(len(lp.mask) + 1 for lp in plan.layers)
        assert len(calls) == pinned <= tried // 2
        _budget_matches_reference(
            p, states, calib, ranking, reference_ranking(p, states, [0, 1, 2], damping="auto"),
            caps, compensate,
        )


class TestOutOfRangeBound:
    """The walk's running bound where squares leave the float range: every
    decision it cannot make goes through the exact norm, as the reference's do."""

    @pytest.mark.parametrize("compensate", [False, True])
    # 1e160: a row's squared change overflows and the bound is inf;
    # 1e-160: every square underflows
    @pytest.mark.parametrize("scale", [1e160, 1e-160])
    def test_scaled_output_layer_matches_reference(self, monkeypatch, scale, compensate):
        rng = np.random.default_rng(36)
        dims = [4, 6, 5, 3]
        relu = ActivationKind("relu")
        weights = [rng.normal(0.0, d**-0.5, (e, d)) for d, e in zip(dims, dims[1:])]
        # the output layer feeds no calibration input; at 1e160 every score
        # overflows, so its entries are ranked by position
        weights[-1] *= scale
        p = MlpPolicy(layers=tuple(
            Layer(w, rng.normal(0.0, 0.1, w.shape[0]), relu) for w in weights
        ))
        states = rng.uniform(-1.0, 1.0, (16, 4))
        calib = collect_calibration(p, states, damping="auto")
        ranking = rank_weights(p, calib, [0, 1, 2])
        caps = {k: 0.3 * spectral_norm(p.layers[k].weight) for k in range(3)}
        calls = []

        def counted(m):
            calls.append(np.shape(m))
            return spectral_norm(m)

        monkeypatch.setattr(linalg, "spectral_norm", counted)
        _, plan = prune_to_budget(p, ranking, caps, calib if compensate else None)
        monkeypatch.undo()
        out = plan.layers[2]
        assert 0 < len(out.mask) < int((ranking.layer == 2).sum())
        if scale > 1.0:
            # an inf bound clears no cap: each tried removal, the refused one
            # included, takes an exact norm, and the plan takes its own
            assert calls.count(weights[-1].shape) == len(out.mask) + 2
        with np.errstate(over="ignore"):  # the reference's scores overflow to inf too
            reference = reference_ranking(p, states, [0, 1, 2], damping="auto")
        _budget_matches_reference(p, states, calib, ranking, reference, caps, compensate)
