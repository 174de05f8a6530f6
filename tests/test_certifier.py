import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import _ck_oracle, naive_forward, random_policy, scaled_certificate, scaled_norm
from prunecert import linalg
from prunecert.certifier import (
    AUDIT_SLACK,
    StateSpaceSpec,
    admissible_magnitude,
    audit_states,
    certify,
    per_state_bounds,
    sample_states,
)
from prunecert.linalg import _norm_allowance
from prunecert.policy import ActivationKind, Layer, MlpPolicy, forward
from prunecert.pruner import PrunePlan, apply_plan, collect_calibration, rank_weights


def _constant(p, k, s) -> float:
    """The layer-k constant C_k(s) as the pipeline evaluates it:
    ``per_state_bounds`` with a unit delta norm on layer k alone, which is
    ``0 + 1 * C_k(s)``, so C_k(s) bit for bit."""
    return float(per_state_bounds(p, ((k, 1.0),), [float(np.linalg.norm(s))])[0])


def _perturbed(p, deltas):
    """``p`` with ``deltas[k]`` added to layer k's weights."""
    return MlpPolicy(
        layers=tuple(
            replace(layer, weight=layer.weight + deltas[k]) if k in deltas else layer
            for k, layer in enumerate(p.layers)
        )
    )


def _c_max(p, k, space) -> float:
    """Worst case of C_k over ``space``: the c_max of the one row that
    ``certify`` reports for a pair perturbing layer k alone."""
    delta = np.zeros(p.layers[k].weight.shape)
    delta[0, -1] = 0.25
    (row,) = certify(p, _perturbed(p, {k: delta}), space, n=1, seed=0).rows
    return row.c_max


def _norm_excess(shape, rank: float) -> float:
    """Largest relative excess of ``spectral_norm`` over the exact norm that
    its documented allowance permits, for ``||A||_F^2 / sigma^2 = rank``."""
    eps = np.finfo(float).eps
    return math.sqrt(1.0 + 2.0 * _norm_allowance(shape) * rank) * (1.0 + 8.0 * eps) - 1.0


def _diag_policy(scales, biases=None, kind="identity"):
    """Stack of scaled-identity 2x2 layers with known spectral norms."""
    layers = []
    for i, s in enumerate(scales):
        b = np.zeros(2) if biases is None else np.asarray(biases[i], dtype=float)
        layers.append(
            Layer(weight=s * np.eye(2), bias=b, activation=ActivationKind(kind))
        )
    return MlpPolicy(layers=tuple(layers))


def _three_layer_fixture():
    # norms (2, 7, 3); bias of layer 0 has norm 1, others zero
    return _diag_policy([2.0, 7.0, 3.0], biases=[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])


class TestStateSpaceSpec:
    def test_box_must_fit_in_ball(self):
        with pytest.raises(ValueError, match="ball"):
            StateSpaceSpec(dim=2, radius=1.0, box=(np.array([-1.0, -1.0]), np.array([1.0, 1.0])))

    def test_box_inside_ball_accepted(self):
        space = StateSpaceSpec(
            dim=2, radius=math.sqrt(2.0), box=(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        )
        assert space.box is not None

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            StateSpaceSpec(dim=1, radius=-1.0)

    def test_from_states_takes_max_norm(self):
        space = StateSpaceSpec.from_states([np.array([3.0, 4.0]), np.array([1.0, 0.0])])
        assert space.radius == 5.0
        assert space.source == "states"

    def test_from_states_tiny_norm(self):
        assert StateSpaceSpec.from_states([(3e-170, 4e-170)]).radius == 5e-170

    def test_huge_box_inside_ball_accepted(self):
        box = (np.full(2, -1e200), np.full(2, 1e200))
        assert StateSpaceSpec(dim=2, radius=2e200, box=box).box is not None

    def test_tiny_box_must_fit_in_ball(self):
        # the corner lies 10x outside the ball; an absolute 1e-12 slack hid it
        box = (np.zeros(2), np.full(2, 1e-12 / math.sqrt(2.0)))
        with pytest.raises(ValueError, match="ball"):
            StateSpaceSpec(dim=2, radius=1e-13, box=box)

    def test_box_on_the_sphere_accepted_at_every_scale(self):
        for radius in (1e-300, 1e-13, 1.0, 1e13, 1e300):
            corner = np.full(2, radius / math.sqrt(2.0))
            box = (-corner, corner)
            assert StateSpaceSpec(dim=2, radius=radius, box=box).box is not None



class TestBoundConstantState:
    """The per-state constant C_k(s), through ``per_state_bounds``."""

    def test_one_layer_is_state_norm(self):
        p = _diag_policy([4.0])  # single layer; its own norm must not appear
        assert _constant(p, 0, [3.0, 4.0]) == pytest.approx(5.0, abs=1e-12)

    def test_three_layer_mixed_norms_instance(self):
        p = _three_layer_fixture()
        got = _constant(p, 1, [1.0, 0.0])
        expected = _ck_oracle([2.0, 7.0, 3.0], [1.0, 0.0, 0.0], k1=2, snorm=1.0)
        assert expected == pytest.approx(9.0, abs=1e-12)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_zero_biases_collapse_to_product(self):
        rng = np.random.default_rng(0)
        p = random_policy(rng, depth=4, max_width=6, bias_scale=0.0)
        s = rng.normal(size=p.input_dim)
        for k in range(p.num_layers):
            prod = math.prod(
                n for m, n in enumerate(p.weight_spectral_norms) if m != k
            )
            assert _constant(p, k, s) == pytest.approx(
                float(np.linalg.norm(s)) * prod, rel=1e-12
            )

    def test_matches_oracle_on_random_policies(self):
        # bit for bit, through per_state_bounds and through certify's rows
        rng = np.random.default_rng(1)
        delta_rng = np.random.default_rng(101)
        for _ in range(20):
            p = random_policy(rng, depth=int(rng.integers(1, 5)), max_width=8)
            s = rng.normal(size=p.input_dim)
            k = int(rng.integers(p.num_layers))
            wnorms, bnorms = list(p.weight_spectral_norms), list(p.bias_norms)
            snorm = float(np.linalg.norm(s))
            assert _constant(p, k, s) == _ck_oracle(wnorms, bnorms, k1=k + 1, snorm=snorm)
            deltas = {
                m: delta_rng.normal(scale=0.05, size=layer.weight.shape)
                for m, layer in enumerate(p.layers)
            }
            space = StateSpaceSpec(dim=p.input_dim, radius=snorm)
            cert = certify(p, _perturbed(p, deltas), space, n=8, seed=0)
            assert [row.layer for row in cert.rows] == list(range(p.num_layers))
            acc = 0.0
            for row in cert.rows:
                assert row.c_max == _ck_oracle(wnorms, bnorms, k1=row.layer + 1, snorm=snorm)
                assert row.contribution == row.c_max * row.delta_spectral
                acc = acc + row.contribution
            assert cert.budget == acc

    def test_monotone_in_state_norm(self):
        p = _three_layer_fixture()
        values = per_state_bounds(p, ((1, 1.0),), [0.0, 0.5, 1.0, 2.0, 10.0]).tolist()
        assert values == sorted(values)

    def test_first_layer_has_empty_bias_sum(self):
        # biases of layer 0 and above never feed the k=0 constant
        p = _three_layer_fixture()
        got = _constant(p, 0, [1.0, 0.0])
        assert got == pytest.approx(7.0 * 3.0, rel=1e-12)

    def test_layer_index_validated(self):
        p = _diag_policy([1.0])
        with pytest.raises(ValueError):
            per_state_bounds(p, ((1, 1.0),), [1.0])


class TestBoundConstantMax:
    """The worst-case constant on the certified ball, as certify's c_max."""

    def test_zero_radius_keeps_only_bias_terms(self):
        p = _three_layer_fixture()
        space = StateSpaceSpec(dim=2, radius=0.0)
        # only the bias carry-over survives: ||b_0|| * ||W_2|| = 3
        assert _c_max(p, 1, space) == pytest.approx(3.0, rel=1e-12)

    def test_one_layer_radius_five(self):
        p = _diag_policy([4.0])
        assert _c_max(p, 0, StateSpaceSpec(dim=2, radius=5.0)) == pytest.approx(5.0)

    def test_three_layer_radius_one(self):
        p = _three_layer_fixture()
        space = StateSpaceSpec(dim=2, radius=1.0)
        assert _c_max(p, 1, space) == pytest.approx(9.0, rel=1e-12)

    def test_equals_state_constant_on_sphere(self):
        p = _three_layer_fixture()
        space = StateSpaceSpec(dim=2, radius=2.5)
        assert _c_max(p, 1, space) == _constant(p, 1, [2.5, 0.0])


def _equality_fixture():
    """One relu layer, W=[[1]], pruned to [[0.5]]; at s=2 the bound is tight."""
    original = MlpPolicy(
        layers=(Layer(weight=[[1.0]], bias=[0.0], activation=ActivationKind("relu")),)
    )
    pruned = MlpPolicy(
        layers=(Layer(weight=[[0.5]], bias=[0.0], activation=ActivationKind("relu")),)
    )
    plan = PrunePlan.from_policies(original, pruned)
    return original, pruned, plan


class TestSingleLayerBound:
    """One perturbed layer's bound at one state, through ``per_state_bounds``."""

    def test_zero_delta(self):
        p = _diag_policy([2.0])
        assert per_state_bounds(p, ((0, 0.0),), [math.sqrt(2.0)])[0] == 0.0

    def test_equality_instance(self):
        original, pruned, plan = _equality_fixture()
        bound = per_state_bounds(original, plan.delta_norms(), [2.0])[0]
        actual = float(
            np.linalg.norm(forward(original, [2.0]) - forward(pruned, [2.0]))
        )
        # the bound is at least the exact 1.0 and above it by the norm's
        # outward rounding only
        assert 1.0 <= bound <= 1.0 + _norm_excess((1, 1), 1.0)
        assert actual == pytest.approx(1.0, abs=1e-15)

    def test_linear_in_delta_norm(self):
        p = _three_layer_fixture()
        snorm = [math.sqrt(2.0)]
        assert per_state_bounds(p, ((2, 0.4),), snorm)[0] == 2.0 * per_state_bounds(
            p, ((2, 0.2),), snorm
        )[0]


class TestMultiLayerBudget:
    """The budget ``certify`` computes for an (original, pruned) pair."""

    def test_empty_plan_zero_budget(self):
        p = _three_layer_fixture()
        cert = certify(p, p, StateSpaceSpec(dim=2, radius=1.0), n=16, seed=0)
        assert cert.budget == 0.0
        assert cert.rows == ()

    def test_singleton_reduces_to_per_state_bound(self):
        p = _three_layer_fixture()
        pruned = _perturbed(p, {1: np.array([[0.0, 0.25], [0.0, 0.0]])})
        cert = certify(p, pruned, StateSpaceSpec(dim=2, radius=3.0), n=16, seed=0)
        assert cert.budget == per_state_bounds(p, cert.delta_norms(), [3.0])[0]

    def test_two_layer_weighted_sum(self):
        p = _three_layer_fixture()
        pruned = _perturbed(
            p,
            {
                0: np.array([[0.0, 0.1], [0.0, 0.0]]),
                1: np.array([[0.0, 0.2], [0.0, 0.0]]),
            },
        )
        cert = certify(p, pruned, StateSpaceSpec(dim=2, radius=1.0), n=16, seed=0)
        c0 = _ck_oracle([2.0, 7.0, 3.0], [1.0, 0.0, 0.0], 1, 1.0)
        c1 = _ck_oracle([2.0, 7.0, 3.0], [1.0, 0.0, 0.0], 2, 1.0)
        assert cert.budget == pytest.approx(0.1 * c0 + 0.2 * c1, rel=1e-12)

    def test_contributions_re_add_to_budget_exactly(self):
        rng = np.random.default_rng(2)
        p = random_policy(rng, depth=4, max_width=8)
        deltas = {
            k: rng.normal(scale=0.05, size=p.layers[k].weight.shape) for k in (0, 2, 3)
        }
        cert = certify(
            p, _perturbed(p, deltas), StateSpaceSpec(dim=p.input_dim, radius=2.0), n=16, seed=0
        )
        acc = 0.0
        for row in cert.rows:
            assert row.contribution == row.c_max * row.delta_spectral
            acc = acc + row.contribution
        assert acc == cert.budget  # bitwise: same summation order

    def test_budget_homogeneous_under_power_of_two_scaling(self):
        rng = np.random.default_rng(3)
        p = random_policy(rng, depth=3, max_width=6)
        deltas = {k: rng.normal(scale=0.1, size=p.layers[k].weight.shape) for k in range(3)}
        radius = 1.5
        cert = certify(
            p, _perturbed(p, deltas), StateSpaceSpec(dim=p.input_dim, radius=radius), n=16, seed=0
        )
        # the boundary bound is the budget bit for bit (TestPerStateBounds)
        for factor in (2.0, 0.5):
            scaled = scaled_certificate(cert, factor).delta_norms()
            assert per_state_bounds(p, scaled, [radius])[0] == factor * cert.budget

    def test_budget_homogeneous_generic_scale(self):
        rng = np.random.default_rng(4)
        p = random_policy(rng, depth=2, max_width=6)
        deltas = {k: rng.normal(scale=0.1, size=p.layers[k].weight.shape) for k in range(2)}
        radius = 1.0
        cert = certify(
            p, _perturbed(p, deltas), StateSpaceSpec(dim=p.input_dim, radius=radius), n=16, seed=0
        )
        scaled = scaled_certificate(cert, 3.7).delta_norms()
        assert per_state_bounds(p, scaled, [radius])[0] == pytest.approx(
            3.7 * cert.budget, rel=1e-12
        )


class TestPerStateBounds:
    def test_matches_constant_route(self):
        rng = np.random.default_rng(5)
        p = random_policy(rng, depth=3, max_width=8)
        dn = tuple((k, float(rng.uniform(0.01, 0.3))) for k in range(3))
        states = [rng.normal(size=p.input_dim) for _ in range(20)]
        snorms = np.array([float(np.linalg.norm(s)) for s in states])
        got = per_state_bounds(p, dn, snorms)
        for i, s in enumerate(states):
            direct = sum(
                d * _ck_oracle(p.weight_spectral_norms, p.bias_norms, k + 1, snorms[i])
                for k, d in dn
            )
            assert got[i] == pytest.approx(direct, rel=1e-12)

    def test_boundary_state_reproduces_budget_bitwise(self):
        rng = np.random.default_rng(6)
        p = random_policy(rng, depth=3, max_width=8)
        deltas = {k: rng.normal(scale=0.1, size=p.layers[k].weight.shape) for k in range(3)}
        radius = 4.0
        cert = certify(
            p, _perturbed(p, deltas), StateSpaceSpec(dim=p.input_dim, radius=radius), n=16, seed=0
        )
        at_boundary = per_state_bounds(p, cert.delta_norms(), np.array([radius]))
        assert at_boundary[0] == cert.budget

    def test_dominated_by_budget_inside_ball(self):
        rng = np.random.default_rng(7)
        p = random_policy(rng, depth=3, max_width=8)
        deltas = {k: rng.normal(scale=0.1, size=p.layers[k].weight.shape) for k in range(3)}
        radius = 2.0
        cert = certify(
            p, _perturbed(p, deltas), StateSpaceSpec(dim=p.input_dim, radius=radius), n=16, seed=0
        )
        snorms = rng.uniform(0.0, radius, size=200)
        assert (per_state_bounds(p, cert.delta_norms(), snorms) <= cert.budget).all()


class TestAdmissibleMagnitude:
    def test_zero_budget_zero_caps(self):
        p = _three_layer_fixture()
        caps = admissible_magnitude(p, [0, 1], 0.0, StateSpaceSpec(dim=2, radius=1.0))
        assert caps == {0: 0.0, 1: 0.0}

    def test_single_layer_cap(self):
        p = _three_layer_fixture()
        space = StateSpaceSpec(dim=2, radius=1.0)
        assert _c_max(p, 1, space) == pytest.approx(9.0)
        caps = admissible_magnitude(p, [1], 0.9, space)
        assert caps[1] == pytest.approx(0.1, rel=1e-12)

    def test_uniform_round_trip_exact(self):
        # c_max = (2, 4) with radius 1 and zero biases
        p = _diag_policy([4.0, 2.0])
        space = StateSpaceSpec(dim=2, radius=1.0)
        caps = admissible_magnitude(p, [0, 1], 2.0, space)
        # c_max is a norm-derived upper bound, so each cap is at most the
        # exact one and below it by the norm's outward rounding only
        c_excess = _norm_excess((2, 2), 2.0)
        for k, exact in ((0, 0.5), (1, 0.25)):
            assert exact / ((1.0 + c_excess) * (1.0 + 2.0 * np.finfo(float).eps)) <= caps[k]
            assert caps[k] <= exact
        # off the diagonal, where the weights are zero, so each delta is exact
        deltas = {k: np.array([[0.0, caps[k]], [0.0, 0.0]]) for k in caps}
        cert = certify(p, _perturbed(p, deltas), space, n=16, seed=0)
        # re-certifying takes the outward-rounded delta norms, so the budget
        # is at least epsilon and above it by that rounding only
        d_excess = _norm_excess((2, 2), 1.0)
        assert 2.0 <= cert.budget <= 2.0 * (1.0 + d_excess) * (1.0 + 4.0 * np.finfo(float).eps)

    def test_proportional_allocation(self):
        p = _diag_policy([4.0, 2.0])
        space = StateSpaceSpec(dim=2, radius=1.0)
        caps = admissible_magnitude(p, [0, 1], 3.0, space, weights=[2.0, 1.0])
        # contributions 2 and 1; c_max are 2 and 4
        assert caps[0] == pytest.approx(1.0, rel=1e-12)
        assert caps[1] == pytest.approx(0.25, rel=1e-12)

    def test_zero_constant_gives_infinite_cap(self):
        # radius 0 and no biases: c_max = 0 for every layer
        p = _diag_policy([1.0, 1.0])
        caps = admissible_magnitude(p, [0], 1.0, StateSpaceSpec(dim=2, radius=0.0))
        assert math.isinf(caps[0])

    def test_negative_budget_rejected(self):
        p = _diag_policy([1.0])
        with pytest.raises(ValueError):
            admissible_magnitude(p, [0], -0.1, StateSpaceSpec(dim=2, radius=1.0))

    def test_nan_budget_rejected(self):
        # a NaN cap never compares above a delta norm, so it would cap nothing
        p = _diag_policy([1.0])
        with pytest.raises(ValueError, match="nonnegative"):
            admissible_magnitude(p, [0], math.nan, StateSpaceSpec(dim=2, radius=1.0))

    @pytest.mark.parametrize(
        "weights",
        [[math.nan, 1.0], [math.inf, 1.0], [-1.0, 2.0], [0.0, 0.0], [1e308, 1e308], [1.0]],
    )
    def test_bad_allocation_weights_rejected(self, weights):
        p = _diag_policy([4.0, 2.0])
        with pytest.raises(ValueError, match="weight"):
            admissible_magnitude(p, [0, 1], 1.0, StateSpaceSpec(dim=2, radius=1.0), weights)

    def test_allocation_weights_pair_with_the_listed_layers(self):
        p = _diag_policy([4.0, 2.0])
        space = StateSpaceSpec(dim=2, radius=1.0)
        ascending = admissible_magnitude(p, [0, 1], 2.0, space, weights=[3.0, 1.0])
        assert admissible_magnitude(p, [1, 0], 2.0, space, weights=[1.0, 3.0]) == ascending
        # layer 0 takes three quarters of the budget, layer 1 one quarter
        assert ascending == admissible_magnitude(p, [0], 1.5, space) | admissible_magnitude(
            p, [1], 0.5, space
        )

    @pytest.mark.parametrize("layers, weights", [([0, 0], [1.0]), ([0, 1, 0], [1.0, 1.0])])
    def test_repeated_layer_with_allocation_weights_rejected(self, layers, weights):
        p = _diag_policy([4.0, 2.0])
        with pytest.raises(ValueError, match="once"):
            admissible_magnitude(p, layers, 1.0, StateSpaceSpec(dim=2, radius=1.0), weights)

    def test_repeated_layer_without_weights_counts_once(self):
        p = _diag_policy([4.0, 2.0])
        space = StateSpaceSpec(dim=2, radius=1.0)
        assert admissible_magnitude(p, [1, 0, 1], 2.0, space) == admissible_magnitude(
            p, [0, 1], 2.0, space
        )

    def test_infinite_budget_caps_only_weighted_layers(self):
        p = _diag_policy([4.0, 2.0])
        space = StateSpaceSpec(dim=2, radius=1.0)
        assert admissible_magnitude(p, [0, 1], math.inf, space) == {0: math.inf, 1: math.inf}
        caps = admissible_magnitude(p, [0, 1], math.inf, space, weights=[0.0, 1.0])
        assert caps == {0: 0.0, 1: math.inf}


class TestSampleStates:
    def test_ball_samples_stay_inside(self):
        space = StateSpaceSpec(dim=3, radius=2.0)
        rng = np.random.default_rng(8)
        states = sample_states(space, 5000, rng)
        assert states.shape == (5000, 3)
        assert (np.linalg.norm(states, axis=1) <= 2.0).all()

    def test_huge_radius_samples_stay_inside(self):
        # the squared state norms overflow
        radius = 1e200
        states = sample_states(StateSpaceSpec(dim=3, radius=radius), 500, np.random.default_rng(8))
        norms = [math.hypot(*s) for s in states]
        assert max(norms) <= radius * (1.0 + 4.0 * np.finfo(float).eps)
        assert min(norms) > radius / 100.0

    def test_box_samples_respect_bounds(self):
        space = StateSpaceSpec(
            dim=2, radius=2.0, box=(np.array([-1.0, 0.0]), np.array([1.0, 1.0]))
        )
        rng = np.random.default_rng(9)
        states = sample_states(space, 1000, rng)
        assert (states[:, 0] >= -1.0).all() and (states[:, 0] <= 1.0).all()
        assert (states[:, 1] >= 0.0).all() and (states[:, 1] <= 1.0).all()

    def test_degenerate_box_pins_the_state(self):
        space = StateSpaceSpec(dim=1, radius=2.0, box=(np.array([2.0]), np.array([2.0])))
        rng = np.random.default_rng(10)
        states = sample_states(space, 10, rng)
        np.testing.assert_array_equal(states, np.full((10, 1), 2.0))

    def test_deterministic_given_seed(self):
        space = StateSpaceSpec(dim=4, radius=1.0)
        a = sample_states(space, 100, np.random.default_rng(11))
        b = sample_states(space, 100, np.random.default_rng(11))
        np.testing.assert_array_equal(a, b)

    def test_broken_sampler_is_an_internal_error(self):
        class _BadRng:
            def uniform(self, lo, hi, size):
                return np.full(size, 100.0)  # far outside the ball

        space = StateSpaceSpec(dim=2, radius=1.5, box=(np.zeros(2), np.ones(2)))
        with pytest.raises(RuntimeError, match="sampler"):
            sample_states(space, 4, _BadRng())

    def test_tiny_overshoot_is_an_internal_error(self):
        # 10x outside a ball of radius 1e-13: an absolute 1e-9 slack let the
        # sampler move every such draw onto the sphere without a word
        class _BadRng:
            def uniform(self, lo, hi, size):
                return np.full(size, 1e-12)

        space = StateSpaceSpec(dim=2, radius=1e-13, box=(np.zeros(2), np.full(2, 1e-14)))
        with pytest.raises(RuntimeError, match="sampler"):
            sample_states(space, 4, _BadRng())

    @pytest.mark.parametrize(
        "radius, draws",
        [
            # each draw overshoots its radius by less than 1e-10 relative, and
            # one rescale by radius / norm leaves it an ulp outside the ball
            (1e-13, [[-8.970870186340597e-14, -4.4185391364205066e-14],
                     [-9.792047607979836e-14, -2.0287443520392775e-14]]),
            (3.0, [[2.963355436839578, 0.46746610107033154],
                   [-1.6436649219019273, 2.50965448319576]]),
        ],
    )
    def test_rescaled_draws_land_inside_the_ball(self, radius, draws):
        class _OvershootRng:
            def uniform(self, lo, hi, size):
                return np.array(draws)

        draws_norm = linalg.vector_norm(np.array(draws), axis=1)
        assert ((draws_norm > radius) & (draws_norm < radius * (1.0 + 1e-10))).all()
        space = StateSpaceSpec(dim=2, radius=radius, box=(np.zeros(2), np.full(2, radius / 2)))
        states = sample_states(space, len(draws), _OvershootRng())
        assert (linalg.vector_norm(states, axis=1) <= radius).all()
        assert all(linalg.vector_norm(s) <= radius for s in states)
        # pulled back onto the sphere, not into the ball's interior
        np.testing.assert_allclose(linalg.vector_norm(states, axis=1), radius, rtol=1e-15)


class TestAuditBound:
    """The audit half of ``certify``."""

    def test_identical_policies(self):
        p = _three_layer_fixture()
        cert = certify(p, p, StateSpaceSpec(dim=2, radius=1.0), n=100, seed=0)
        assert cert.audit.max_dev == 0.0
        assert cert.audit.violations == 0
        assert cert.holds
        assert cert.audit.tightness == 0.0

    def test_equality_fixture_tightness_one(self):
        original, pruned, _ = _equality_fixture()
        space = StateSpaceSpec(dim=1, radius=2.0, box=(np.array([2.0]), np.array([2.0])))
        cert = certify(original, pruned, space, n=64, seed=1)
        assert cert.audit.tightness == pytest.approx(1.0, rel=1e-12)
        assert cert.audit.violations == 0
        assert cert.holds

    def test_no_violations_on_randomly_pruned_policies(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            p = random_policy(rng, depth=int(rng.integers(1, 5)), max_width=12)
            states = [rng.normal(size=p.input_dim) for _ in range(16)]
            calib = collect_calibration(p, states)
            k = int(rng.integers(p.num_layers))
            entries = rank_weights(p, calib, [k], damping="auto")
            pruned, _ = apply_plan(p, entries, len(entries) // 2)
            space = StateSpaceSpec(dim=p.input_dim, radius=5.0)
            cert = certify(p, pruned, space, n=2000, seed=13)
            assert cert.audit.violations == 0
            assert cert.holds

    def test_multi_layer_no_violations(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            p = random_policy(rng, depth=4, max_width=10)
            states = [rng.normal(size=p.input_dim) for _ in range(16)]
            calib = collect_calibration(p, states)
            entries = rank_weights(p, calib, [0, 2], damping="auto")
            pruned, _ = apply_plan(p, entries, len(entries) // 2)
            cert = certify(
                p, pruned, StateSpaceSpec(dim=p.input_dim, radius=3.0), n=2000, seed=15
            )
            assert cert.audit.violations == 0

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_nan_deviations_are_violations(self):
        # on the box [1, 2]^2 both outputs overflow to inf, so every deviation
        # is inf - inf = NaN: no state is within its bound, and the count and
        # the verdict agree on that
        identity = ActivationKind("identity")
        original, pruned = (
            MlpPolicy(layers=(Layer(weight=[[1e308, w]], bias=[0.0], activation=identity),))
            for w in (1e308, math.nextafter(1e308, 0.0))
        )
        box = (np.array([1.0, 1.0]), np.array([2.0, 2.0]))
        cert = certify(original, pruned, StateSpaceSpec(dim=2, radius=3.0, box=box), n=1000, seed=0)
        assert math.isnan(cert.audit.max_dev)
        assert cert.audit.violations == 1000
        assert not cert.holds

    def test_requires_positive_samples(self):
        p = _three_layer_fixture()
        with pytest.raises(ValueError):
            certify(p, p, StateSpaceSpec(dim=2, radius=1.0), n=0, seed=0)

    def test_rejects_a_pair_that_differs_beyond_weights(self):
        p = _three_layer_fixture()
        rebiased = MlpPolicy(layers=(replace(p.layers[0], bias=[0.5, 0.0]), *p.layers[1:]))
        with pytest.raises(ValueError, match="biases differ"):
            certify(p, rebiased, StateSpaceSpec(dim=2, radius=1.0), n=10, seed=0)
        with pytest.raises(ValueError, match="layers"):
            certify(p, _diag_policy([2.0, 7.0]), StateSpaceSpec(dim=2, radius=1.0), n=10, seed=0)

    def test_rejects_a_space_of_another_dimension(self):
        p = _three_layer_fixture()
        with pytest.raises(ValueError, match="state space dim"):
            certify(p, p, StateSpaceSpec(dim=3, radius=1.0), n=10, seed=0)


class TestAuditStates:
    """The one per-state audit, against the loop-based oracles."""

    @staticmethod
    def _pair(rng, homogeneous=False):
        """A random policy and a copy with one layer perturbed (the bound is
        sound for one layer whatever the change does to its norm)."""
        p = random_policy(rng, max_width=12, bias_scale=0.0 if homogeneous else 0.1)
        if homogeneous:
            # zero biases and positively homogeneous activations: the outputs
            # scale with the state, so 1e-200 states keep their digits
            p = MlpPolicy(layers=tuple(
                replace(layer, activation=ActivationKind("leaky_relu", 0.3))
                if layer.activation.kind == "elu" else layer
                for layer in p.layers
            ))
        k = int(rng.integers(p.num_layers))
        delta = rng.normal(0.0, 0.3, size=p.layers[k].weight.shape)
        return p, _perturbed(p, {k: delta})

    def _check_against_oracles(self, original, pruned, states):
        dn = PrunePlan.from_policies(original, pruned).delta_norms()
        audit = audit_states(original, pruned, dn, states)
        wnorms, bnorms = original.weight_spectral_norms, original.bias_norms
        for i, s in enumerate(states.T):
            out_o, out_p = naive_forward(original, s), naive_forward(pruned, s)
            scale = max(scaled_norm(out_o), scaled_norm(out_p), 1e-300)
            np.testing.assert_allclose(audit.original[:, i], out_o, rtol=0, atol=1e-12 * scale)
            np.testing.assert_allclose(audit.pruned[:, i], out_p, rtol=0, atol=1e-12 * scale)
            assert abs(audit.deviation[i] - scaled_norm(out_o - out_p)) <= 1e-12 * scale
            snorm = scaled_norm(s)
            assert audit.norm[i] == pytest.approx(snorm, rel=1e-15)
            bound = 0.0
            for k, d in dn:
                bound += d * _ck_oracle(wnorms, bnorms, k + 1, snorm)
            assert audit.bound[i] == pytest.approx(bound, rel=1e-14)
        assert not audit.violation.any()
        return audit

    def test_matches_oracles_on_random_policies(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            original, pruned = self._pair(rng)
            # states well inside, on and far outside a unit ball
            states = rng.normal(size=(original.input_dim, 12)) * rng.choice(
                [0.01, 1.0, 30.0], size=12
            )
            audit = self._check_against_oracles(original, pruned, states)
            assert audit.original.shape == (original.output_dim, 12)
            assert audit.deviation.shape == audit.bound.shape == audit.norm.shape == (12,)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_matches_oracles_at_extreme_scale(self, scale):
        rng = np.random.default_rng(32)
        for _ in range(10):
            original, pruned = self._pair(rng, homogeneous=True)
            states = rng.normal(size=(original.input_dim, 6)) * scale
            audit = self._check_against_oracles(original, pruned, states)
            assert np.isfinite(audit.deviation).all() and (audit.norm > 0).all()

    def test_flags_exactly_the_states_beyond_bound_plus_slack(self):
        # identity x -> x against x -> 2x: the deviation at s is |s| exactly,
        # and a zero delta norm makes every bound 0, so a state is flagged
        # exactly when |s| > AUDIT_SLACK
        identity = ActivationKind("identity")
        p, q = (
            MlpPolicy(layers=(Layer(weight=[[w]], bias=[0.0], activation=identity),))
            for w in (1.0, 2.0)
        )
        above = math.nextafter(AUDIT_SLACK, math.inf)
        below = math.nextafter(AUDIT_SLACK, 0.0)
        states = np.array([[0.0, below, AUDIT_SLACK, above, -above, 1.0]])
        audit = audit_states(p, q, ((0, 0.0),), states)
        np.testing.assert_array_equal(audit.deviation, np.abs(states[0]))
        np.testing.assert_array_equal(audit.bound, np.zeros(6))
        assert audit.violation.tolist() == [False, False, False, True, True, True]
        # a unit delta norm bounds every state: nothing is flagged
        assert not audit_states(p, q, ((0, 1.0),), states).violation.any()

    def test_flags_match_the_oracle_rule_on_understated_deltas(self):
        rng = np.random.default_rng(33)
        flagged = 0
        for _ in range(10):
            original, pruned = self._pair(rng)
            # a third of the true delta norm: many states break their bound
            dn = tuple(
                (k, d / 3.0) for k, d in PrunePlan.from_policies(original, pruned).delta_norms()
            )
            states = rng.normal(size=(original.input_dim, 30))
            audit = audit_states(original, pruned, dn, states)
            wnorms, bnorms = original.weight_spectral_norms, original.bias_norms
            for i, s in enumerate(states.T):
                dev = scaled_norm(naive_forward(original, s) - naive_forward(pruned, s))
                bound = 0.0
                for k, d in dn:
                    bound += d * _ck_oracle(wnorms, bnorms, k + 1, scaled_norm(s))
                assert audit.violation[i] == (not dev <= bound + AUDIT_SLACK)
            flagged += int(audit.violation.sum())
        assert flagged > 0

    def test_norms_follow_the_callers_layout(self):
        # 8 dimensions: numpy sums a contiguous axis pairwise, a strided one
        # in order, and the audit keeps each caller's layout at every scale
        rng = np.random.default_rng(34)
        p = random_policy(rng, dims=[8, 4, 2])
        for scale in (1.0, 1e200, 1e-200):
            rows = rng.normal(size=(500, 8)) * scale
            sampled = audit_states(p, p, (), rows.T).norm
            np.testing.assert_array_equal(sampled, linalg.vector_norm(rows, axis=1))
            columns = np.ascontiguousarray(rows.T)
            visited = audit_states(p, p, (), columns).norm
            np.testing.assert_array_equal(visited, linalg.vector_norm(columns, axis=0))
