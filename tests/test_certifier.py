import math

import numpy as np
import pytest

from conftest import _ck_oracle, random_policy, scaled_plan
from prunecert.certifier import (
    StateSpaceSpec,
    admissible_magnitude,
    audit_bound,
    bound_constant_max,
    multi_layer_budget,
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
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = random_policy(rng, depth=int(rng.integers(1, 5)), max_width=8)
            s = rng.normal(size=p.input_dim)
            k = int(rng.integers(p.num_layers))
            got = _constant(p, k, s)
            expected = _ck_oracle(
                list(p.weight_spectral_norms),
                list(p.bias_norms),
                k1=k + 1,
                snorm=float(np.linalg.norm(s)),
            )
            assert got == pytest.approx(expected, rel=1e-12)

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
    def test_zero_radius_keeps_only_bias_terms(self):
        p = _three_layer_fixture()
        space = StateSpaceSpec(dim=2, radius=0.0)
        # only the bias carry-over survives: ||b_0|| * ||W_2|| = 3
        assert bound_constant_max(p, 1, space) == pytest.approx(3.0, rel=1e-12)

    def test_one_layer_radius_five(self):
        p = _diag_policy([4.0])
        assert bound_constant_max(p, 0, StateSpaceSpec(dim=2, radius=5.0)) == pytest.approx(5.0)

    def test_three_layer_radius_one(self):
        p = _three_layer_fixture()
        space = StateSpaceSpec(dim=2, radius=1.0)
        assert bound_constant_max(p, 1, space) == pytest.approx(9.0, rel=1e-12)

    def test_equals_state_constant_on_sphere(self):
        p = _three_layer_fixture()
        space = StateSpaceSpec(dim=2, radius=2.5)
        assert bound_constant_max(p, 1, space) == _constant(p, 1, [2.5, 0.0])


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
    def test_empty_plan_zero_budget(self):
        p = _three_layer_fixture()
        cert = multi_layer_budget(p, PrunePlan(layers=()), StateSpaceSpec(dim=2, radius=1.0))
        assert cert.budget == 0.0
        assert cert.rows == ()

    def test_singleton_reduces_to_per_state_bound(self):
        p = _three_layer_fixture()
        plan = PrunePlan.from_deltas({1: np.array([[0.25, 0.0], [0.0, 0.0]])})
        space = StateSpaceSpec(dim=2, radius=3.0)
        cert = multi_layer_budget(p, plan, space)
        assert cert.budget == per_state_bounds(p, plan.delta_norms(), [3.0])[0]

    def test_two_layer_weighted_sum(self):
        p = _three_layer_fixture()
        plan = PrunePlan.from_deltas(
            {
                0: np.array([[0.1, 0.0], [0.0, 0.0]]),
                1: np.array([[0.2, 0.0], [0.0, 0.0]]),
            }
        )
        space = StateSpaceSpec(dim=2, radius=1.0)
        cert = multi_layer_budget(p, plan, space)
        c0 = _ck_oracle([2.0, 7.0, 3.0], [1.0, 0.0, 0.0], 1, 1.0)
        c1 = _ck_oracle([2.0, 7.0, 3.0], [1.0, 0.0, 0.0], 2, 1.0)
        assert cert.budget == pytest.approx(0.1 * c0 + 0.2 * c1, rel=1e-12)

    def test_contributions_re_add_to_budget_exactly(self):
        rng = np.random.default_rng(2)
        p = random_policy(rng, depth=4, max_width=8)
        deltas = {
            k: rng.normal(scale=0.05, size=p.layers[k].weight.shape) for k in (0, 2, 3)
        }
        cert = multi_layer_budget(
            p, PrunePlan.from_deltas(deltas), StateSpaceSpec(dim=p.input_dim, radius=2.0)
        )
        acc = 0.0
        for row in cert.rows:
            assert row.contribution == row.c_max * row.delta_spectral
            acc = acc + row.contribution
        assert acc == cert.budget  # bitwise: same summation order

    def test_budget_homogeneous_under_power_of_two_scaling(self):
        rng = np.random.default_rng(3)
        p = random_policy(rng, depth=3, max_width=6)
        plan = PrunePlan.from_deltas(
            {k: rng.normal(scale=0.1, size=p.layers[k].weight.shape) for k in range(3)}
        )
        space = StateSpaceSpec(dim=p.input_dim, radius=1.5)
        base = multi_layer_budget(p, plan, space).budget
        assert multi_layer_budget(p, scaled_plan(plan, 2.0), space).budget == 2.0 * base
        assert multi_layer_budget(p, scaled_plan(plan, 0.5), space).budget == 0.5 * base

    def test_budget_homogeneous_generic_scale(self):
        rng = np.random.default_rng(4)
        p = random_policy(rng, depth=2, max_width=6)
        plan = PrunePlan.from_deltas(
            {k: rng.normal(scale=0.1, size=p.layers[k].weight.shape) for k in range(2)}
        )
        space = StateSpaceSpec(dim=p.input_dim, radius=1.0)
        base = multi_layer_budget(p, plan, space).budget
        scaled = multi_layer_budget(p, scaled_plan(plan, 3.7), space).budget
        assert scaled == pytest.approx(3.7 * base, rel=1e-12)


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
        plan = PrunePlan.from_deltas(
            {k: rng.normal(scale=0.1, size=p.layers[k].weight.shape) for k in range(3)}
        )
        radius = 4.0
        cert = multi_layer_budget(p, plan, StateSpaceSpec(dim=p.input_dim, radius=radius))
        at_boundary = per_state_bounds(p, plan.delta_norms(), np.array([radius]))
        assert at_boundary[0] == cert.budget

    def test_dominated_by_budget_inside_ball(self):
        rng = np.random.default_rng(7)
        p = random_policy(rng, depth=3, max_width=8)
        plan = PrunePlan.from_deltas(
            {k: rng.normal(scale=0.1, size=p.layers[k].weight.shape) for k in range(3)}
        )
        radius = 2.0
        cert = multi_layer_budget(p, plan, StateSpaceSpec(dim=p.input_dim, radius=radius))
        snorms = rng.uniform(0.0, radius, size=200)
        assert (per_state_bounds(p, plan.delta_norms(), snorms) <= cert.budget).all()


class TestAdmissibleMagnitude:
    def test_zero_budget_zero_caps(self):
        p = _three_layer_fixture()
        caps = admissible_magnitude(p, [0, 1], 0.0, StateSpaceSpec(dim=2, radius=1.0))
        assert caps == {0: 0.0, 1: 0.0}

    def test_single_layer_cap(self):
        p = _three_layer_fixture()
        space = StateSpaceSpec(dim=2, radius=1.0)
        assert bound_constant_max(p, 1, space) == pytest.approx(9.0)
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
        deltas = {
             k: np.array([[caps[k], 0.0], [0.0, 0.0]]) for k in caps
        }
        cert = multi_layer_budget(p, PrunePlan.from_deltas(deltas), space)
        # re-certifying takes the outward-rounded delta norms, so the budget
        # is at least epsilon and above it by that rounding only
        d_excess = _norm_excess((2, 2), 1.0)
        assert 2.0 <= cert.budget <= 2.0 * (1.0 + d_excess) * (1.0 + 4.0 * np.finfo(float).eps)

    def test_proportional_allocation(self):
        p = _diag_policy([4.0, 2.0])
        space = StateSpaceSpec(dim=2, radius=1.0)
        caps = admissible_magnitude(
            p, [0, 1], 3.0, space, allocation="proportional", weights=[2.0, 1.0]
        )
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


class TestAuditBound:
    def test_identical_policies(self):
        p = _three_layer_fixture()
        summary = audit_bound(
            p, p, PrunePlan(layers=()), StateSpaceSpec(dim=2, radius=1.0), n=100, seed=0
        )
        assert summary.max_dev == 0.0
        assert summary.violations == 0
        assert summary.holds
        assert summary.tightness == 0.0

    def test_equality_fixture_tightness_one(self):
        original, pruned, plan = _equality_fixture()
        space = StateSpaceSpec(dim=1, radius=2.0, box=(np.array([2.0]), np.array([2.0])))
        summary = audit_bound(original, pruned, plan, space, n=64, seed=1)
        assert summary.tightness == pytest.approx(1.0, rel=1e-12)
        assert summary.violations == 0
        assert summary.holds

    def test_no_violations_on_randomly_pruned_policies(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            p = random_policy(rng, depth=int(rng.integers(1, 5)), max_width=12)
            states = [rng.normal(size=p.input_dim) for _ in range(16)]
            calib = collect_calibration(p, states)
            k = int(rng.integers(p.num_layers))
            entries = rank_weights(p, calib, [k], damping="auto")
            pruned, plan = apply_plan(p, entries, len(entries) // 2)
            space = StateSpaceSpec(dim=p.input_dim, radius=5.0)
            summary = audit_bound(p, pruned, plan, space, n=2000, seed=13)
            assert summary.violations == 0
            assert summary.holds

    def test_multi_layer_no_violations(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            p = random_policy(rng, depth=4, max_width=10)
            states = [rng.normal(size=p.input_dim) for _ in range(16)]
            calib = collect_calibration(p, states)
            entries = rank_weights(p, calib, [0, 2], damping="auto")
            pruned, plan = apply_plan(p, entries, len(entries) // 2)
            summary = audit_bound(
                p, pruned, plan, StateSpaceSpec(dim=p.input_dim, radius=3.0), n=2000, seed=15
            )
            assert summary.violations == 0

    def test_summary_budget_matches_certificate(self):
        rng = np.random.default_rng(16)
        p = random_policy(rng, depth=3, max_width=8)
        plan = PrunePlan.from_deltas(
            {k: rng.normal(scale=0.1, size=p.layers[k].weight.shape) for k in range(2)}
        )
        space = StateSpaceSpec(dim=p.input_dim, radius=2.0)
        cert = multi_layer_budget(p, plan, space)
        summary = audit_bound(p, p, plan, space, n=10, seed=17)
        assert summary.budget == cert.budget

    def test_requires_positive_samples(self):
        p = _three_layer_fixture()
        with pytest.raises(ValueError):
            audit_bound(p, p, PrunePlan(layers=()), StateSpaceSpec(dim=2, radius=1.0), n=0, seed=0)
