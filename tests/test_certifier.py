import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    audit_threshold,
    exact_constant,
    inf_norm_policy,
    moderate,
    naive_forward,
    outward_rounding,
    random_policy,
    scaled_certificate,
    scaled_norm,
    underflow_policy,
)
from prunecert import certifier, linalg
from prunecert.certifier import (
    StateSpaceSpec,
    _constants,
    admissible_magnitude,
    audit_states,
    certify,
    per_state_bounds,
    sample_states,
)
from prunecert.linalg import _norm_allowance
from prunecert.policy import ActivationKind, Layer, MlpPolicy, forward, forward_batch
from prunecert.pruner import PrunePlan, collect_calibration, prune_to_budget, rank_weights


def _constant(p, k, s) -> float:
    """The layer-k constant C_k(s) as the pipeline evaluates it, from the
    policy's norm tuples."""
    return float(_constants(p.weight_spectral_norms, p.bias_norms, [k], linalg.vector_norm(s))[0])


def _within(got, exact, depth) -> bool:
    """``got`` is at least the rational ``exact`` and above it by the named
    tolerance at most."""
    return exact <= Fraction(float(got)) <= exact * (1 + Fraction(outward_rounding(depth)))


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

    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
    def test_from_states_radius_is_the_largest_vector_norm(self, scale):
        # 8 dimensions, so a norm along an axis would sum in another order
        rows = np.random.default_rng(36).normal(size=(50, 8)) * scale
        radius = StateSpaceSpec.from_states(rows).radius
        assert radius == max(float(linalg.vector_norm(r)) for r in rows)

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
        expected = float(exact_constant([2.0, 7.0, 3.0], [1.0, 0.0, 0.0], 1, 1.0))
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
        # at least the exact value and within the named tolerance, through
        # _constants, per_state_bounds and certify's rows
        rng = np.random.default_rng(1)
        delta_rng = np.random.default_rng(101)
        for _ in range(20):
            p = random_policy(rng, depth=int(rng.integers(1, 5)), max_width=8)
            s = rng.normal(size=p.input_dim)
            k = int(rng.integers(p.num_layers))
            wnorms, bnorms, depth = p.weight_spectral_norms, p.bias_norms, p.num_layers
            snorm = float(linalg.vector_norm(s))
            exact = exact_constant(wnorms, bnorms, k, snorm)
            assert _within(_constant(p, k, s), exact, depth)
            assert _within(per_state_bounds(p, ((k, 1.0),), [snorm])[0], exact, depth)
            deltas = {
                m: delta_rng.normal(scale=0.05, size=layer.weight.shape)
                for m, layer in enumerate(p.layers)
            }
            space = StateSpaceSpec(dim=p.input_dim, radius=snorm)
            cert = certify(p, _perturbed(p, deltas), space, n=8, seed=0)
            assert [row.layer for row in cert.rows] == list(range(p.num_layers))
            acc = 0.0
            for row in cert.rows:
                assert _within(row.c_max, exact_constant(wnorms, bnorms, row.layer, snorm), depth)
                assert row.contribution == linalg._times(row.c_max, row.delta_spectral)
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


# a weight or bias norm, or a state norm: zero, subnormals and 1e150, whose
# cube overflows to inf, drawn often on purpose
_NORMS = st.one_of(st.sampled_from([0.0, 5e-324, 1e-310, 1e150]), st.floats(0.0, 1e150))


class TestConstantsFromTuples:
    """``_constants`` on plain float tuples, with no policy built."""

    @given(
        st.lists(st.tuples(_NORMS, _NORMS), min_size=1, max_size=5),
        st.lists(_NORMS, min_size=1, max_size=4),
    )
    @example(
        [(1e150, 1e150), (1e150, 0.0), (1e150, 5e-324), (0.0, 1e-310), (5e-324, 1e150)],
        [0.0, 5e-324, 1e150],
    )
    # zero norms against inf: a zero weight norm, bias norm and state norm
    # each carry nothing, while 5e-324 * 5e-324 underflows and meets inf
    @example(
        [(5e-324, 1.0), (5e-324, 0.0), (1e150, 1.0), (1e150, 0.0), (1e150, 1e150), (0.0, 1.0)],
        [0.0, 1.0, 1e150],
    )
    @example([(0.7, 0.1), (3.0, 0.0), (1.1, 2.5), (0.3, 0.9)], [0.0, 0.5, 3.7])
    @settings(max_examples=200, deadline=None)
    def test_bounds_the_exact_value(self, layers, snorms):
        # never NaN, never below the exact value, and within the named
        # tolerance of it where nothing can underflow or overflow
        norms, biases = map(tuple, zip(*layers))
        ks = range(len(norms))
        batch = _constants(norms, biases, ks, np.array(snorms))
        for i, snorm in enumerate(snorms):
            got = _constants(norms, biases, ks, snorm)
            # an array of state norms gives each the bits it gets alone
            assert [c.tobytes() for c in got] == [c[i].tobytes() for c in batch]
            for k, c in zip(ks, map(float, got)):
                exact = exact_constant(norms, biases, k, snorm)
                assert c == math.inf or exact <= Fraction(c)
                if moderate(*norms, *biases, snorm):
                    assert _within(c, exact, len(norms))


    @pytest.mark.parametrize(
        "norms, biases",
        [
            # _times: (1 + 2 eps)(1 + 2^-3) rounds down by a quarter ulp
            ((1.0, 1.0), (1.0 + 2.0**-3, 0.0)),
            # _plus: 1.5 + 2^-53 ties down to 1.5, whose product with
            # 1 + 3 eps then ties down too, losing one ulp in all
            ((1.0, 1.0, 1.0), (math.nextafter(2.0**-53, 0.0), 1.5, 0.0)),
        ],
        ids=["times", "plus"],
    )
    def test_each_step_rounds_up_over_the_tail_factor(self, norms, biases):
        # the budget's plain sum leans on the tail factor 1 + L eps, so the
        # constant must bound that factor times the exact value; a product
        # or sum rounded to nearest, not one ulp up, falls below it here
        L = len(norms)
        c = float(_constants(norms, biases, [L - 1], 0.0)[0])
        factor = 1 + L * Fraction(float(np.finfo(float).eps))
        assert Fraction(c) >= factor * exact_constant(norms, biases, L - 1, 0.0)

    def test_the_bit_step_is_nextafter(self):
        x = np.array([0.0, 5e-324, 1e-310, 2.0**-1022, 1.0, 1e300, np.finfo(float).max, math.inf])
        stepped = linalg._up_where(x.copy(), np.ones(x.size, dtype=bool))
        with np.errstate(over="ignore"):  # the largest float steps to inf
            assert stepped.tobytes() == np.nextafter(x, math.inf).tobytes()
        # where the mask is off, the value is left alone
        assert linalg._up_where(x.copy(), np.zeros(x.size, dtype=bool)).tobytes() == x.tobytes()


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

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_an_underflowed_carry_against_an_inf_norm_is_an_inf_budget(self):
        # layer 0's bias carried through two norms of 1e-200 underflows and
        # meets an inf norm: the product rounds up to inf, a bound that
        # bounds nothing, where a carry rounded to 0 made a NaN constant
        p = underflow_policy()
        pruned = _perturbed(p, {1: -p.layers[1].weight})
        cert = certify(p, pruned, StateSpaceSpec(dim=2, radius=0.0), n=10, seed=0)
        (row,) = cert.rows
        assert (row.layer, row.c_max, row.contribution) == (1, math.inf, math.inf)
        assert cert.budget == math.inf
        # both outputs overflow, so the audit cannot vouch for any state
        assert cert.audit.violations == 10

    def test_zero_radius_carries_nothing_against_an_inf_norm(self):
        # ||W_0|| = inf, but at radius 0 the state term is 0: layer 1's
        # constant is its bias carry sqrt(2), not 0 * inf
        p = inf_norm_policy()
        pruned = _perturbed(p, {1: -p.layers[1].weight})
        cert = certify(p, pruned, StateSpaceSpec(dim=2, radius=0.0), n=10, seed=0)
        (row,) = cert.rows
        assert row.layer == 1 and _within(row.c_max, Fraction(p.bias_norms[0]), 2)
        assert cert.budget == row.contribution == linalg._times(row.c_max, row.delta_spectral)
        assert cert.holds

    def test_a_zero_constant_carries_nothing_against_an_inf_delta_norm(self):
        # layer 1 is zero, so layer 0's constant is 0, and zeroing layer 0's
        # 1e308 entries has an infinite delta norm: the contribution is 0,
        # where 0 * inf made a NaN budget
        identity = ActivationKind("identity")
        original, pruned = (
            MlpPolicy(layers=(Layer(w, np.zeros(2), identity),
                              Layer(np.zeros((1, 2)), [0.0], identity)))
            for w in (np.full((2, 2), 1e308), np.zeros((2, 2)))
        )
        cert = certify(original, pruned, StateSpaceSpec(dim=2, radius=1.0), n=100, seed=0)
        (row,) = cert.rows
        assert (row.layer, row.c_max, row.delta_spectral) == (0, 0.0, math.inf)
        assert row.contribution == 0.0
        assert cert.budget == 0.0 and cert.holds

    def test_budget_is_at_least_the_exact_sum(self):
        # the exact constants of the policy's norm tuples times the delta
        # norms, summed in rationals: a budget rounded to nearest falls
        # below that sum on about half of these pairs
        rng = np.random.default_rng(16)
        for _ in range(40):
            p = random_policy(rng, depth=int(rng.integers(1, 6)), max_width=8)
            ks = sorted(rng.choice(p.num_layers, size=int(rng.integers(1, p.num_layers + 1)),
                                   replace=False).tolist())
            deltas = {k: rng.normal(scale=0.05, size=p.layers[k].weight.shape) for k in ks}
            radius = float(rng.uniform(0.1, 3.0))
            cert = certify(
                p, _perturbed(p, deltas), StateSpaceSpec(dim=p.input_dim, radius=radius),
                n=1, seed=0,
            )
            exact = sum(
                exact_constant(p.weight_spectral_norms, p.bias_norms, k, radius) * Fraction(dn)
                for k, dn in cert.delta_norms()
            )
            assert _within(cert.budget, exact, p.num_layers)

    def test_the_tail_factor_covers_a_sum_that_drops_every_small_term(self):
        # certify's arithmetic on norm tuples built so that round-to-nearest
        # loses more than the ulp-up steps gain: layer 0's exact contribution
        # is 4 + 122.66 ulps of 4, and each of the 11 later ones is just under
        # half an ulp of 4, so a plain add drops every one (5.5 ulps lost).
        # Without the tail's 1 + L eps, layer 0's rounded-up product is
        # 4 + 127 ulps and the budget stays there, 1.16 ulps below the exact sum
        norms = tuple(map(float.fromhex, """
            0x1p+0 0x1.f1f7959ffedc5p+0 0x1.fe8d21b816eafp+0 0x1.02fe9796a77f8p+0
            0x1.067f592215b52p+0 0x1.f4df51e9c9b59p+0 0x1.f7bfc1b9d59a1p+0 0x1.017d0e375cfd5p+0
            0x1.fe8e010ac096cp+0 0x1.fee3ff7bd3ecbp+0 0x1.fed482b1166d2p+0 0x1.ffe686ed27d48p+0
        """.split()))
        deltas = tuple(map(float.fromhex, """
            0x1.009915929c5d3p-6 0x1.f3215c8eea0d8p-59 0x1.ffbe6f1735f9ap-59 0x1.039977927654ap-59
            0x1.071c515d22519p-59 0x1.f60ad596e9627p-59 0x1.f8ecfdc7d78bap-59 0x1.021707a794ce5p-59
            0x1.ffbf4eef6ade6p-59 0x1.000ac0666773ep-58 0x1.0002fd5f9710ep-58 0x1.008c516b6f5b1p-58
        """.split()))
        radius, biases = float.fromhex("0x1.083114584f5b7p+0"), (0.0,) * len(norms)
        budget = 0.0
        for c, dn in zip(_constants(norms, biases, range(len(norms)), radius), deltas):
            budget = budget + linalg._times(float(c), dn)
        exact = [exact_constant(norms, biases, k, radius) * Fraction(dn)
                 for k, dn in enumerate(deltas)]
        assert all(term < Fraction(math.ulp(4.0)) / 2 for term in exact[1:])
        assert _within(budget, sum(exact), len(norms))

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
        c0, c1 = (float(exact_constant([2.0, 7.0, 3.0], [1.0, 0.0, 0.0], k, 1.0)) for k in (0, 1))
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
            assert row.contribution == linalg._times(row.c_max, row.delta_spectral)
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
                d * float(exact_constant(p.weight_spectral_norms, p.bias_norms, k, snorms[i]))
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

    def test_zero_constant_gives_infinite_cap(self):
        # radius 0 and no biases: c_max = 0 for every layer
        p = _diag_policy([1.0, 1.0])
        caps = admissible_magnitude(p, [0], 1.0, StateSpaceSpec(dim=2, radius=0.0))
        assert math.isinf(caps[0])

    def test_an_infinite_constant_caps_at_zero(self):
        # layer 1's constant is inf: a bias carry underflowed and met an inf
        # norm.  Where it was NaN, taken as an infinite cap, it would have
        # let the walk remove all of layer 1
        caps = admissible_magnitude(underflow_policy(), [1], 1.0, StateSpaceSpec(dim=2, radius=0.0))
        assert caps == {1: 0.0}

    def test_zero_radius_carries_nothing_against_an_inf_norm(self):
        # at radius 0, layer 1's constant is sqrt(2), the bias carry, even
        # though ||W_0|| = inf
        p = inf_norm_policy()
        (cap,) = admissible_magnitude(p, [1], 1.0, StateSpaceSpec(dim=2, radius=0.0)).values()
        assert 1 - Fraction(outward_rounding(2)) <= Fraction(cap) * Fraction(p.bias_norms[0]) <= 1

    def test_negative_budget_rejected(self):
        p = _diag_policy([1.0])
        with pytest.raises(ValueError):
            admissible_magnitude(p, [0], -0.1, StateSpaceSpec(dim=2, radius=1.0))

    def test_nan_budget_rejected(self):
        # a NaN cap never compares above a delta norm, so it would cap nothing
        p = _diag_policy([1.0])
        with pytest.raises(ValueError, match="nonnegative"):
            admissible_magnitude(p, [0], math.nan, StateSpaceSpec(dim=2, radius=1.0))

    def test_per_layer_calls_compose_any_split(self):
        p = random_policy(np.random.default_rng(8), dims=[4, 7, 5, 3])
        space = StateSpaceSpec(dim=4, radius=1.5)
        # the even split is one call per layer with epsilon / n, bit for bit
        even = admissible_magnitude(p, [2, 0, 1], 2.0, space)
        assert even == {k: admissible_magnitude(p, [k], 2.0 / 3, space)[k] for k in range(3)}
        # any other split: share_k over the c_max certify reports
        for k, share in zip(range(3), (0.5, 1.25, 1e-3)):
            assert admissible_magnitude(p, [k], share, space)[k] == share / _c_max(p, k, space)

    def test_repeated_layer_without_weights_counts_once(self):
        p = _diag_policy([4.0, 2.0])
        space = StateSpaceSpec(dim=2, radius=1.0)
        assert admissible_magnitude(p, [1, 0, 1], 2.0, space) == admissible_magnitude(
            p, [0, 1], 2.0, space
        )

    def test_infinite_budget_caps_nothing(self):
        p = _diag_policy([4.0, 2.0])
        space = StateSpaceSpec(dim=2, radius=1.0)
        assert admissible_magnitude(p, [0, 1], math.inf, space) == {0: math.inf, 1: math.inf}
        # ||W_0|| = inf makes layer 1's constant inf, and inf / inf is NaN:
        # an infinite share still caps nothing
        p = inf_norm_policy()
        assert admissible_magnitude(p, [0, 1], math.inf, space) == {0: math.inf, 1: math.inf}


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

        draws_norm = linalg.vector_norm(np.array(draws))
        assert ((draws_norm > radius) & (draws_norm < radius * (1.0 + 1e-10))).all()
        space = StateSpaceSpec(dim=2, radius=radius, box=(np.zeros(2), np.full(2, radius / 2)))
        states = sample_states(space, len(draws), _OvershootRng())
        assert (linalg.vector_norm(states) <= radius).all()
        assert all(linalg.vector_norm(s) <= radius for s in states)
        # pulled back onto the sphere, not into the ball's interior
        np.testing.assert_allclose(linalg.vector_norm(states), radius, rtol=1e-15)


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
            calib = collect_calibration(p, states, damping="auto")
            k = int(rng.integers(p.num_layers))
            entries = rank_weights(p, calib, [k])
            pruned, _ = prune_to_budget(p, entries[: len(entries) // 2])
            space = StateSpaceSpec(dim=p.input_dim, radius=5.0)
            cert = certify(p, pruned, space, n=2000, seed=13)
            assert cert.audit.violations == 0
            assert cert.holds

    def test_multi_layer_no_violations(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            p = random_policy(rng, depth=4, max_width=10)
            states = [rng.normal(size=p.input_dim) for _ in range(16)]
            calib = collect_calibration(p, states, damping="auto")
            entries = rank_weights(p, calib, [0, 2])
            pruned, _ = prune_to_budget(p, entries[: len(entries) // 2])
            cert = certify(
                p, pruned, StateSpaceSpec(dim=p.input_dim, radius=3.0), n=2000, seed=15
            )
            assert cert.audit.violations == 0

    @pytest.mark.parametrize("radius", [1.0, 1e-9, 1e-200])
    def test_a_grown_pair_fails_at_every_scale(self, radius):
        # identity layers grown 1 -> 1.5: the deviation is 1.25 |s| against a
        # budget of |s|, a 25% breach that an absolute slack hid below 1e-9
        identity = ActivationKind("identity")
        original, pruned = (
            MlpPolicy(layers=(Layer(w * np.eye(2), np.zeros(2), identity),) * 2)
            for w in (1.0, 1.5)
        )
        cert = certify(original, pruned, StateSpaceSpec(dim=2, radius=radius), n=1000, seed=0)
        assert cert.audit.violations == 1000
        assert not cert.holds

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

    def test_rejects_a_pair_whose_activations_differ(self):
        # the weights agree, so no delta norm would show the change, and the
        # theorem covers weight perturbations only
        relu, identity = _diag_policy([1.0], kind="relu"), _diag_policy([1.0])
        with pytest.raises(ValueError, match="^layer 0: activations differ$"):
            certify(relu, identity, StateSpaceSpec(dim=2, radius=1.0), n=10, seed=0)

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
        # the batch forward the audit runs, against the loop oracle
        batch_o, batch_p = forward_batch(original, states), forward_batch(pruned, states)
        wnorms, bnorms = original.weight_spectral_norms, original.bias_norms
        for i, s in enumerate(states):
            out_o, out_p = naive_forward(original, s), naive_forward(pruned, s)
            scale = max(scaled_norm(out_o), scaled_norm(out_p), 1e-300)
            np.testing.assert_allclose(batch_o[i], out_o, rtol=0, atol=1e-12 * scale)
            np.testing.assert_allclose(batch_p[i], out_p, rtol=0, atol=1e-12 * scale)
            assert abs(audit.deviation[i] - scaled_norm(out_o - out_p)) <= 1e-12 * scale
            snorm = scaled_norm(s)
            assert audit.norm[i] == pytest.approx(snorm, rel=1e-15)
            bound = 0.0
            for k, d in dn:
                bound += d * float(exact_constant(wnorms, bnorms, k, snorm))
            assert audit.bound[i] == pytest.approx(bound, rel=1e-14)
        assert not audit.violation.any()
        return audit

    def test_matches_oracles_on_random_policies(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            original, pruned = self._pair(rng)
            # states well inside, on and far outside a unit ball
            states = (rng.normal(size=(original.input_dim, 12)) * rng.choice(
                [0.01, 1.0, 30.0], size=12
            )).T
            audit = self._check_against_oracles(original, pruned, states)
            assert audit.deviation.shape == audit.bound.shape == audit.norm.shape == (12,)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_matches_oracles_at_extreme_scale(self, scale):
        rng = np.random.default_rng(32)
        for _ in range(10):
            original, pruned = self._pair(rng, homogeneous=True)
            states = (rng.normal(size=(original.input_dim, 6)) * scale).T
            audit = self._check_against_oracles(original, pruned, states)
            assert np.isfinite(audit.deviation).all() and (audit.norm > 0).all()

    @pytest.mark.parametrize("radius", [1.0, 1e-9, 1e-200])
    def test_flags_every_nonzero_state_of_an_unbounded_doubling(self, radius):
        # identity x -> x against x -> 2x: the deviation at s is |s| exactly,
        # and a zero delta norm makes every bound 0, so every state but 0
        # breaks its bound, however small the scale
        identity = ActivationKind("identity")
        p, q = (
            MlpPolicy(layers=(Layer(weight=[[w]], bias=[0.0], activation=identity),))
            for w in (1.0, 2.0)
        )
        states = np.array([[0.0], [radius * 1e-6], [radius / 3], [-radius], [radius]])
        audit = audit_states(p, q, ((0, 0.0),), states)
        np.testing.assert_array_equal(audit.deviation, np.abs(states[:, 0]))
        np.testing.assert_array_equal(audit.bound, np.zeros(5))
        assert audit.violation.tolist() == [False, True, True, True, True]
        # a unit delta norm bounds every state: nothing is flagged
        assert not audit_states(p, q, ((0, 1.0),), states).violation.any()

    def test_an_infinite_allowance_adds_nothing_at_zero(self):
        # norms of 1e200 in both layers overflow the allowance's carry, so a
        # and b are inf; a * 0 would be NaN and flag the zero state, whose
        # deviation is 0
        identity = ActivationKind("identity")
        top = Layer(1e200 * np.eye(2), np.zeros(2), identity)
        p, q = (MlpPolicy(layers=(Layer(w * np.eye(2), np.zeros(2), identity), top))
                for w in (1e200, 1.5e200))
        dn = PrunePlan.from_policies(p, q).delta_norms()
        assert certifier._allowance(p, q, dn)[:2] == (math.inf, math.inf)
        assert not audit_states(p, q, dn, np.zeros((1, 2))).violation.any()

    def test_a_zero_state_carries_nothing_against_an_inf_norm(self):
        # ||W_0|| = inf and layer 1 halved: at s = 0 the deviation is 0.404
        # and the bound sqrt(2) ||dW_1|| = 0.416, not 0 * inf
        p = inf_norm_policy()
        q = _perturbed(p, {1: -0.5 * p.layers[1].weight})
        dn = PrunePlan.from_policies(p, q).delta_norms()
        audit = audit_states(p, q, dn, np.zeros((1, 2)))
        assert _within(audit.bound[0], Fraction(dn[0][1]) * Fraction(p.bias_norms[0]), 2)
        assert audit.deviation[0] == pytest.approx(0.404, abs=1e-3)
        assert audit.bound[0] >= audit.deviation[0]
        assert not audit.violation.any()

    @staticmethod
    def _exact_squared_deviation(original, pruned, s):
        """``||pi(s) - pi_hat(s)||^2`` in exact rational arithmetic, for
        ReLU and identity layers."""
        outs = []
        for p in (original, pruned):
            x = [Fraction(float(v)) for v in s]
            for layer in p.layers:
                z = [sum((Fraction(float(w)) * v for w, v in zip(row, x)), Fraction(float(b)))
                     for row, b in zip(layer.weight, layer.bias)]
                x = [max(v, Fraction(0)) for v in z] if layer.activation.kind == "relu" else z
            outs.append(x)
        return sum((a - b) ** 2 for a, b in zip(*outs))

    @pytest.mark.parametrize("scale", [1e-200, 1e-9, 1.0, 1e9, 1e200])
    def test_every_flag_is_an_exact_breach(self, scale):
        # a layer moved by about 2^-20: the two outputs cancel, so each
        # deviation rounds at about 2^20 times its own last bit.  The pair's
        # own delta norms bound it, and half of them often do not.  A flag
        # must be a breach in exact arithmetic, and a state the audit passes
        # must be within 0.1% of its bound: the allowance is far smaller.
        rng = np.random.default_rng(35)
        flagged = breaches = 0
        for _ in range(8):
            depth = int(rng.integers(1, 4))
            dims = [int(rng.integers(1, 3))] + [int(rng.integers(1, 4)) for _ in range(depth)]
            layers = tuple(
                Layer(rng.normal(size=(e, d)), np.zeros(e),
                      ActivationKind(str(rng.choice(["relu", "identity"]))))
                for d, e in zip(dims, dims[1:])
            )
            original = MlpPolicy(layers=layers)
            k = int(rng.integers(len(layers)))
            pruned = _perturbed(original, {k: rng.normal(size=layers[k].weight.shape) * 2.0**-20})
            states = (rng.normal(size=(dims[0], 20)) * scale).T
            for factor in (1.0, 0.5):
                dn = tuple((j, d * factor) for j, d in
                           PrunePlan.from_policies(original, pruned).delta_norms())
                audit = audit_states(original, pruned, dn, states)
                for i, s in enumerate(states):
                    exact = self._exact_squared_deviation(original, pruned, s)
                    bound = Fraction(float(audit.bound[i]))
                    if audit.violation[i]:
                        assert exact > bound**2
                    else:
                        assert exact <= (bound * Fraction(1001, 1000)) ** 2
                    breaches += exact > bound**2
                flagged += int(audit.violation.sum())
        assert flagged > 0 and breaches > 0

    def test_the_factor_f_passes_what_rounding_could_explain(self):
        # W = [[1]] pruned to [[0.5]], at s = 1, with the delta norm
        # understated so that the deviation 0.5 exceeds the bound plus the
        # allowance's absolute terms by 23 ulps, within their f = 1 + 23 eps
        identity = ActivationKind("identity")
        original = MlpPolicy(layers=(Layer([[1.0]], [0.0], identity),))
        pruned = MlpPolicy(layers=(Layer([[0.5]], [0.0], identity),))
        dn = ((0, 0.4999999999999943),)
        audit = audit_states(original, pruned, dn, np.array([[1.0]]))
        a, b, f = certifier._allowance(original, pruned, dn)
        assert audit.deviation[0] > audit.bound[0] + certifier._affine(a, b, 1.0)
        assert audit.deviation[0] <= audit_threshold(original, pruned, dn, 1.0, audit.bound[0])
        assert not audit.violation[0]

    def test_the_underflow_term_passes_what_subnormal_products_could_explain(self):
        # 256 weights of 0.75, all pruned, at the state of 256 smallest
        # subnormals: each product 0.75 * 5e-324 rounds up to 5e-324, so the
        # computed deviation is 256 of them where the exact one is 192,
        # which the bound of 205 covers.  Only the allowance's underflow
        # term covers the 2^-1075 each product may gain
        identity = ActivationKind("identity")
        original = MlpPolicy(layers=(Layer(np.full((1, 256), 0.75), [0.0], identity),))
        pruned = MlpPolicy(layers=(Layer(np.zeros((1, 256)), [0.0], identity),))
        dn = PrunePlan.from_policies(original, pruned).delta_norms()
        states = np.full((1, 256), 5e-324)
        audit = audit_states(original, pruned, dn, states)
        assert (audit.deviation[0], audit.bound[0]) == (256 * 5e-324, 205 * 5e-324)
        exact = self._exact_squared_deviation(original, pruned, states[0])
        assert exact == (192 * Fraction(5e-324)) ** 2 <= Fraction(float(audit.bound[0])) ** 2
        assert not audit.violation[0]

    def test_flags_match_the_oracle_rule_on_understated_deltas(self):
        rng = np.random.default_rng(33)
        flagged = 0
        for _ in range(10):
            original, pruned = self._pair(rng)
            # a third of the true delta norm: many states break their bound
            dn = tuple(
                (k, d / 3.0) for k, d in PrunePlan.from_policies(original, pruned).delta_norms()
            )
            states = rng.normal(size=(original.input_dim, 30)).T
            audit = audit_states(original, pruned, dn, states)
            wnorms, bnorms = original.weight_spectral_norms, original.bias_norms
            for i, s in enumerate(states):
                dev = scaled_norm(naive_forward(original, s) - naive_forward(pruned, s))
                snorm = scaled_norm(s)
                bound = 0.0
                for k, d in dn:
                    bound += d * float(exact_constant(wnorms, bnorms, k, snorm))
                limit = audit_threshold(original, pruned, dn, snorm, bound)
                assert audit.violation[i] == (not dev <= limit)
            flagged += int(audit.violation.sum())
        assert flagged > 0

    def test_outputs_and_audit_do_not_depend_on_the_layout(self):
        # 300 states of dimension 8: BLAS rounds by operand layout, and
        # numpy's reduction sums a contiguous axis pairwise and a strided one
        # in order, so C- and F-ordered copies of the same states must give
        # the same bytes at every scale
        rng = np.random.default_rng(34)
        p = random_policy(rng, dims=[8, 32, 2])
        pruned = _perturbed(p, {0: rng.normal(0.0, 0.3, size=(32, 8))})
        dn = PrunePlan.from_policies(p, pruned).delta_norms()
        for scale in (1.0, 1e200, 1e-200):
            states = (rng.normal(size=(8, 300)) * scale).T
            c, f = np.ascontiguousarray(states), np.asfortranarray(states)
            assert forward_batch(p, c).tobytes() == forward_batch(p, f).tobytes()
            a, b = audit_states(p, pruned, dn, c), audit_states(p, pruned, dn, f)
            for field in ("deviation", "bound", "norm", "violation"):
                assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), (scale, field)


class TestGrownNorms:
    """The budget reads only the unpruned norms, so it is proven only when
    pruning grows no layer's spectral norm.  These repros stay open until
    the sound budget of ROADMAP item 1 lands."""

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the budget misses the growth term")
    def test_a_grown_pair_is_covered(self):
        # identity layers grown 1 -> 1.5: the deviation is 1.25 |s|
        identity = ActivationKind("identity")
        original, pruned = (
            MlpPolicy(layers=(Layer(w * np.eye(2), np.zeros(2), identity),) * 2)
            for w in (1.0, 1.5)
        )
        cert = certify(original, pruned, StateSpaceSpec(dim=2, radius=1.0), n=1000, seed=0)
        assert cert.budget >= cert.audit.max_dev

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: epsilon caps read unpruned norms")
    def test_an_epsilon_prune_stays_within_epsilon_under_the_mirrored_budgets(self):
        # the library calls of ``prune --epsilon 2.9 --radius 1``: the walk
        # zeroes entry (0, 1) of both layers, which grows each norm from
        # sqrt(2) to 1.618
        identity = ActivationKind("identity")
        p = MlpPolicy(layers=(Layer([[1.0, 1.0], [1.0, -1.0]], np.zeros(2), identity),) * 2)
        space, epsilon = StateSpaceSpec(dim=2, radius=1.0), 2.9
        caps = admissible_magnitude(p, [0, 1], epsilon, space)
        calib = collect_calibration(p, np.random.default_rng(0).normal(size=(16, 2)), "auto")
        ranking = rank_weights(p, calib, [0, 1])
        pruned, _ = prune_to_budget(p, ranking, caps)

        def budget(below, above):
            # layer k's constant never reads N_k, so one hybrid tuple per layer
            total = 0.0
            for k, dn in PrunePlan.from_policies(p, pruned).delta_norms():
                (c,) = _constants(below[:k] + above[k:], p.bias_norms, [k], space.radius)
                total = total + linalg._times(float(c), dn)
            return total

        norms, grown = p.weight_spectral_norms, pruned.weight_spectral_norms
        assert min(budget(grown, norms), budget(norms, grown)) <= epsilon


class TestLinearWorstCase:
    """The budget against the exact worst case over the ball, on the pairs
    where the paper's bound is proven.  With identity layers,
    ``pi(s) - pi_hat(s) = (P - P_hat) s + d`` for ``P = W_{L-1} ... W_0``
    and ``d`` the difference of the two bias chains.  With zero biases the
    worst case at radius r is exactly ``r sigma_max(P - P_hat)``; with
    biases, the states ``+-r v``, for v the top right singular vector of
    ``P - P_hat``, prove it at least ``sqrt(r^2 sigma_max^2 + ||d||^2)``."""

    def test_budget_covers_the_exact_worst_case(self):
        # the same pairs twice: with zero biases, and with biases drawn from
        # N(0, 0.5^2) by a second seed
        for bias_rng in (None, np.random.default_rng(41)):
            ratios = self._sweep(bias_rng)
            assert len(ratios) > 300 and max(ratios) > 0.99

    @staticmethod
    def _sweep(bias_rng):
        rng = np.random.default_rng(37)
        identity = ActivationKind("identity")
        ratios = []
        for _ in range(400):
            dims = [int(d) for d in rng.integers(1, 5, size=int(rng.integers(3, 5)))]
            weights = [rng.normal(size=(e, d)) / math.sqrt(d) for d, e in zip(dims, dims[1:])]
            if rng.random() < 0.5:
                # any change to one layer
                k = int(rng.integers(len(weights)))
                w = weights[k]
                changed = {k: w + rng.normal(0.0, 0.3, w.shape) * (rng.random(w.shape) < 0.4)}
            else:
                # zeros in every layer, kept where no layer's norm grows
                changed = {k: np.where(rng.random(w.shape) < 0.4, 0.0, w)
                           for k, w in enumerate(weights)}
                if any(np.linalg.norm(changed[k], 2) > np.linalg.norm(w, 2)
                       for k, w in enumerate(weights)):
                    continue
            pruned_weights = [changed.get(k, w) for k, w in enumerate(weights)]
            biases = [np.zeros(e) if bias_rng is None else bias_rng.normal(0.0, 0.5, e)
                      for e in dims[1:]]
            original, pruned = (
                MlpPolicy(layers=tuple(Layer(w, b, identity) for w, b in zip(ws, biases)))
                for ws in (weights, pruned_weights)
            )
            radius = float(rng.choice([0.5, 1.0, 3.0]))
            space = StateSpaceSpec(dim=dims[0], radius=radius)
            budget = certify(original, pruned, space, n=1, seed=0).budget
            p, p_hat = (np.linalg.multi_dot([*ws[::-1], np.eye(dims[0])])
                        for ws in (weights, pruned_weights))
            chains = []
            for ws in (weights, pruned_weights):
                c = np.zeros(dims[0])
                for w, b in zip(ws, biases):
                    c = w @ c + b
                chains.append(c)
            worst = math.hypot(radius * np.linalg.norm(p - p_hat, 2),
                               np.linalg.norm(chains[0] - chains[1]))
            # 1e-12 relative for the rounding of the products and the SVD
            assert budget >= worst * (1.0 - 1e-12)
            ratios.append(worst / budget if budget > 0 else 0.0)
        return ratios
