from pathlib import Path

import numpy as np
import pytest

from conftest import random_policy, scaled_certificate
from prunecert.certifier import StateSpaceSpec, certify
from prunecert.controlsim import (
    BlowUpError,
    DoubleIntegrator,
    LinearSystem,
    Pendulum,
    Trajectory,
    deviation_audit,
    rollout,
    step,
)
from prunecert.policy import ActivationKind, Layer, MlpPolicy, load_policy
from prunecert.pruner import apply_plan, collect_calibration, rank_weights

FIXTURES = Path(__file__).parent / "fixtures"


def _one_layer(weight):
    w = np.asarray(weight, dtype=float)
    return MlpPolicy(
        layers=(Layer(weight=w, bias=np.zeros(w.shape[0]), activation=ActivationKind("relu")),)
    )


def _zero_policy(state_dim, action_dim):
    return MlpPolicy(
        layers=(
            Layer(
                weight=np.zeros((action_dim, state_dim)),
                bias=np.zeros(action_dim),
                activation=ActivationKind("relu"),
            ),
        )
    )


class TestStep:
    def test_identity_linear_system(self):
        d = LinearSystem(a=np.eye(2), b=np.zeros((2, 1)))
        x = np.array([0.3, -0.7])
        np.testing.assert_array_equal(step(d, x, [5.0]), x)

    def test_double_integrator_euler_kinematics(self):
        d = DoubleIntegrator(dt=0.1)
        np.testing.assert_allclose(step(d, [0.0, 1.0], [0.0]), [0.1, 1.0], atol=1e-15)

    def test_pendulum_equilibrium(self):
        d = Pendulum()
        np.testing.assert_array_equal(step(d, [0.0, 0.0], [0.0]), [0.0, 0.0])

    def test_double_integrator_equilibrium(self):
        d = DoubleIntegrator()
        np.testing.assert_array_equal(step(d, [0.0, 0.0], [0.0]), [0.0, 0.0])

    def test_action_clipped_before_integration(self):
        d = DoubleIntegrator(dt=0.1, accel_limit=1.0)
        np.testing.assert_allclose(step(d, [0.0, 0.0], [100.0]), [0.0, 0.1], atol=1e-15)

    def test_state_clipped_to_box(self):
        d = DoubleIntegrator(dt=0.1, state_box=(np.array([-1.0, -0.5]), np.array([1.0, 0.5])))
        nxt = step(d, [0.95, 0.4], [50.0])
        assert nxt[1] == 0.5

    def test_blow_up_detected(self):
        d = LinearSystem(a=np.eye(1) * 1e308, b=np.eye(1))
        with pytest.raises(BlowUpError):
            step(d, [1e100], [0.0])

    def test_dim_checks(self):
        d = Pendulum()
        with pytest.raises(ValueError):
            step(d, [1.0], [0.0])
        with pytest.raises(ValueError):
            step(d, [0.0, 0.0], [0.0, 0.0])


NAN, INF = float("nan"), float("inf")


class TestParameterChecks:
    """A NaN, infinite or nonpositive physical parameter, and a NaN or
    negative action limit, fail at construction: a NaN passes ``<= 0``,
    and ``np.clip(u, 1, -1)`` turns every action into -1."""

    def test_double_integrator(self):
        for kwargs in ({"dt": NAN}, {"dt": INF}, {"dt": 0.0},
                       {"accel_limit": NAN}, {"accel_limit": -1.0}):
            with pytest.raises(ValueError, match=next(iter(kwargs))):
                DoubleIntegrator(**kwargs)
        assert DoubleIntegrator(accel_limit=0.0).action_limit == 0.0

    def test_pendulum(self):
        bad = [{name: v} for name in ("dt", "gravity", "length", "mass") for v in (NAN, INF, -1.0)]
        for kwargs in bad + [{"torque_limit": NAN}, {"torque_limit": -1.0}]:
            with pytest.raises(ValueError, match=next(iter(kwargs))):
                Pendulum(**kwargs)
        assert Pendulum(torque_limit=INF).action_limit == INF

    def test_linear_system(self):
        for limit in (NAN, -1.0, -INF):
            with pytest.raises(ValueError, match="action_limit"):
                LinearSystem(a=np.eye(2), b=np.ones((2, 1)), action_limit=limit)
        d = LinearSystem(a=np.eye(2), b=np.ones((2, 1)), action_limit=0.0)
        np.testing.assert_array_equal(step(d, [1.0, 2.0], [5.0]), [1.0, 2.0])


class TestRollout:
    def test_zero_policy_constant_trajectory(self):
        d = LinearSystem(a=np.eye(2), b=np.zeros((2, 1)))
        p = _zero_policy(2, 1)
        traj = rollout(d, p, [0.4, -0.2], 25)
        assert traj.states.shape == (26, 2)
        assert traj.actions.shape == (25, 1)
        for s in traj.states:
            np.testing.assert_array_equal(s, [0.4, -0.2])

    def test_single_step_consistent_with_step(self):
        d = DoubleIntegrator(dt=0.1)
        p = _zero_policy(2, 1)
        traj = rollout(d, p, [1.0, 2.0], 1)
        np.testing.assert_array_equal(traj.states[1], step(d, [1.0, 2.0], [0.0]))

    def test_horizon_must_be_positive(self):
        with pytest.raises(ValueError):
            rollout(DoubleIntegrator(), _zero_policy(2, 1), [0.0, 0.0], 0)

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(0)
        p = random_policy(rng, dims=[2, 6, 1])
        d = Pendulum(torque_limit=3.0)
        a = rollout(d, p, [0.2, 0.1], 50)
        b = rollout(d, p, [0.2, 0.1], 50)
        for sa, sb in zip(a.states, b.states):
            np.testing.assert_array_equal(sa, sb)

    def test_pendulum_fixture_stabilizes(self):
        p = load_policy(FIXTURES / "pendulum_policy.json")
        d = Pendulum(torque_limit=5.0)
        traj = rollout(d, p, [0.5, 0.0], 500)
        assert np.linalg.norm(traj.states[-1]) < np.linalg.norm(traj.states[0])

    def test_double_integrator_fixture_stabilizes(self):
        p = load_policy(FIXTURES / "double_integrator_policy.json")
        d = DoubleIntegrator()
        traj = rollout(d, p, [1.0, 0.0], 500)
        assert np.linalg.norm(traj.states[-1]) < 1e-6

    def test_blow_up_carries_step_index_and_partial(self):
        d = LinearSystem(a=np.eye(1) * 1e200, b=np.zeros((1, 1)))
        p = _zero_policy(1, 1)
        with pytest.raises(BlowUpError) as err:
            rollout(d, p, [1.0], 10)
        assert err.value.t == 1  # 1e200 -> 1e400 overflows on the second step
        partial = err.value.partial
        assert partial is not None
        assert len(partial.states) == err.value.t + 1
        assert len(partial.actions) == err.value.t
        for a in (partial.states, partial.actions):
            assert a.ndim == 2
            assert not a.flags.writeable

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_action_is_a_blow_up(self):
        # the position reaches 1e180 at t=2, where relu(1e160 * 1e180) is inf
        d = DoubleIntegrator(dt=1e160)
        with pytest.raises(BlowUpError) as err:
            rollout(d, _one_layer([[1e160, 0.0]]), [1e-300, 0.0], 5)
        assert err.value.t == 2
        partial = err.value.partial
        assert partial.states.tolist() == [[1e-300, 0.0], [1e-300, 1e20], [1e180, 2e20]]
        assert partial.actions.tolist() == [[1e-140], [1e-140]]

    def test_x0_outside_box_rejected(self):
        d = DoubleIntegrator(state_box=(np.array([-1.0, -1.0]), np.array([1.0, 1.0])))
        with pytest.raises(ValueError):
            rollout(d, _zero_policy(2, 1), [2.0, 0.0], 5)


class TestTrajectory:
    def test_length_invariant(self):
        with pytest.raises(ValueError):
            Trajectory(states=(np.zeros(2),), actions=(np.zeros(1),))
        with pytest.raises(ValueError):  # ragged states
            Trajectory(states=(np.zeros(2), np.zeros(3)), actions=(np.zeros(1),))
        with pytest.raises(ValueError):  # 1-D states
            Trajectory(states=np.zeros(2), actions=np.zeros((1, 1)))


def _pruned_pair(seed=1):
    rng = np.random.default_rng(seed)
    p = load_policy(FIXTURES / "pendulum_policy.json")
    states = [rng.uniform(-1.0, 1.0, size=2) for _ in range(16)]
    calib = collect_calibration(p, states)
    entries = rank_weights(p, calib, [0], damping="auto")
    pruned, _ = apply_plan(p, entries, 2)  # 50% of layer 0
    return p, pruned


class TestDeviationAudit:
    def _cert(self, p, pruned, radius=3.0):
        return certify(p, pruned, StateSpaceSpec(dim=2, radius=radius), n=100, seed=0)

    def test_identical_policies_zero_deviation(self):
        p, _ = _pruned_pair()
        cert = self._cert(p, p)
        d = Pendulum(torque_limit=5.0)
        report = deviation_audit(d, p, p, cert, [0.5, 0.0], 50)
        assert report.max_in_ball_deviation == 0.0
        assert report.in_ball_violations == 0
        assert report.max_divergence == 0.0

    def test_certified_pair_no_in_ball_violations(self):
        p, pruned = _pruned_pair()
        cert = self._cert(p, pruned)
        d = Pendulum(
            torque_limit=5.0,
            state_box=(np.array([-np.pi, -8.0]), np.array([np.pi, 8.0])),
        )
        report = deviation_audit(d, p, pruned, cert, [0.5, 0.0], 500)
        assert report.in_ball_count > 0
        assert report.in_ball_violations == 0

    def test_bounds_scale_exactly_with_doubled_plan(self):
        p, pruned = _pruned_pair()
        cert = self._cert(p, pruned)
        cert2 = scaled_certificate(cert, 2.0)
        d = Pendulum(torque_limit=5.0)
        a = deviation_audit(d, p, pruned, cert, [0.3, 0.0], 40)
        b = deviation_audit(d, p, pruned, cert2, [0.3, 0.0], 40)
        for la, lb in zip(a.loops, b.loops, strict=True):
            assert la.bound.shape == lb.bound.shape == (41,)
            assert (lb.bound == 2.0 * la.bound).all()

    def test_rows_cover_both_trajectories(self):
        p, pruned = _pruned_pair()
        cert = self._cert(p, pruned)
        d = Pendulum(torque_limit=5.0)
        report = deviation_audit(d, p, pruned, cert, [0.5, 0.0], 30)
        assert [loop.label for loop in report.loops] == ["original", "pruned"]
        for loop in report.loops:
            assert loop.states.shape == (31, 2)
            assert loop.actions.shape == (31, 1)
            for a in (loop.deviation, loop.bound, loop.in_ball):
                assert a.shape == (31,)
        assert len(report.divergence) == 31

    def test_out_of_ball_states_flagged_not_counted(self):
        p, pruned = _pruned_pair()
        cert = self._cert(p, pruned, radius=0.1)  # tiny certified ball
        d = Pendulum(torque_limit=5.0)
        report = deviation_audit(d, p, pruned, cert, [0.5, 0.0], 30)
        assert report.out_of_ball_count > 0
        outside = 0
        for loop in report.loops:
            for state in loop.states[~loop.in_ball]:
                assert np.linalg.norm(state) > cert.radius
                outside += 1
        assert outside == report.out_of_ball_count

    def test_huge_outputs_do_not_overflow(self):
        # the state stays at (0.5, 0), where the outputs differ by 5e159,
        # whose square overflows; the bound there is 5e159 rounded outward
        original = _one_layer([[1e160, 0.0]])
        pruned = _one_layer([[0.0, 0.0]])
        cert = certify(original, pruned, StateSpaceSpec(dim=2, radius=1.0), n=100, seed=0)
        d = LinearSystem(a=np.eye(2), b=np.zeros((2, 1)))
        report = deviation_audit(d, original, pruned, cert, [0.5, 0.0], 3)
        for loop in report.loops:
            assert loop.deviation.tolist() == [5e159] * 4
            assert (loop.bound >= 5e159).all()
        assert report.in_ball_count == 8
        assert report.in_ball_violations == 0
        assert report.max_in_ball_deviation == 5e159

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_nan_deviation_is_an_in_ball_violation(self):
        # at x0 = (1, 1) both policies output inf, so the deviation is NaN;
        # the loops blow up there, and the one state each visited is a violation
        original = _one_layer([[1e308, 1e308]])
        pruned = _one_layer([[1e308, np.nextafter(1e308, 0.0)]])
        box = (np.array([1.0, 1.0]), np.array([2.0, 2.0]))
        space = StateSpaceSpec(dim=2, radius=3.0, box=box)
        cert = certify(original, pruned, space, n=1000, seed=0)
        report = deviation_audit(DoubleIntegrator(), original, pruned, cert, [1.0, 1.0], 5)
        assert report.blowup == ("original", 0)
        assert report.in_ball_count == 2
        assert report.in_ball_violations == 2
        assert np.isnan(report.max_in_ball_deviation)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_blow_up_recorded_with_partial_rows(self):
        explode = MlpPolicy(
            layers=(
                Layer(weight=[[1e160, 0.0]], bias=[0.0], activation=ActivationKind("identity")),
            )
        )
        calm = _zero_policy(2, 1)
        d = DoubleIntegrator(dt=1e160)
        cert = certify(calm, calm, StateSpaceSpec(dim=2, radius=1.0), n=100, seed=0)
        report = deviation_audit(d, calm, explode, cert, [0.5, 0.0], 10)
        assert report.blowup is not None
        assert report.blowup[0] == "pruned"
        original, truncated = report.loops
        assert len(original.states) == 11
        assert len(truncated.states) == report.blowup[1] + 1
