import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CERTIFIED_SAMPLES, naive_forward, random_policy
from prunecert import policy
from prunecert.policy import (
    ActivationKind,
    Layer,
    MlpPolicy,
    apply_activation,
    forward,
    forward_batch,
    load_policy,
    policy_from_dict,
    policy_to_dict,
    save_policy,
)


class TestActivationKind:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ActivationKind("gelu")
        with pytest.raises(ValueError):
            ActivationKind("tanh")

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.5, float("nan")])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError):
            ActivationKind("leaky_relu", alpha)

    def test_alpha_one_allowed(self):
        assert ActivationKind("elu", 1.0).alpha == 1.0


class TestApplyActivation:
    def test_relu(self):
        np.testing.assert_array_equal(
            apply_activation(ActivationKind("relu"), [-1.0, 2.0, 0.0]),
            [0.0, 2.0, 0.0],
        )

    def test_leaky_relu(self):
        np.testing.assert_array_equal(
            apply_activation(ActivationKind("leaky_relu", 0.1), [-10.0]), [-1.0]
        )

    def test_elu_zero_anchor(self):
        np.testing.assert_array_equal(
            apply_activation(ActivationKind("elu", 1.0), [0.0]), [0.0]
        )

    def test_identity(self):
        np.testing.assert_array_equal(
            apply_activation(ActivationKind("identity"), [-3.0, 5.0]), [-3.0, 5.0]
        )

    @pytest.mark.parametrize("kind", CERTIFIED_SAMPLES, ids=lambda k: f"{k.kind}-{k.alpha}")
    def test_zero_anchor(self, kind):
        np.testing.assert_array_equal(
            apply_activation(kind, np.zeros(4)), np.zeros(4)
        )

    @pytest.mark.parametrize("kind", CERTIFIED_SAMPLES, ids=lambda k: f"{k.kind}-{k.alpha}")
    def test_non_expansive_vectors(self, kind):
        rng = np.random.default_rng(0)
        x = rng.normal(scale=3.0, size=(100_000, 8))
        y = apply_activation(kind, x)
        assert (
            np.linalg.norm(y, axis=1) <= np.linalg.norm(x, axis=1)
        ).all(), f"{kind.kind} expanded a vector"

    @pytest.mark.parametrize("kind", CERTIFIED_SAMPLES, ids=lambda k: f"{k.kind}-{k.alpha}")
    def test_unit_lipschitz_scalar_pairs(self, kind):
        rng = np.random.default_rng(1)
        a = rng.normal(scale=5.0, size=100_000)
        b = rng.normal(scale=5.0, size=100_000)
        fa = apply_activation(kind, a)
        fb = apply_activation(kind, b)
        assert (np.abs(fa - fb) <= np.abs(a - b) + 1e-15).all()

    @given(st.floats(-50, 50), st.floats(-50, 50))
    @settings(max_examples=200, deadline=None)
    def test_elu_contraction_property(self, a, b):
        kind = ActivationKind("elu", 0.7)
        fa = float(apply_activation(kind, np.array([a]))[0])
        fb = float(apply_activation(kind, np.array([b]))[0])
        assert abs(fa - fb) <= abs(a - b) + 1e-12


def _single_layer(w, kind=None):
    return MlpPolicy(
        layers=(
            Layer(
                weight=np.atleast_2d(np.asarray(w, dtype=float)),
                bias=np.zeros(np.atleast_2d(w).shape[0]),
                activation=kind or ActivationKind("relu"),
            ),
        )
    )


class TestForward:
    def test_one_layer_positive(self):
        p = _single_layer([[1.0]])
        np.testing.assert_array_equal(forward(p, [2.0]), [2.0])

    def test_one_layer_negative_clipped(self):
        p = _single_layer([[1.0]])
        np.testing.assert_array_equal(forward(p, [-2.0]), [0.0])

    def test_two_layer_hand_trace(self):
        # layer 1 maps 3 -> (3, -3) -> relu (3, 0); layer 2 sums -> 3
        p = MlpPolicy(
            layers=(
                Layer(weight=[[1.0], [-1.0]], bias=[0.0, 0.0], activation=ActivationKind("relu")),
                Layer(weight=[[1.0, 1.0]], bias=[0.0], activation=ActivationKind("relu")),
            )
        )
        np.testing.assert_array_equal(forward(p, [3.0]), [3.0])

    def test_dimension_mismatch(self):
        p = _single_layer([[1.0, 2.0]])
        with pytest.raises(ValueError, match="dim"):
            forward(p, [1.0])

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(2)
        p = random_policy(rng, depth=3)
        s = rng.normal(size=p.input_dim)
        a = forward(p, s)
        b = forward(p, s)
        np.testing.assert_array_equal(a, b)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = random_policy(rng, depth=int(rng.integers(1, 4)), max_width=6)
            s = rng.normal(size=p.input_dim)
            np.testing.assert_allclose(forward(p, s), naive_forward(p, s), rtol=1e-12, atol=1e-12)

    def test_matches_naive_oracle_on_tiny_elu_preactivations(self):
        # pre-activations near -1e-17, where exp(z) - 1 cancels to 0.0
        elu = ActivationKind("elu", 0.5)
        p = MlpPolicy(layers=(Layer(weight=[[1.0], [3.0], [0.25]], bias=[0.0, 0.0, -1e-17],
                                    activation=elu),))
        s = [-1e-17]
        np.testing.assert_allclose(forward(p, s), naive_forward(p, s), rtol=1e-15, atol=0)
        assert (forward(p, s) < 0).all()

    def test_batch_matches_single(self):
        rng = np.random.default_rng(4)
        p = random_policy(rng, depth=3, max_width=8)
        states = rng.normal(size=(p.input_dim, 17))
        batch = forward_batch(p, states)
        for j in range(17):
            np.testing.assert_allclose(batch[:, j], forward(p, states[:, j]), atol=1e-14)


class TestLipschitzUpper:
    """The product of the layers' spectral norms bounds the Lipschitz constant,
    since every certified activation is non-expansive."""

    def test_identity_weights(self):
        p = MlpPolicy(
            layers=tuple(
                Layer(weight=np.eye(3), bias=np.zeros(3), activation=ActivationKind("relu"))
                for _ in range(3)
            )
        )
        assert math.prod(p.weight_spectral_norms) == pytest.approx(1.0, rel=1e-10)

    def test_diagonal_product(self):
        p = MlpPolicy(
            layers=(
                Layer(weight=2.0 * np.eye(2), bias=np.zeros(2), activation=ActivationKind("relu")),
                Layer(weight=3.0 * np.eye(2), bias=np.zeros(2), activation=ActivationKind("relu")),
            )
        )
        assert math.prod(p.weight_spectral_norms) == pytest.approx(6.0, rel=1e-10)

    def test_bounds_finite_difference_slopes(self):
        rng = np.random.default_rng(7)
        p = random_policy(rng, depth=3, max_width=10)
        lip = math.prod(p.weight_spectral_norms)
        s = rng.normal(size=(1000, p.input_dim))
        t = rng.normal(size=(1000, p.input_dim))
        outs_s = forward_batch(p, s.T)
        outs_t = forward_batch(p, t.T)
        num = np.linalg.norm(outs_s - outs_t, axis=0)
        den = np.linalg.norm(s - t, axis=1)
        keep = den > 0
        assert (num[keep] <= lip * den[keep] * (1.0 + 1e-9)).all()

    def test_pairwise_bound_property(self):
        rng = np.random.default_rng(8)
        p = random_policy(rng, depth=2, max_width=6)
        lip = math.prod(p.weight_spectral_norms)
        for _ in range(100):
            a = rng.normal(size=p.input_dim)
            b = rng.normal(size=p.input_dim)
            lhs = np.linalg.norm(forward(p, a) - forward(p, b))
            assert lhs <= lip * np.linalg.norm(a - b) + 1e-9


class TestStructuralValidation:
    def test_bias_dim_must_match_rows(self):
        with pytest.raises(ValueError):
            Layer(weight=[[1.0, 2.0]], bias=[0.0, 0.0], activation=ActivationKind("relu"))

    def test_layer_dims_must_chain(self):
        l1 = Layer(weight=[[1.0], [2.0]], bias=[0.0, 0.0], activation=ActivationKind("relu"))
        l2 = Layer(weight=[[1.0, 2.0, 3.0]], bias=[0.0], activation=ActivationKind("relu"))
        with pytest.raises(ValueError):
            MlpPolicy(layers=(l1, l2))

    def test_rejects_nonfinite_weights(self):
        with pytest.raises(ValueError):
            Layer(weight=[[np.nan]], bias=[0.0], activation=ActivationKind("relu"))

    def test_empty_policy_rejected(self):
        with pytest.raises(ValueError):
            MlpPolicy(layers=())

    def test_weights_are_frozen(self):
        p = _single_layer([[1.0]])
        with pytest.raises(ValueError):
            p.layers[0].weight[0, 0] = 2.0


class TestModelJson:
    def test_round_trip_values(self, tmp_path):
        rng = np.random.default_rng(9)
        p = random_policy(rng, depth=3, max_width=7)
        path = tmp_path / "model.json"
        save_policy(p, path)
        q = load_policy(path)
        assert q.num_layers == p.num_layers
        for la, lb in zip(p.layers, q.layers):
            np.testing.assert_array_equal(la.weight, lb.weight)
            np.testing.assert_array_equal(la.bias, lb.bias)
            assert la.activation == lb.activation

    def test_reserialization_is_byte_stable(self, tmp_path):
        rng = np.random.default_rng(10)
        p = random_policy(rng, depth=2)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_policy(p, a)
        save_policy(load_policy(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_schema_shape(self):
        p = _single_layer([[1.0, -0.5]])
        d = policy_to_dict(p)
        assert d["layers"][0]["weights"] == [[1.0, -0.5]]
        assert d["layers"][0]["activation"]["kind"] == "relu"

    def test_parse_error_names_field(self):
        with pytest.raises(ValueError, match=r"layers\[0\]"):
            policy_from_dict({"layers": [{"weights": [[1.0], [2.0, 3.0]],
                                          "bias": [0.0], "activation": {"kind": "relu"}}]})

    def test_parse_error_on_syntax_has_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match=r":\d+:\d+"):
            load_policy(path)

    def test_alpha_round_trips(self, tmp_path):
        p = MlpPolicy(
            layers=(
                Layer(weight=[[1.0]], bias=[0.0], activation=ActivationKind("leaky_relu", 0.1)),
            )
        )
        path = tmp_path / "m.json"
        save_policy(p, path)
        raw = json.loads(path.read_text())
        assert raw["layers"][0]["activation"]["alpha"] == 0.1
        assert load_policy(path).layers[0].activation.alpha == 0.1


FIXTURES = Path(__file__).parent / "fixtures"

# what the artifacts hold, plus every other JSON value the writer may meet:
# float lists with non-finite entries, pairs holding bools, int-keyed dicts
_json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text()
    | st.lists(st.floats(allow_nan=False, allow_infinity=False))
    | st.lists(st.floats())
    | st.lists(st.lists(st.integers(), min_size=2, max_size=2))
    | st.lists(st.lists(st.integers() | st.booleans(), min_size=2, max_size=2))
)
_json_values = st.recursive(
    _json_leaves,
    lambda children: (
        st.lists(children)
        | st.dictionaries(st.text(), children)
        | st.dictionaries(st.integers(), children)
    ),
    max_leaves=40,
)


def _dumped(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


class TestCanonicalJson:
    """``_write_json`` writes the bytes of ``json.dump(indent=2,
    sort_keys=True)`` plus a newline."""

    @given(_json_values)
    @example({"rows": [[1.0, float("inf")], [float("nan"), -0.0]], "pairs": [[1, True]],
              "nested": {"k": {2: [0.5, 1.5], 1: {}}}})
    @settings(max_examples=100, deadline=None)
    def test_bytes_match_json_dumps(self, tmp_path_factory, obj):
        path = tmp_path_factory.getbasetemp() / "canonical.json"
        policy._write_json(path, obj)
        assert path.read_bytes() == _dumped(obj).encode("utf-8")

    @pytest.mark.parametrize(
        "n", [policy._CHUNK - 1, policy._CHUNK, policy._CHUNK + 1, 2 * policy._CHUNK + 1]
    )
    def test_chunk_boundaries(self, tmp_path, n):
        rng = np.random.default_rng(n)
        obj = {
            "mask": rng.integers(-(2**40), 2**40, size=(n, 2)).tolist(),
            "rows": [rng.standard_normal(n).tolist()],
        }
        path = tmp_path / "long.json"
        policy._write_json(path, obj)
        assert path.read_text(encoding="utf-8") == _dumped(obj)

    @pytest.mark.parametrize("fixture", ["pendulum_policy.json", "double_integrator_policy.json"])
    def test_fixtures_round_trip_byte_for_byte(self, tmp_path, fixture):
        path = tmp_path / fixture
        save_policy(load_policy(FIXTURES / fixture), path)
        assert path.read_bytes() == (FIXTURES / fixture).read_bytes()
