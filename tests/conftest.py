import numpy as np

from prunecert.policy import ActivationKind, Layer, MlpPolicy

CERTIFIED_SAMPLES = (
    ActivationKind("relu"),
    ActivationKind("leaky_relu", 0.1),
    ActivationKind("prelu", 0.25),
    ActivationKind("elu", 1.0),
    ActivationKind("elu", 0.5),
    ActivationKind("identity"),
)


def random_activation(rng) -> ActivationKind:
    kind = str(rng.choice(["relu", "leaky_relu", "prelu", "elu", "identity"]))
    alpha = float(rng.uniform(0.05, 1.0))
    return ActivationKind(kind, alpha)


def random_policy(
    rng,
    depth: int | None = None,
    dims=None,
    max_width: int = 32,
    bias_scale: float = 0.1,
) -> MlpPolicy:
    """Random policy with fan-in-scaled gaussian weights (std 1/sqrt(width))."""
    if dims is None:
        if depth is None:
            depth = int(rng.integers(1, 6))
        dims = [int(rng.integers(1, max_width + 1)) for _ in range(depth + 1)]
    layers = []
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        w = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_out, fan_in))
        b = rng.normal(0.0, bias_scale, size=fan_out)
        layers.append(Layer(weight=w, bias=b, activation=random_activation(rng)))
    return MlpPolicy(layers=tuple(layers))


def naive_forward(p: MlpPolicy, s):
    """Second, loop-based forward implementation used as an oracle."""
    import math

    def phi(kind, x):
        if kind.kind == "relu":
            return max(0.0, x)
        if kind.kind in ("leaky_relu", "prelu"):
            return x if x >= 0 else kind.alpha * x
        if kind.kind == "elu":
            return x if x >= 0 else kind.alpha * (math.exp(x) - 1.0)
        return x

    x = [float(v) for v in s]
    for layer in p.layers:
        z = []
        for r in range(layer.weight.shape[0]):
            acc = float(layer.bias[r])
            for c in range(layer.weight.shape[1]):
                acc += float(layer.weight[r, c]) * x[c]
            z.append(acc)
        x = [phi(layer.activation, v) for v in z]
    return np.array(x)


def reference_ranking(p: MlpPolicy, calib, layers, damping=0.0, diagonal=False):
    """Per-weight reference for ``rank_weights``: ``(saliency, layer, row, col)``
    tuples from the same saliency matrix, ordered by a Python sort key."""
    from prunecert import linalg

    entries = []
    for k in sorted(set(layers)):
        x = calib.inputs[k]
        w = p.layers[k].weight
        h = linalg.gram(x)
        lam = linalg.auto_damping(h) if damping == "auto" else float(damping)
        if diagonal:
            hqq = np.diag(h) + lam
            sal = np.where(hqq > 0.0, 0.5 * w * w * hqq[None, :], 0.0)
        else:
            sal = 0.5 * w * w / np.diag(linalg.damped_inverse(h, lam))[None, :]
        for r in range(w.shape[0]):
            for c in range(w.shape[1]):
                entries.append((float(sal[r, c]), k, r, c))
    return sorted(entries, key=lambda e: (e[0], e[1], e[2], e[3]))


def ranking_tuples(ranking):
    """``(saliency, layer, row, col)`` of each entry of a ``Ranking``, in order."""
    return list(
        zip(
            ranking.saliency.tolist(),
            ranking.layer.tolist(),
            ranking.row.tolist(),
            ranking.col.tolist(),
        )
    )
