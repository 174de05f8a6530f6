import math
from dataclasses import replace

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

    def phi(kind, x):
        if kind.kind == "relu":
            return max(0.0, x)
        if kind.kind in ("leaky_relu", "prelu"):
            return x if x >= 0 else kind.alpha * x
        if kind.kind == "elu":
            return x if x >= 0 else kind.alpha * math.expm1(x)
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


def _ck_oracle(wnorms, bnorms, k1, snorm):
    """Independent evaluation of the layer constant, written directly from the
    1-indexed formula: ||s|| prod_{l != k} w_l + sum_{i<k} (prod_{l>i, l != k} w_l) b_i."""
    L = len(wnorms)
    prod = 1.0
    for l in range(1, L + 1):
        if l != k1:
            prod *= wnorms[l - 1]
    total = snorm * prod
    for i in range(1, k1):
        term = bnorms[i - 1]
        for l in range(i + 1, L + 1):
            if l != k1:
                term *= wnorms[l - 1]
        total += term
    return total


def scaled_certificate(cert, factor: float):
    """``cert`` with every row's delta norm multiplied by ``factor``."""
    return replace(
        cert,
        rows=tuple(replace(r, delta_spectral=r.delta_spectral * factor) for r in cert.rows),
    )


def scaled_norm(v) -> float:
    """Oracle 2-norm that never squares out of range: ``v`` is always scaled
    by the power of two that brings its largest entry into [1/2, 1), which is
    exact, and the 1-D norm of the result scaled back."""
    v = np.asarray(v, dtype=float)
    peak = float(np.abs(v).max())
    if peak == 0.0 or not math.isfinite(peak):
        return float(np.linalg.norm(v))
    exp = math.frexp(peak)[1]
    return math.ldexp(float(np.linalg.norm(np.ldexp(v, -exp))), exp)


def reference_ranking(p: MlpPolicy, calib, layers, damping=0.0, diagonal=False):
    """Per-weight reference for ``rank_weights``: ``(saliency, layer, row, col)``
    tuples from the same saliency matrix, ordered by a Python sort key.  Under
    auto damping an all-zero curvature block scores every weight 0."""
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
        elif damping == "auto" and not h.any():
            sal = np.zeros(w.shape)  # a dead layer: every removal is free
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


def reference_simulation(d, original: MlpPolicy, pruned: MlpPolicy, cert, x0, horizon: int):
    """Per-state reference for ``prunecert simulate``.

    Each closed loop is stepped with ``forward`` and ``step``; every state it
    visits is then fed to both policies one state at a time, and its CSV row
    is written cell by cell.  Returns ``(tables, report)``: per loop label the
    trajectory CSV as lists of cells, header first, and the deviation report
    without its ``dynamics``, ``horizon`` and ``timestamp`` fields.  A loop
    blows up when its action or its next state is non-finite.  Every norm
    is ``scaled_norm`` and every bound ``_ck_oracle``; an in-ball state is a
    violation unless its deviation is at most bound + slack, so NaN is one.
    """
    from prunecert.certifier import AUDIT_SLACK
    from prunecert.controlsim import BlowUpError, step
    from prunecert.policy import forward

    loops = (("original", original), ("pruned", pruned))
    visited = {}
    blowup = None
    for label, p in loops:
        x = np.asarray(x0, dtype=float)
        states = [x]
        for t in range(horizon):
            u = forward(p, x)
            try:
                x = step(d, x, u) if np.isfinite(u).all() else None
            except BlowUpError:
                x = None
            if x is None:
                if blowup is None:
                    blowup = {"trajectory": label, "t": t}
                break
            states.append(x)
        visited[label] = states

    state_dim, action_dim = d.state_dim, original.output_dim
    header = (
        ["t"]
        + [f"x{i}" for i in range(state_dim)]
        + [f"u{i}" for i in range(action_dim)]
        + ["deviation", "bound", "in_ball"]
    )
    wnorms, bnorms = original.weight_spectral_norms, original.bias_norms
    tables = {}
    inside_count = outside_count = violations = 0
    max_dev = 0.0
    for label, p in loops:
        table = [header]
        for t, x in enumerate(visited[label]):
            dev = scaled_norm(forward(original, x) - forward(pruned, x))
            snorm = scaled_norm(x)
            bound = 0.0
            for k, dn in cert.delta_norms():
                bound += dn * _ck_oracle(wnorms, bnorms, k + 1, snorm)
            inside = snorm <= cert.radius
            if inside:
                inside_count += 1
                violations += not dev <= bound + AUDIT_SLACK
                max_dev = max(max_dev, dev)
            else:
                outside_count += 1
            table.append(
                [str(t)]
                + [repr(float(v)) for v in x]
                + [repr(float(v)) for v in forward(p, x)]
                + [repr(dev), repr(bound), str(int(inside))]
            )
        if blowup is not None and blowup["trajectory"] == label:
            table.append(
                [str(len(visited[label]))] + ["nan"] * (state_dim + action_dim + 2) + ["blowup"]
            )
        tables[label] = table

    shared = zip(visited["original"], visited["pruned"])
    report = {
        "budget": cert.budget,
        "radius": cert.radius,
        "in_ball_count": inside_count,
        "out_of_ball_count": outside_count,
        "in_ball_violations": violations,
        "max_in_ball_deviation": max_dev,
        "max_divergence_observed_uncertified": max(scaled_norm(a - b) for a, b in shared),
        "blowup": blowup,
        "holds_along_visited_states": violations == 0,
    }
    return tables, report
