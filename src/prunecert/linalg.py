"""Dense matrix and vector primitives shared by the whole toolkit.

Spectral norms are exact eigenvalue computations rounded outward, so every
norm that feeds a certificate is a guaranteed upper bound.  A vector's
Euclidean norm has the same bits alone or in any batch, in any memory
layout.  The symmetric inverse accepts Tikhonov damping for rank-deficient
curvature blocks.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "SingularMatrixError",
    "as_matrix",
    "as_vector",
    "as_box",
    "spectral_norm",
    "spectral_norm_ceiling",
    "vector_norm",
    "gram",
    "auto_damping",
    "damped_inverse",
]

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)

# rcond below this is treated as singular (cond ~ 1e13 at float64)
_RCOND_FLOOR = 1e-13

_NORM_LOW, _NORM_HIGH = 2.0**-400, 2.0**400


class SingularMatrixError(ValueError):
    """Inversion hit an exactly or numerically singular matrix."""


def _frozen(a: np.ndarray) -> np.ndarray:
    """Read-only copy, so frozen dataclasses cannot be mutated through arrays."""
    out = a.copy()
    out.setflags(write=False)
    return out


def _up(x: float) -> float:
    """One ulp outward from a rounded result, so it is at least the exact one."""
    return math.nextafter(x, math.inf)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a nonempty, finite, float64 2-D array."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.size == 0:
        raise ValueError(f"{name} must be a nonempty 2-D array, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def as_vector(a, name: str = "vector") -> np.ndarray:
    """Coerce to a nonempty, finite, float64 1-D array."""
    v = np.asarray(a, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-D array, got shape {v.shape}")
    # a list of floats tests a few entries (states, actions) ~5x faster than
    # np.isfinite; on hundreds (biases) tolist costs more
    finite = all(map(math.isfinite, v.tolist())) if v.size <= 16 else np.isfinite(v).all()
    if not finite:
        raise ValueError(f"{name} contains non-finite entries")
    return v


def as_box(box, dim: int, name: str = "box"):
    """Read-only ``(lo, hi)`` of an axis box: finite ``dim``-vectors with
    ``lo <= hi``.  ``None`` and ``(None, None)`` are no box."""
    if box is None or (box[0] is None and box[1] is None):
        return None
    if box[0] is None or box[1] is None:
        raise ValueError(f"provide both {name} bounds or neither")
    lo, hi = as_vector(box[0], f"{name} low"), as_vector(box[1], f"{name} high")
    if lo.shape[0] != dim or hi.shape[0] != dim:
        raise ValueError(f"{name} bounds must match the state dimension")
    if (lo > hi).any():
        raise ValueError(f"{name} low bound exceeds high bound")
    return _frozen(lo), _frozen(hi)


def _norm_allowance(shape) -> float:
    """Coefficient ``c`` of the rounding allowance in ``spectral_norm``.

    For an ``m x n`` input with ``k = max(m, n)`` and ``n' = min(m, n)`` it is
    ``(k + 4 n'^2) * eps``.  ``spectral_norm`` returns at least ``sigma``
    and, since the computed eigenvalue errs by at most half of ``c * F2``
    either way, at most ``sqrt(sigma^2 + 2 c F2) * (1 + 8 eps)``, where
    ``F2 = ||A||_F^2``; a subnormal result, stepped one ulp outward after
    rounding, may exceed that by up to two ulps.
    """
    k, n = max(shape), min(shape)
    return (k + 4.0 * n * n) * _EPS


def spectral_norm(m) -> float:
    """Guaranteed upper bound on the largest singular value.

    ``sqrt(lambda_max)`` of the smaller Gram matrix ``G`` of ``A``, taken
    from the symmetric eigensolver and rounded outward.  Write ``u = eps/2``
    for the unit roundoff, ``k`` for the longer side of ``A`` (the Gram's
    inner dimension) and ``n`` for the shorter one (the Gram's order).

    1. When the largest entry lies outside ``2^+-400``, ``A`` is first
       scaled by a power of two so that entry lies in [1/2, 1); that is
       exact (underflow of tiny entries aside, below).  Either way the Gram
       can neither overflow nor underflow to zero, and in the common case
       no scaled copy of ``A`` is made.
    2. The computed Gram is ``G + dG`` with ``|dG| <= gamma_k |A|^T |A|``
       entrywise, ``gamma_k = k u / (1 - k u)``, for any summation order,
       fused multiply-add included (Higham, *Accuracy and Stability of
       Numerical Algorithms*, sec. 3.5).  So ``||dG||_2 <= gamma_k ||A||_F^2``.
    3. The eigensolver (Householder tridiagonalisation, then a tridiagonal
       solver) is backward stable: its largest eigenvalue is exact for
       ``G + dG + E``, and worst-case analyses bound ``||E||_2`` by a small
       multiple of ``n^2 u ||G + dG||_F`` (Higham sec. 19.3; Golub & Van Loan
       sec. 8.3).  We take ``4 n^2 u (1 + gamma_k) ||A||_F^2``.
    4. By Weyl, ``sigma^2 <= lam + (gamma_k + 4 n^2 u (1 + gamma_k)) F2``,
       where ``lam`` is the computed eigenvalue and ``F2 = ||A||_F^2``.  The
       computed trace ``t`` of the Gram satisfies
       ``F2 <= t / ((1 - gamma_k)(1 - gamma_n))``.  For any array that fits
       in memory the whole coefficient is below ``1.01 (k + 4 n^2) u``, half
       of ``_norm_allowance``, and the spare half covers rounding that product.
    5. The remaining add, square root and multiply lose at most ``3u``
       relative, which the final factor ``1 + 4 eps`` restores.  Underflow
       in step 1 or 2 perturbs ``lam`` by at most about ``k n 2^-1074``
       absolute, far inside that factor since ``lam >= 2^-802``.

    Relative to the exact norm the result is high by at most about
    ``_norm_allowance(shape) * F2 / sigma^2 + 8 eps``, and ``F2 / sigma^2``
    is at most the rank.  Returns 0.0 for the all-zero matrix.
    """
    a = as_matrix(m)
    # max/min instead of abs(): no temporary the size of the input
    peak = max(float(a.max()), -float(a.min()))
    if peak == 0.0:
        return 0.0
    exp = math.frexp(peak)[1]
    if -400 < exp < 400:
        exp = 0  # the Gram stays in range; skip the copy (peak memory)
    else:
        a = np.ldexp(a, -exp)
    coef = _norm_allowance(a.shape)
    g = a.T @ a if a.shape[1] <= a.shape[0] else a @ a.T
    lam = max(float(np.linalg.eigvalsh(g)[-1]), 0.0)
    bound = math.sqrt(lam + coef * float(np.trace(g))) * (1.0 + 4.0 * _EPS)
    with np.errstate(over="ignore"):  # a norm beyond the float range is inf
        out = float(np.ldexp(bound, exp))
    # scaling back into the subnormal range rounds; step one ulp outward
    return _up(out) if out < _TINY else out


def spectral_norm_ceiling(sigma: float, shape) -> float:
    """Largest value ``spectral_norm`` can return for an input of ``shape``
    whose largest singular value is at most ``sigma``.

    With ``n = min(shape)``, ``||A||_F^2 <= n sigma^2``, so the bound in
    ``_norm_allowance`` gives at most ``T = sigma sqrt(1 + 2 c n) (1 + 8 eps)``.
    The factor below is evaluated with ``1 + 16 eps``; its four roundings
    (the two under the square root count half) lose at most ``3 eps / 2``
    relative, so the real product ``sigma * factor`` is at least ``T``.
    Rounding that product is monotone, so the result is at least
    ``spectral_norm``'s own rounded result; in the subnormal range it is
    stepped one ulp outward, as ``spectral_norm`` steps.  The result is
    nondecreasing in ``sigma``.
    """
    n = min(shape)
    factor = math.sqrt(1.0 + 2.0 * _norm_allowance(shape) * n) * (1.0 + 16.0 * _EPS)
    out = sigma * factor
    return _up(out) if 0.0 < out < _TINY else out


def _row_dots(rows: np.ndarray) -> np.ndarray:
    # each row's 1 x n @ n x 1 product runs the BLAS dot of a 1-D norm
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])


def vector_norm(a, axis=None):
    """Euclidean norm of a vector (``axis=None``: all entries of ``a``, in
    C order), or of each vector along ``axis`` (0 or 1) of a 2-D array,
    without overflow or underflow.

    Every vector's norm has the bits of ``np.linalg.norm`` of that vector
    alone, the square root of its BLAS dot with itself, whatever batch it
    sits in and whatever the batch's memory layout: BLAS rounds by operand
    layout, so the vectors are taken as C-contiguous rows.  A norm in
    ``[2^-400, 2^400)`` was summed from squares that did not overflow, and
    any square that underflowed is below ``2^-222`` of the sum, so it
    stands.  Any other vector is taken again after scaling by the power of
    two that brings its largest entry into [1/2, 1), as in
    ``spectral_norm``, which is exact.
    """
    v = np.asarray(a, dtype=float)
    rows = np.ascontiguousarray(v.reshape(1, -1) if axis is None else v.T if axis == 0 else v)
    with np.errstate(over="ignore", under="ignore"):
        out = _row_dots(rows)
        redo = ~((_NORM_LOW <= out) & (out < _NORM_HIGH))
        if redo.any():
            sub = rows[redo]
            # max/min instead of abs(): no temporary the size of the input
            exp = np.frexp(np.maximum(sub.max(axis=1), -sub.min(axis=1)))[1]
            out[redo] = np.ldexp(_row_dots(np.ldexp(sub, -exp[:, None])), exp)
    return out[0] if axis is None else out


def gram(x) -> np.ndarray:
    """Curvature block of the layerwise quadratic output loss: 2 X X^T.

    The squared-output deviation of one layer on a calibration batch
    decomposes row by row with this identical d x d block, so a single
    block stands in for the whole layer's Hessian.
    """
    xm = as_matrix(x, "calibration matrix")
    g = xm @ xm.T
    # g + g^T doubles and symmetrizes in one step
    return g + g.T


def auto_damping(h) -> float:
    """Relative Tikhonov floor 1e-8 * trace(h)/dim (0 for a zero matrix)."""
    hm = as_matrix(h, "hessian")
    if hm.shape[0] != hm.shape[1]:
        raise ValueError(f"hessian must be square, got shape {hm.shape}")
    return 1e-8 * float(np.trace(hm)) / hm.shape[0]


def damped_inverse(h, lam: float = 0.0) -> np.ndarray:
    """Inverse of ``h + lam*I`` for symmetric ``h``, symmetrized on output.

    ``lam`` must be a finite number >= 0.  ``lam = 0`` on a rank-deficient
    matrix raises ``SingularMatrixError``; retry with ``lam > 0``
    (``auto_damping`` gives a sensible default).
    """
    hm = as_matrix(h, "hessian")
    n = hm.shape[0]
    if hm.shape[1] != n:
        raise ValueError(f"hessian must be square, got shape {hm.shape}")
    scale = float(np.abs(hm).max())
    if float(np.abs(hm - hm.T).max()) > 1e-10 * max(scale, 1.0):
        raise ValueError("hessian must be symmetric")
    if not 0.0 <= lam < math.inf:  # NaN fails too
        raise ValueError(f"damping must be a finite number >= 0, got {lam!r}")
    a = hm + lam * np.eye(n)
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(
            "matrix is singular; supply damping > 0"
        ) from exc
    # LU can sail through a numerically singular matrix; screen by rcond
    norm_a = float(np.abs(a).sum(axis=1).max())
    norm_inv = float(np.abs(inv).sum(axis=1).max())
    if not np.isfinite(inv).all() or 1.0 / (norm_a * norm_inv) < _RCOND_FLOOR:
        raise SingularMatrixError(
            "matrix is numerically singular; supply damping > 0"
        )
    return (inv + inv.T) / 2.0
