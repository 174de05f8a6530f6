import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_inputs, random_policy
from prunecert.linalg import (
    SingularMatrixError,
    _frozen,
    _norm_allowance,
    as_box,
    as_matrix,
    as_vector,
    auto_damping,
    damped_inverse,
    gram,
    spectral_norm,
    spectral_norm_ceiling,
    vector_norm,
)
from prunecert.policy import ActivationKind, Layer
from prunecert.pruner import (
    CalibrationBatch,
    LayerPrune,
    Ranking,
    collect_calibration,
    prune_to_budget,
    rank_weights,
)


def _spectral_oracle_2x2(a):
    """Largest singular value of a 2x2 matrix straight from the
    characteristic polynomial of A^T A."""
    ata = a.T @ a
    tr = ata[0, 0] + ata[1, 1]
    det = ata[0, 0] * ata[1, 1] - ata[0, 1] * ata[1, 0]
    lam_max = (tr + math.sqrt(tr * tr - 4.0 * det)) / 2.0
    return math.sqrt(lam_max)


class TestValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_matrix([[1.0, float("nan")]])
        with pytest.raises(ValueError):
            as_vector([float("inf")])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            as_matrix(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            as_vector([])


class TestAsVectorFiniteness:
    """Up to 16 entries ``as_vector`` tests finiteness on a list of floats,
    above that with numpy; both sides of the cutoff reject a non-finite
    entry anywhere with one message and accept the largest finite ones."""

    @pytest.mark.parametrize("n", [1, 16, 17, 512])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_first_or_last(self, n, bad):
        for where in (0, n - 1):
            v = np.ones(n)
            v[where] = bad
            with pytest.raises(ValueError) as exc:
                as_vector(v, "state")
            assert str(exc.value) == "state contains non-finite entries"

    @pytest.mark.parametrize("n", [1, 16, 17, 512])
    def test_huge_finite_entries_accepted(self, n):
        v = [1e308, -1e308] * n
        np.testing.assert_array_equal(as_vector(v[:n]), np.array(v[:n]))


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, abs=1e-12)

    def test_2x2_hand_oracle(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        expected = _spectral_oracle_2x2(a)
        assert expected == pytest.approx(5.4649857, abs=1e-6)
        assert spectral_norm(a) == pytest.approx(expected, rel=1e-9)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((4, 2))) == 0.0

    def test_rectangular_matches_transpose(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(7, 3))
        assert spectral_norm(a) == pytest.approx(spectral_norm(a.T), rel=1e-9)

    def test_near_degenerate_top_pair_is_bounded(self):
        # sigma1 and sigma2 differ by 2e-4 relative, where an iterative
        # estimate converges slowly and from below
        a = np.diag([1.66349, 1.66311, 0.5])
        norm = spectral_norm(a)
        assert 1.66349 <= norm <= 1.66349 * (1.0 + 1e-13)

    def test_brackets_svd_within_documented_allowance(self):
        rng = np.random.default_rng(2024)
        eps = np.finfo(float).eps
        cases = []
        for _ in range(60):
            shape = (int(rng.integers(1, 97)), int(rng.integers(1, 97)))
            cases.append(rng.normal(size=shape))
        for n in (2, 5, 17, 64):
            # top singular values equal or nearly so, in a random basis
            u, _ = np.linalg.qr(rng.normal(size=(n, n)))
            v, _ = np.linalg.qr(rng.normal(size=(n, n)))
            sv = rng.uniform(0.0, 1.0, size=n)
            sv[:2] = 1.0, 1.0 - float(rng.choice([0.0, 1e-12, 1e-8, 1e-4]))
            cases.append((u * sv) @ v.T)
        for shape in ((512, 512), (512, 37), (3, 512)):
            cases.append(rng.normal(scale=1e-3, size=shape))
        cases.append(np.diag([1.66349, 1.66311, 0.5]))
        for a in cases:
            svd = float(np.linalg.svd(a, compute_uv=False)[0])
            fro2 = float((a * a).sum())
            upper = math.sqrt(svd * svd + 2.0 * _norm_allowance(a.shape) * fro2)
            norm = spectral_norm(a)
            assert svd <= norm <= upper * (1.0 + 8.0 * eps), a.shape
            assert norm <= spectral_norm_ceiling(svd, a.shape), a.shape

    def test_extreme_magnitudes_round_outward(self):
        # entries beyond 2^+-400 take the scaled route and keep the bracket
        a = np.random.default_rng(5).normal(size=(9, 4))
        svd = float(np.linalg.svd(a, compute_uv=False)[0])
        upper = math.sqrt(svd * svd + 2.0 * _norm_allowance(a.shape) * float((a * a).sum()))
        for s in (2.0**600, 2.0**-600):
            assert svd * s <= spectral_norm(a * s) <= upper * s * (1.0 + 8.0 * np.finfo(float).eps)
        # a subnormal norm is stepped up past its rounding; one beyond the
        # float range is inf
        for row in ([5e-324], [3e-320, 1e-320]):
            sub = math.hypot(*row)
            norm = spectral_norm(np.array([row]))
            assert sub <= norm <= spectral_norm_ceiling(sub, (1, len(row)))
        assert spectral_norm(np.full((2, 2), 1e308)) == math.inf

    @pytest.mark.parametrize("s", [1.0, 0.7, 3.0, 1e-3, 12345.678])
    def test_ceiling_covers_a_one_by_one_norm(self, s):
        # the ceiling's 1 + 16 eps is what lifts it past the norm that
        # spectral_norm returns for [[s]]; without it each s here falls below
        for a in ([[s]], [[-s]]):
            assert spectral_norm(np.array(a)) <= spectral_norm_ceiling(abs(s), (1, 1))

    def test_agrees_with_svd_oracle_on_random_matrices(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            rows = int(rng.integers(1, 65))
            cols = int(rng.integers(1, 65))
            a = rng.normal(size=(rows, cols))
            truth = float(np.linalg.svd(a, compute_uv=False)[0])
            est = spectral_norm(a)
            assert abs(est - truth) / max(truth, 1.0) < 1e-6

    def test_repeated_top_singular_value_converges(self):
        # orthogonal matrix: every singular value is 1
        q, _ = np.linalg.qr(np.random.default_rng(7).normal(size=(8, 8)))
        assert spectral_norm(q) == pytest.approx(1.0, rel=1e-9)

    def test_at_most_frobenius(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = rng.normal(size=(int(rng.integers(1, 12)), int(rng.integers(1, 12))))
            assert spectral_norm(a) <= np.linalg.norm(a) * (1.0 + 1e-9)

    @given(st.floats(min_value=-100, max_value=100, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_scaling_homogeneity(self, c):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        base = spectral_norm(a)
        assert spectral_norm(c * a) == pytest.approx(abs(c) * base, rel=2e-10, abs=1e-12)


class TestFrobeniusNorm:
    """``vector_norm`` of a whole matrix (``axis=None``) is its Frobenius norm."""

    def test_zero(self):
        assert vector_norm(np.zeros((3, 3))) == 0.0

    def test_identity(self):
        assert vector_norm(np.eye(2)) == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_three_four_five(self):
        assert vector_norm([[3.0, 4.0]]) == 5.0


class TestVectorNorm:
    def test_bit_identical_to_numpy_in_range(self):
        # a vector alone, or in a batch along either axis, has the bits of
        # numpy's 1-D norm of that vector
        rng = np.random.default_rng(21)
        a = rng.normal(size=(9, 300)) * np.exp2(rng.integers(-390, 390, size=300))
        for axis, vectors in ((0, a.T), (1, a)):
            got = vector_norm(a, axis=axis)
            assert got.tolist() == [np.linalg.norm(v) for v in vectors]
        for v in a.T:
            assert vector_norm(v) == np.linalg.norm(v)

    @pytest.mark.parametrize("scale", [1e-300, 1e-170, 2.0**-400, 2.0**400, 1e170, 1e300])
    def test_no_overflow_or_underflow(self, scale):
        # 3-4-5 triangles at the edges of the float range; a batch mixes them
        # with in-range columns, which must keep numpy's bits
        v = np.array([3.0, 4.0]) * scale
        assert vector_norm(v) == pytest.approx(5.0 * scale, rel=4 * np.finfo(float).eps)
        batch = np.column_stack([v, [3.0, 4.0], [0.0, 0.0]])
        got = vector_norm(batch, axis=0)
        assert got[0] == pytest.approx(5.0 * scale, rel=4 * np.finfo(float).eps)
        assert got[1:].tolist() == [5.0, 0.0]
        assert vector_norm(batch.T, axis=1).tolist() == got.tolist()

    @pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
    def test_bits_do_not_depend_on_the_memory_layout(self, scale):
        # 8 entries per vector: numpy's reduction sums a contiguous axis
        # pairwise and a strided one in order, and BLAS rounds by operand
        # layout; at 1e+-200 every vector is rescaled first
        rows = np.random.default_rng(22).normal(size=(2000, 8)) * scale
        cols = np.ascontiguousarray(rows.T)
        got = vector_norm(rows, axis=1)
        for batch, axis in ((rows.T, 0), (cols, 0), (cols.T, 1)):
            assert np.array_equal(vector_norm(batch, axis=axis), got)

    def test_subnormal_entries(self):
        assert vector_norm([5e-324, 0.0]) == 5e-324
        assert vector_norm(np.array([[3.0], [4.0]]) * 5e-324, axis=0)[0] == 2.5e-323

    def test_non_finite_stays_non_finite(self):
        assert vector_norm([np.inf, 1e300]) == np.inf
        assert math.isnan(vector_norm([np.nan, 1e300]))
        assert vector_norm([1.5e308, 1.5e308]) == np.inf  # beyond the float range


class TestRowNorms:
    """``vector_norm`` of each vector of a batch, in every layout the batch
    may come in: each norm has the bits of that vector's 1-D norm."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 17, 64, 300])
    def test_bits_match_vector_norm_per_row(self, dim):
        # rows from 1e-300 to 1e300, so some squares underflow or overflow,
        # plus an all-zero row, a subnormal one and ones past the float range
        rng = np.random.default_rng(23)
        rows = rng.normal(size=(400, dim)) * 10.0 ** rng.uniform(-300, 300, size=(400, 1))
        rows[:4] = 0.0
        rows[1, 0] = 5e-324
        rows[2, :] = 1.5e308
        rows[3, 0] = np.inf
        alone = np.array([vector_norm(r) for r in rows]).tobytes()
        wide = np.zeros((rows.shape[0], 2 * dim))
        wide[:, ::2] = rows
        cols = np.ascontiguousarray(rows.T)
        # rows, their transposed view, C-ordered columns and its transposed
        # view, and strided slices of a wider batch
        for batch, axis in ((rows, 1), (rows.T, 0), (cols, 0), (cols.T, 1),
                            (wide[:, ::2], 1), (wide.T[::2], 0)):
            assert vector_norm(batch, axis=axis).tobytes() == alone, (batch.strides, axis)
        got = vector_norm(rows, axis=1)
        assert got[0] == 0.0 and got[1] == 5e-324 and got[3] == np.inf
        assert got[2] == pytest.approx(1.5e308 * math.sqrt(dim))  # inf past the float range

    def test_in_range_bits_are_numpys_1d_norm(self):
        rows = np.random.default_rng(24).normal(size=(1000, 6))
        assert vector_norm(rows, axis=1).tolist() == [np.linalg.norm(r) for r in rows]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class TestFrozen:
    """``_frozen`` keeps an array that no writable array shares memory with
    and copies anything else into a new read-only array."""

    def test_a_read_only_array_that_owns_its_data_is_kept(self):
        a = _read_only(np.arange(4.0))
        assert _frozen(a) is a

    def test_a_read_only_view_of_a_read_only_owner_is_kept(self):
        a = _read_only(np.arange(6.0).reshape(2, 3).copy())
        for view in (a[1:], a.T, a.ravel()):
            assert _frozen(view) is view

    @pytest.mark.parametrize(
        "make",
        [
            lambda: np.arange(4.0),
            lambda: _read_only(np.arange(5.0)[1:]),
            lambda: _read_only(np.frombuffer(bytearray(32))),
        ],
        ids=["writable", "read-only-view-of-a-writable-base", "read-only-over-a-bytearray"],
    )
    def test_anything_else_is_copied(self, make):
        a = make()
        out = _frozen(a)
        assert out is not a and not np.shares_memory(out, a)
        assert not out.flags.writeable and out.tobytes() == a.tobytes()

    def test_a_layer_shares_a_read_only_owner_and_copies_a_writable_array(self):
        relu = ActivationKind("relu")
        shared = _read_only(np.eye(2))
        layer = Layer(shared, np.zeros(2), relu)
        assert layer.weight is shared
        # the rule trusts the owner: re-enabling writes on it changes the layer
        shared.setflags(write=True)
        shared[0, 0] = 9.0
        assert layer.weight[0, 0] == 9.0
        writable = np.eye(2)
        layer = Layer(writable, np.zeros(2), relu)
        assert not np.shares_memory(layer.weight, writable) and not layer.weight.flags.writeable
        writable[0, 0] = 9.0
        assert layer.weight[0, 0] == 1.0

    def test_pruner_arrays_are_read_only_and_share_no_writable_memory(self):
        rng = np.random.default_rng(35)
        p = random_policy(rng, dims=[3, 5, 4, 2])
        # Fortran order: the states' transpose is the C-contiguous batch
        # itself, so layer 0's input aliases the caller's memory
        states = np.asfortranarray(rng.normal(size=(7, 3)))
        calib = collect_calibration(p, states)
        assert [h.tobytes() for h in calib.curvature] == [
            gram(x).tobytes() for x in naive_inputs(p, states)
        ]
        # a caller's writable block is copied
        block = gram(states.T)
        ranking = rank_weights(p, calib, [0, 2])
        head = ranking[:5]
        _, plan = prune_to_budget(p, head)
        built = (
            ranking,
            head,
            ranking[ranking.layer == 2],
            Ranking(*(np.array(a) for a in (ranking.layer, ranking.row, ranking.col,
                                            ranking.saliency))),
        )
        arrays = [a for r in built for a in (r.layer, r.row, r.col, r.saliency)]
        arrays += [lp.mask for lp in plan.layers]
        arrays += [LayerPrune(0, np.zeros((1, 2), dtype=np.intp), 0.0, False).mask]
        arrays += list(calib.curvature) + list(CalibrationBatch((block, block)).curvature)
        assert all(not a.flags.writeable for a in arrays)
        assert all(not np.shares_memory(a, states) and not np.shares_memory(a, block)
                   for a in arrays)
        assert np.shares_memory(head.layer, ranking.layer)  # a slice is a view
        assert all(a.dtype == np.intp for r in built for a in (r.layer, r.row, r.col))
        assert all(r.saliency.dtype == np.float64 for r in built)


class TestAsBox:
    def test_no_box(self):
        assert as_box(None, 2) is None
        assert as_box((None, None), 2) is None

    def test_read_only_copies(self):
        lo, hi = [-1.0, 0.0], np.array([1.0, 0.0])
        box = as_box((lo, hi), 2)
        assert box[0].tolist() == lo and box[1].tolist() == hi.tolist()
        assert box[1] is not hi and not box[0].flags.writeable and not box[1].flags.writeable

    @pytest.mark.parametrize(
        "box, message",
        [
            ((None, [1.0, 1.0]), "provide both state box bounds or neither"),
            (([0.0, 0.0], None), "provide both state box bounds or neither"),
            (([0.0], [1.0]), "state box bounds must match the state dimension"),
            (([0.0, 0.0], [1.0, 1.0, 1.0]), "state box bounds must match the state dimension"),
            (([0.0, 2.0], [1.0, 1.0]), "state box low bound exceeds high bound"),
            (([[0.0, 0.0]], [1.0, 1.0]), "state box low must be a nonempty 1-D array"),
            (([0.0, 0.0], [1.0, np.inf]), "state box high contains non-finite entries"),
        ],
    )
    def test_rejected(self, box, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            as_box(box, 2, "state box")


class TestGram:
    def test_identity(self):
        np.testing.assert_allclose(gram(np.eye(2)), np.diag([2.0, 2.0]))

    def test_diagonal_squares_doubled(self):
        np.testing.assert_allclose(gram([[1.0, 0.0], [0.0, 2.0]]), np.diag([2.0, 8.0]))

    def test_symmetric_psd_on_random_input(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 5))
        g = gram(x)
        np.testing.assert_array_equal(g, g.T)
        # oracle eigendecomposition confirms PSD
        assert np.linalg.eigvalsh(g).min() >= -1e-10
        # Rayleigh probes stay nonnegative
        for _ in range(200):
            v = rng.normal(size=3)
            assert v @ g @ v >= -1e-10

    def test_matches_definition(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 7))
        np.testing.assert_allclose(gram(x), 2.0 * x @ x.T, rtol=1e-13, atol=1e-13)


class TestDampedInverse:
    def test_identity_no_damping(self):
        np.testing.assert_allclose(damped_inverse(np.eye(3), 0.0), np.eye(3))

    def test_diagonal(self):
        np.testing.assert_allclose(
            damped_inverse(np.diag([2.0, 8.0]), 0.0), np.diag([0.5, 0.125])
        )

    def test_rank_deficient_without_damping_raises(self):
        h = gram(np.array([[1.0], [1.0]]))  # rank 1
        with pytest.raises(SingularMatrixError):
            damped_inverse(h, 0.0)

    def test_rank_deficient_with_damping_succeeds(self):
        h = gram(np.array([[1.0], [1.0]]))
        inv = damped_inverse(h, 1e-3)
        np.testing.assert_allclose(
            inv @ (h + 1e-3 * np.eye(2)), np.eye(2), atol=1e-6
        )

    def test_inverse_residual_on_well_conditioned(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            d = int(rng.integers(1, 10))
            x = rng.normal(size=(d, d + 3))
            h = gram(x)
            lam = auto_damping(h)
            inv = damped_inverse(h, lam)
            resid = inv @ (h + lam * np.eye(d)) - np.eye(d)
            assert np.abs(resid).max() < 1e-8

    def test_output_symmetric(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(5, 9))
        inv = damped_inverse(gram(x), 0.0)
        assert np.abs(inv - inv.T).max() <= 1e-10

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            damped_inverse(np.array([[1.0, 2.0], [0.0, 1.0]]), 0.0)

    def test_rejects_negative_damping(self):
        with pytest.raises(ValueError):
            damped_inverse(np.eye(2), -1.0)

    @pytest.mark.parametrize("lam", [math.inf, math.nan])
    def test_rejects_non_finite_damping(self, lam):
        with pytest.raises(ValueError, match="damping must be a finite number >= 0"):
            damped_inverse(np.eye(2), lam)


class TestAutoDamping:
    def test_scales_with_trace(self):
        h = np.diag([2.0, 8.0])
        assert auto_damping(h) == pytest.approx(1e-8 * 10.0 / 2.0)
