import numpy as np
import pytest

from helpers import cosines_by_eigensolver, random_subspace_basis
from wordspace.errors import (
    DegenerateInputError,
    DimensionMismatchError,
    NumericalError,
    SubspaceRankError,
    WeightError,
)
from wordspace.subspace import (
    ORTHONORMALITY_TOL as GRAM_ROUTE_TOL,
    RANK_RTOL,
    Subspace,
    canonical_cosines,
    full_weighted_word_subspace,
    full_word_subspace,
    similarity,
    unit_columns,
)

ORTHONORMALITY_TOL = 1e-8
PROJECTOR_TOL = 1e-6


def max_abs(a):
    return float(np.max(np.abs(a))) if a.size else 0.0


def basis_subspace(basis):
    m = basis.shape[1]
    return Subspace(basis, np.linspace(1.0, 0.5, m), m)


class TestWordSubspace:
    def test_rank_one_duplicates(self):
        e1 = np.array([[1.0], [0.0]])
        sub = full_word_subspace(np.hstack([e1, e1])).truncated(1)
        assert sub.spectrum.tolist() == [1.0]
        assert abs(sub.basis[:, 0] @ e1[:, 0]) == pytest.approx(1.0)

    def test_two_orthogonal_vectors_full_plane(self):
        sub = full_word_subspace(np.eye(2)).truncated(2)
        np.testing.assert_allclose(sub.spectrum, [0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(sub.projector(), np.eye(2), atol=1e-12)

    def test_duplicate_column_same_span(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((4, 1))
        single = full_word_subspace(v).truncated(1)
        doubled = full_word_subspace(np.hstack([v, v])).truncated(1)
        assert max_abs(single.projector() - doubled.projector()) < PROJECTOR_TOL

    def test_rank_cap_error(self):
        v = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(SubspaceRankError) as err:
            full_word_subspace(v).truncated(2)
        assert (err.value.requested, err.value.cap) == (2, 1)

    def test_zero_column_error(self):
        with pytest.raises(DegenerateInputError):
            full_word_subspace(np.array([[1.0, 0.0], [0.0, 0.0]])).truncated(1)

    def test_m_zero_rejected(self):
        with pytest.raises(SubspaceRankError) as err:
            full_word_subspace(np.eye(2)).truncated(0)
        assert (err.value.requested, err.value.cap) == (0, 2)

    def test_matches_autocorrelation_eigendecomposition(self):
        # independent route: eigenvectors of R = X X^T / N via eigh
        rng = np.random.default_rng(42)
        for _ in range(30):
            p = int(rng.integers(2, 8))
            n = int(rng.integers(1, 10))
            m = int(rng.integers(1, min(p, n) + 1))
            X = rng.standard_normal((p, n))
            sub = full_word_subspace(X).truncated(m)
            evals, evecs = np.linalg.eigh(X @ X.T / n)
            order = np.argsort(evals)[::-1]
            oracle = evecs[:, order[:m]]
            assert max_abs(sub.projector() - oracle @ oracle.T) < PROJECTOR_TOL
            np.testing.assert_allclose(sub.spectrum, evals[order[:m]], atol=1e-10)

    def test_orthonormality_invariant(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = int(rng.integers(1, 12))
            n = int(rng.integers(1, 12))
            X = rng.standard_normal((p, n))
            sub = full_word_subspace(X)
            gram = sub.basis.T @ sub.basis
            assert max_abs(gram - np.eye(sub.dimension)) < ORTHONORMALITY_TOL

    def test_projector_reproducible(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((6, 9))
        a = full_word_subspace(X).truncated(3)
        b = full_word_subspace(X.copy()).truncated(3)
        assert max_abs(a.projector() - b.projector()) < PROJECTOR_TOL


def svd_qr_subspace(X, weights=None):
    """The former N < p route of `_spectral_basis`, kept as a reference:
    economy SVD, a re-orthonormalizing QR, then the selectable rank."""
    normalizer = float(X.shape[1]) if weights is None else float(np.sum(weights))
    if weights is not None:
        X = X * np.sqrt(weights)
    basis, sing, _ = np.linalg.svd(X, full_matrices=False)
    basis, _ = np.linalg.qr(basis)
    spectrum = sing * sing / normalizer
    keep = int(np.count_nonzero(spectrum > RANK_RTOL * spectrum[0]))
    return basis[:, :keep], spectrum[:keep]


def defect(basis):
    return max_abs(basis.T @ basis - np.eye(basis.shape[1]))


def geometric_to_cut(rng, p, n):
    """p x n matrix whose singular values fall geometrically from 1 to
    just above the RANK_RTOL cut (sigma^2 ratio 2.25e-10 against 1e-10)."""
    u, _ = np.linalg.qr(rng.standard_normal((p, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (u * np.geomspace(1.0, 1.5e-5, n)) @ v.T


@pytest.fixture
def svd_calls(monkeypatch):
    """Count the SVD fallbacks of the Gram route."""
    calls = []
    real = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


class TestGramRoute:
    """Queries with fewer words than dimensions (N < p) take eigh(X^T X)."""

    def test_plain_and_weighted_match_svd_qr(self):
        rng = np.random.default_rng(20)
        for case in range(60):
            p = int(rng.integers(2, 40)) if case % 2 else 300
            n = int(rng.integers(1, min(p, 161)))
            X = unit_columns(rng.standard_normal((p, n)))
            w = rng.integers(1, 9, size=n).astype(float) if case % 3 else None
            sub = (full_word_subspace(X) if w is None
                   else full_weighted_word_subspace(X, w))
            basis, spectrum = svd_qr_subspace(X, w)
            assert sub.dimension == basis.shape[1]
            assert max_abs(sub.projector() - basis @ basis.T) <= 1e-10
            np.testing.assert_allclose(sub.spectrum, spectrum, rtol=1e-10)

    def test_near_cap_matrices_stay_orthonormal(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            p = int(rng.integers(20, 301))
            n = int(rng.integers(2, min(p, 80)))
            X = geometric_to_cut(rng, p, n)
            w = rng.integers(1, 4, size=n).astype(float)
            for sub in (full_word_subspace(X), full_weighted_word_subspace(X, w)):
                assert sub.dimension == n
                assert defect(sub.basis) <= GRAM_ROUTE_TOL

    def test_fallback_when_the_gram_basis_is_off(self, svd_calls):
        # sigma_min / sigma_max = 1.5e-5: the Gram route loses about
        # eps / 2.25e-10 ~ 1e-6 of orthogonality, far above the bound
        X = geometric_to_cut(np.random.default_rng(22), 120, 40)
        sub = full_word_subspace(X)
        assert svd_calls == [X.shape]
        svd_calls.clear()
        basis, spectrum = svd_qr_subspace(X)
        np.testing.assert_array_equal(sub.basis, basis)
        np.testing.assert_array_equal(sub.spectrum, spectrum)
        assert defect(sub.basis) <= 1e-13

    def test_unit_column_documents_never_fall_back(self, svd_calls):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(1, 161))
            X = unit_columns(rng.standard_normal((300, n)))
            sub = full_weighted_word_subspace(X, rng.integers(1, 6, size=n).astype(float))
            assert defect(sub.basis) <= GRAM_ROUTE_TOL
        assert svd_calls == []

    def test_tied_directions_keep_column_order(self):
        # orthonormal columns all share one eigenvalue; the basis lists
        # them first word first, as the SVD did
        X = np.eye(6)[:, [4, 1, 3]]
        sub = full_word_subspace(X)
        np.testing.assert_array_equal(np.abs(sub.basis), X)
        np.testing.assert_array_equal(sub.spectrum, [1 / 3] * 3)

    def test_rank_deficient_query_keeps_only_selectable_directions(self):
        rng = np.random.default_rng(24)
        v = rng.standard_normal((50, 3))
        X = np.hstack([v, v[:, :1] + v[:, 1:2], v[:, :1]])  # rank 3 of 5 columns
        sub = full_word_subspace(X)
        assert sub.dimension == 3
        assert defect(sub.basis) <= GRAM_ROUTE_TOL
        with pytest.raises(SubspaceRankError) as err:
            full_word_subspace(X).truncated(4)
        assert (err.value.requested, err.value.cap) == (4, 3)


class TestWeightedWordSubspace:
    def test_hand_svd_dominant_direction(self):
        sub = full_weighted_word_subspace(np.eye(2), [4.0, 1.0]).truncated(1)
        assert abs(sub.basis[0, 0]) == pytest.approx(1.0, abs=1e-12)
        # squared singular values (4, 1) over total weight 5
        assert sub.spectrum[0] == pytest.approx(0.8)

    def test_unit_weights_match_unweighted(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((5, 7))
        plain = full_word_subspace(X).truncated(3)
        weighted = full_weighted_word_subspace(X, np.ones(7)).truncated(3)
        assert max_abs(plain.projector() - weighted.projector()) < PROJECTOR_TOL
        np.testing.assert_allclose(plain.spectrum, weighted.spectrum, rtol=1e-10)

    def test_single_vector(self):
        v = np.array([[3.0], [4.0]])
        sub = full_weighted_word_subspace(v, [7.0]).truncated(1)
        np.testing.assert_allclose(np.abs(sub.basis[:, 0]), [0.6, 0.8], atol=1e-12)

    def test_weight_validation(self):
        X = np.eye(2)
        with pytest.raises(WeightError):
            full_weighted_word_subspace(X, [1.0, 0.0]).truncated(1)
        with pytest.raises(WeightError):
            full_weighted_word_subspace(X, [1.0, -2.0]).truncated(1)
        with pytest.raises(WeightError):
            full_weighted_word_subspace(X, [1.0]).truncated(1)

    def test_duplication_equivalence(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            p = int(rng.integers(2, 9))
            n = int(rng.integers(1, 7))
            X = rng.standard_normal((p, n))
            w = rng.integers(1, 6, size=n)
            X_dup = np.repeat(X, w, axis=1)
            m = int(rng.integers(1, min(p, n) + 1))
            a = full_weighted_word_subspace(X, w.astype(float)).truncated(m)
            b = full_word_subspace(X_dup).truncated(m)
            assert max_abs(a.projector() - b.projector()) < PROJECTOR_TOL
            np.testing.assert_allclose(a.spectrum, b.spectrum, rtol=1e-8)


class TestCanonicalCosines:
    def test_identical_subspaces(self):
        sub = basis_subspace(np.eye(4)[:, :2])
        np.testing.assert_allclose(canonical_cosines(sub, sub), [1.0, 1.0])

    def test_orthogonal_subspaces(self):
        a = basis_subspace(np.eye(4)[:, :2])
        b = basis_subspace(np.eye(4)[:, 2:])
        np.testing.assert_allclose(canonical_cosines(a, b), [0.0, 0.0], atol=1e-15)

    def test_partial_overlap_hand_case(self):
        # span{e1,e2} vs span{e1,e3}: basis product [[1,0],[0,0]] -> [1, 0]
        a = basis_subspace(np.eye(3)[:, [0, 1]])
        b = basis_subspace(np.eye(3)[:, [0, 2]])
        np.testing.assert_allclose(canonical_cosines(a, b), [1.0, 0.0], atol=1e-15)

    def test_ambient_mismatch(self):
        a = basis_subspace(np.eye(3)[:, :1])
        b = basis_subspace(np.eye(4)[:, :1])
        with pytest.raises(DimensionMismatchError):
            canonical_cosines(a, b)

    def test_against_dense_eigensolver(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = int(rng.integers(2, 7))
            ma = int(rng.integers(1, min(3, p) + 1))
            mb = int(rng.integers(1, min(3, p) + 1))
            a = basis_subspace(random_subspace_basis(rng, p, ma))
            b = basis_subspace(random_subspace_basis(rng, p, mb))
            got = canonical_cosines(a, b)
            want = cosines_by_eigensolver(a.basis, b.basis)
            np.testing.assert_allclose(got, want, atol=1e-8)


class TestSimilarity:
    def test_identical_is_one(self):
        sub = basis_subspace(np.eye(5)[:, :3])
        for t in (1, 2, 3):
            assert similarity(sub, sub, t) == pytest.approx(1.0)

    def test_orthogonal_is_zero(self):
        a = basis_subspace(np.eye(4)[:, :2])
        b = basis_subspace(np.eye(4)[:, 2:])
        for t in (1, 2):
            assert similarity(a, b, t) == pytest.approx(0.0, abs=1e-15)

    def test_half_overlap(self):
        a = basis_subspace(np.eye(3)[:, [0, 1]])
        b = basis_subspace(np.eye(3)[:, [0, 2]])
        assert similarity(a, b, 2) == pytest.approx(0.5)

    def test_t_out_of_range(self):
        a = basis_subspace(np.eye(3)[:, :2])
        with pytest.raises(NumericalError):
            similarity(a, a, 3)
        with pytest.raises(NumericalError):
            similarity(a, a, 0)

    def test_symmetry_bounds_monotonicity(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            p = int(rng.integers(2, 8))
            ma = int(rng.integers(1, p + 1))
            mb = int(rng.integers(1, p + 1))
            a = basis_subspace(random_subspace_basis(rng, p, ma))
            b = basis_subspace(random_subspace_basis(rng, p, mb))
            values = [similarity(a, b, t) for t in range(1, min(ma, mb) + 1)]
            for t, s in enumerate(values, start=1):
                assert 0.0 <= s <= 1.0
                assert s == pytest.approx(similarity(b, a, t), abs=1e-12)
            assert all(x >= y - 1e-12 for x, y in zip(values, values[1:]))


class TestSubspaceObject:
    def test_truncated_prefix(self):
        rng = np.random.default_rng(7)
        sub = full_word_subspace(rng.standard_normal((6, 5)))
        small = sub.truncated(2)
        np.testing.assert_array_equal(small.basis, sub.basis[:, :2])
        np.testing.assert_array_equal(small.spectrum, sub.spectrum[:2])
        assert small.source_word_count == sub.source_word_count

    def test_spectrum_must_be_sorted(self):
        with pytest.raises(NumericalError):
            Subspace(np.eye(2), np.array([0.1, 0.9]), 2)

    def test_negative_spectrum_clamped(self):
        sub = Subspace(np.eye(2), np.array([1.0, -1e-13]), 2)
        assert sub.spectrum[1] == 0.0
        with pytest.raises(NumericalError):
            Subspace(np.eye(2), np.array([1.0, -1e-6]), 2)

    def test_unit_columns(self):
        X = np.array([[3.0, 0.0], [4.0, 2.0]])
        np.testing.assert_allclose(np.linalg.norm(unit_columns(X), axis=0), [1, 1])
        with pytest.raises(DegenerateInputError):
            unit_columns(np.zeros((2, 1)))
