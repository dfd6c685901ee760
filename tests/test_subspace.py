import numpy as np
import pytest
import scipy.linalg

from helpers import cosines_by_eigensolver, projector, random_subspace_basis, whole
from wordspace.cli import main
from wordspace.embeddings import EmbeddingTable, save_text
from wordspace.errors import DataError, NumericalError
from wordspace.subspace import (
    ORTHONORMALITY_TOL as GRAM_ROUTE_TOL,
    PARTIAL_SOLVE_RATIO,
    RANK_RTOL,
    Subspace,
    _spectral_basis,
    canonical_cosines,
    full_weighted_word_subspace,
    full_word_subspace,
    orthonormality_defect,
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
        np.testing.assert_allclose(projector(sub), np.eye(2), atol=1e-12)

    def test_duplicate_column_same_span(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((4, 1))
        single = full_word_subspace(v).truncated(1)
        doubled = full_word_subspace(np.hstack([v, v])).truncated(1)
        assert max_abs(projector(single) - projector(doubled)) < PROJECTOR_TOL

    def test_rank_cap_error(self):
        v = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NumericalError, match=whole(
                "requested subspace dimension 2 exceeds the rank cap 1")):
            full_word_subspace(v).truncated(2)

    def test_zero_column_error(self):
        with pytest.raises(NumericalError,
                           match=whole("data matrix contains a zero-norm column")):
            full_word_subspace(np.array([[1.0, 0.0], [0.0, 0.0]])).truncated(1)

    def test_data_matrix_refusals(self):
        for X, message in (
                (np.zeros((2, 0)), "need a p x N matrix with N >= 1 columns"),
                (np.ones(3), "need a p x N matrix with N >= 1 columns"),
                (np.array([[1.0, np.nan]]), "data matrix contains non-finite values")):
            with pytest.raises(NumericalError, match=whole(message)):
                full_word_subspace(X)

    def test_m_zero_rejected(self):
        # a dimension below 1 is refused as such, not as a cap overflow
        for m in (0, -1):
            with pytest.raises(NumericalError,
                               match=whole(f"subspace dimension must be >= 1, got {m}")):
                full_word_subspace(np.eye(2)).truncated(m)

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
            assert max_abs(projector(sub) - oracle @ oracle.T) < PROJECTOR_TOL
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
        assert max_abs(projector(a) - projector(b)) < PROJECTOR_TOL


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
            assert max_abs(projector(sub) - basis @ basis.T) <= 1e-10
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

    @pytest.mark.parametrize("shape", [(3, 2), (2, 3)])
    def test_zero_matrix_has_no_direction(self, shape):
        # (3, 2) takes the Gram route, whose empty basis has no defect to
        # measure; (2, 3) eigh(X X^T)
        basis, spectrum = _spectral_basis(np.zeros(shape), 1.0)
        assert basis.shape == (shape[0], 0) and spectrum.shape == (0,)

    def test_rank_deficient_query_keeps_only_selectable_directions(self):
        rng = np.random.default_rng(24)
        v = rng.standard_normal((50, 3))
        X = np.hstack([v, v[:, :1] + v[:, 1:2], v[:, :1]])  # rank 3 of 5 columns
        sub = full_word_subspace(X)
        assert sub.dimension == 3
        assert defect(sub.basis) <= GRAM_ROUTE_TOL
        with pytest.raises(NumericalError, match=whole(
                "requested subspace dimension 4 exceeds the rank cap 3")):
            full_word_subspace(X).truncated(4)


def fit(X, weights=None, cap=None):
    if weights is None:
        return full_word_subspace(X, cap)
    return full_weighted_word_subspace(X, weights, cap)


def route_caps(X):
    """Every cap whose fit of X solves only its leading eigenpairs."""
    return range(1, min(X.shape) // PARTIAL_SOLVE_RATIO + 1)


class TestPartialSolve:
    """A fit capped well below the eigenproblem's order solves only the
    leading eigenpairs; it must agree with the full solve cut to the cap."""

    @pytest.mark.parametrize("p,n", [(300, 40), (300, 90), (300, 150), (300, 400),
                                     (8, 20), (16, 9), (24, 60), (40, 17)])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_the_full_solve(self, p, n, weighted, partial_solves):
        rng = np.random.default_rng(p * 1000 + n)
        X = unit_columns(rng.standard_normal((p, n)))
        w = rng.integers(1, 9, size=n).astype(float) if weighted else None
        full = fit(X, w)
        caps = route_caps(X)
        assert len(caps) >= 1
        for cap in caps:
            capped = fit(X, w, cap)
            reference = full.truncated(cap)
            assert capped.dimension == cap
            assert max_abs(projector(capped) - projector(reference)) <= 1e-12
            assert max_abs(capped.spectrum - reference.spectrum) <= 1e-12 * full.spectrum[0]
            assert orthonormality_defect(capped.basis) <= GRAM_ROUTE_TOL
        assert len(partial_solves) == len(caps)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_rank_deficient_set_keeps_its_rank(self, weighted, partial_solves):
        # rank 3 of 40 words: the cap of 5 keeps 3 directions
        rng = np.random.default_rng(30)
        v = unit_columns(rng.standard_normal((300, 3)))
        X = v[:, rng.integers(3, size=40)]
        w = rng.integers(1, 9, size=40).astype(float) if weighted else None
        capped, full = fit(X, w, 5), fit(X, w)
        assert partial_solves == [[34, 39]]
        assert capped.dimension == full.dimension == 3
        assert max_abs(projector(capped) - projector(full)) <= 1e-12
        assert max_abs(capped.spectrum - full.spectrum) <= 1e-12 * full.spectrum[0]

    @pytest.mark.parametrize("case", [
        "orthonormal-words", "orthonormal-words-equal-weights", "eye-8", "eye-300",
        "duplicated-orthonormal-words", "duplicated-words-rank-below-cap"])
    def test_ties_take_the_full_solve(self, case, partial_solves):
        # tied leading eigenvalues: the partial solve is dropped, and the
        # fit is bitwise the full solve's, tied directions first word first
        rng = np.random.default_rng(31)
        w = None
        if case.startswith("orthonormal-words"):
            X = np.eye(300)[:, rng.permutation(300)[:48]]
            if case.endswith("equal-weights"):
                w = np.full(48, 3.0)
        elif case.startswith("eye"):
            X = np.eye(int(case.split("-")[1]))
        elif case == "duplicated-orthonormal-words":
            X = np.tile(np.eye(300)[:, rng.permutation(300)[:24]], 2)
        else:
            # rank 4 of 40 words, all four directions tied
            X = np.tile(np.eye(300)[:, rng.permutation(300)[:4]], 10)
        full = fit(X, w)
        for cap in route_caps(X):
            capped = fit(X, w, cap)
            reference = full.truncated(min(cap, full.dimension))
            assert capped.basis.tobytes() == reference.basis.tobytes()
            assert capped.spectrum.tobytes() == reference.spectrum.tobytes()
        assert len(partial_solves) == len(route_caps(X)) >= 1

    @pytest.mark.parametrize("command", ["train", "classify"])
    def test_solver_failure_exits_four(self, command, tmp_path, capsys, monkeypatch):
        # 8-dim words and documents of 10 distinct words: a class or query
        # capped at 1 dimension takes the partial solve
        rng = np.random.default_rng(32)
        words = [f"w{i}" for i in range(30)]
        save_text(EmbeddingTable(words, rng.standard_normal((30, 8))), tmp_path / "v.txt")
        (tmp_path / "c.txt").write_text("".join(
            f"c{i % 2} {' '.join(rng.permutation(words)[:10])}\n" for i in range(6)))
        files = ["--corpus", str(tmp_path / "c.txt"), "--embeddings", str(tmp_path / "v.txt")]
        train = ["train", "--strategy", "msm", "--class-dim", "1", "--query-dim", "1",
                 *files, "--out", str(tmp_path / "m.npz")]
        if command == "classify":
            assert main(train) == 0
        error = np.linalg.LinAlgError("did not converge")

        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(scipy.linalg, "eigh", fail)
        capsys.readouterr()
        argv = train if command == "train" else [
            "classify", "--model", str(tmp_path / "m.npz"), *files]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ") and str(error) in err


class TestExtremeScales:
    """Matrices with entries far from 1 are decomposed scaled by a power of two."""

    # 2^-490 to 2^490: a word's squared norm stays a normal float
    @pytest.mark.parametrize("scale", [2.0 ** -490, 1e-150, 1e150, 2.0 ** 490])
    @pytest.mark.parametrize("shape", [(40, 12), (12, 40)])
    def test_matches_the_unscaled_fit(self, scale, shape):
        rng = np.random.default_rng(33)
        X = rng.standard_normal(shape)
        w = 10.0 ** rng.uniform(0.0, 12.0, size=shape[1])
        for weights in (None, w):
            want = fit(X, weights)
            got = fit(X * scale, weights)
            assert got.dimension == want.dimension
            assert max_abs(projector(got) - projector(want)) <= 1e-12
            np.testing.assert_allclose(got.spectrum / scale ** 2, want.spectrum, rtol=1e-12)


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
        assert max_abs(projector(plain) - projector(weighted)) < PROJECTOR_TOL
        np.testing.assert_allclose(plain.spectrum, weighted.spectrum, rtol=1e-10)

    def test_single_vector(self):
        v = np.array([[3.0], [4.0]])
        sub = full_weighted_word_subspace(v, [7.0]).truncated(1)
        np.testing.assert_allclose(np.abs(sub.basis[:, 0]), [0.6, 0.8], atol=1e-12)

    def test_weight_validation(self):
        X = np.eye(2)
        for weights in ([1.0, 0.0], [1.0, -2.0], [1.0, np.nan], [1.0, np.inf]):
            with pytest.raises(NumericalError,
                               match=whole("weights must be positive finite reals")):
                full_weighted_word_subspace(X, weights).truncated(1)
        with pytest.raises(NumericalError, match=whole(
                "need one weight per column: got (1,) for 2 columns")):
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
            assert max_abs(projector(a) - projector(b)) < PROJECTOR_TOL
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
        with pytest.raises(DataError, match=whole("ambient dimensions differ: 3 vs 4")):
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
        with pytest.raises(NumericalError,
                           match=whole("zero-norm column cannot be normalized")):
            unit_columns(np.zeros((2, 1)))
