import numpy as np
import pytest
import scipy.sparse as sp

from helpers import hinge_sgd_one_reg
from wordspace import kernels


def random_grid_case(rng):
    mc_max = int(rng.integers(1, 12))
    mq_max = int(rng.integers(1, 12))
    g = rng.standard_normal((mc_max, mq_max)) * 0.4
    class_dims = np.unique(rng.integers(1, mc_max + 1, size=3)).astype(np.int64)
    query_dims = np.unique(rng.integers(1, mq_max + 1, size=3)).astype(np.int64)
    return g, class_dims, query_dims


class TestGridMeanSqCosines:
    def test_matches_svd_oracle(self):
        # each grid cell must equal the mean of ALL squared singular
        # values of the submatrix, computed independently via SVD
        rng = np.random.default_rng(0)
        for _ in range(50):
            g, class_dims, query_dims = random_grid_case(rng)
            got = kernels.grid_mean_sq_cosines(g * g, class_dims, query_dims)
            for i, mc in enumerate(class_dims):
                for j, mq in enumerate(query_dims):
                    sing = np.linalg.svd(g[:mc, :mq], compute_uv=False)
                    want = float(np.sum(sing**2)) / min(mc, mq)
                    assert got[i, j] == pytest.approx(min(want, 1.0), abs=1e-12)


def per_class_pegasos(data, indices, indptr, labels, lam, epochs, order, n_features):
    """Reference: one binary Pegasos pass for a single +-1 label vector."""
    u = np.zeros(n_features + 1, dtype=np.float64)
    scale = 1.0
    step = 0
    for e in range(epochs):
        for i in order[e]:
            step += 1
            lr = 1.0 / (lam * (step + 1))
            lo, hi = indptr[i], indptr[i + 1]
            cols = indices[lo:hi]
            vals = data[lo:hi]
            score = scale * (np.dot(u[cols], vals) + u[n_features])
            y = labels[i]
            scale *= 1.0 - lr * lam
            if y * score < 1.0:
                g = lr * y / scale
                u[cols] += g * vals
                u[n_features] += g
            if scale < 1e-100:
                u *= scale
                scale = 1.0
    return u * scale


def random_sgd_case(rng):
    n, d = int(rng.integers(2, 30)), int(rng.integers(1, 12))
    n_classes = int(rng.integers(2, 9))
    dense = rng.standard_normal((n, d)) * (rng.random((n, d)) < 0.5)
    csr = sp.csr_matrix(dense)
    classes = rng.integers(0, n_classes, size=n)
    labels = np.where(classes[:, None] == np.arange(n_classes)[None, :], 1.0, -1.0)
    epochs = int(rng.integers(1, 5))
    order = np.stack([rng.permutation(n) for _ in range(epochs)]).astype(np.int64)
    lam = float(rng.choice([1e-4, 1e-2, 1.0]))
    return (csr.data, csr.indices.astype(np.int64), csr.indptr.astype(np.int64),
            labels, lam, epochs, order, d)


class TestHingeSgd:
    def test_class_batched_matches_per_class(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            data, indices, indptr, labels, lam, epochs, order, d = random_sgd_case(rng)
            [got] = kernels.hinge_sgd(data, indices, indptr, labels, [lam], epochs, order, d)
            assert got.shape == (d + 1, labels.shape[1])
            for c in range(labels.shape[1]):
                want = per_class_pegasos(data, indices, indptr, labels[:, c], lam,
                                         epochs, order, d)
                np.testing.assert_allclose(got[:, c], want, rtol=1e-12, atol=1e-300)

    def test_separable_problem_converges(self):
        X = sp.csr_matrix(np.array([[1.0], [-1.0]]))
        labels = np.array([[1.0, -1.0], [-1.0, 1.0]])
        rng = np.random.default_rng(0)
        order = np.stack([rng.permutation(2) for _ in range(30)]).astype(np.int64)
        [w] = kernels.hinge_sgd(X.data, X.indices.astype(np.int64),
                                X.indptr.astype(np.int64), labels, [1e-2], 30, order, 1)
        assert w[0, 0] > 0.0 > w[0, 1]
        for c, sign in ((0, 1.0), (1, -1.0)):
            assert np.sign(w[0, c] * 1.0 + w[1, c]) == sign
            assert np.sign(w[0, c] * -1.0 + w[1, c]) == -sign


class TestRegBatchedParity:
    """Each strength's block of one batched pass is bitwise the former
    single-strength kernel's weights."""

    @pytest.mark.parametrize("lams", [
        (1e-2, 1e-3, 1e-4, 1e-5),   # the default eval grid
        (1e-4, 1.0, 1e-2, 3e-3),    # unsorted
        (1e-3, 1e-5, 1e-3),         # a duplicated strength
        (1e-4,),                    # the train path
    ])
    def test_every_block_equals_the_single_reg_kernel(self, lams):
        rng = np.random.default_rng(len(lams))
        for _ in range(40):
            # class counts on both sides of the BLAS kernels' 4-column unroll
            data, indices, indptr, labels, _, epochs, order, d = random_sgd_case(rng)
            got = kernels.hinge_sgd(data, indices, indptr, labels, lams, epochs, order, d)
            assert got.shape == (len(lams), d + 1, labels.shape[1])
            for r, lam in enumerate(lams):
                want = hinge_sgd_one_reg(data, indices, indptr, labels, lam, epochs,
                                         order, d)
                assert np.array_equal(got[r], want)

    def test_non_finite_block_leaves_the_others_unchanged(self):
        # a subnormal strength overflows its first step size; the other
        # blocks keep their own rates and scales
        rng = np.random.default_rng(9)
        data, indices, indptr, labels, _, epochs, order, d = random_sgd_case(rng)
        with np.errstate(all="ignore"):
            got = kernels.hinge_sgd(data, indices, indptr, labels, (1e-3, 1e-310, 1e-2),
                                    epochs, order, d)
        assert not np.all(np.isfinite(got[1]))
        for r, lam in ((0, 1e-3), (2, 1e-2)):
            want = hinge_sgd_one_reg(data, indices, indptr, labels, lam, epochs, order, d)
            assert np.array_equal(got[r], want)
