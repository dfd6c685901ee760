"""Numeric kernels for the two loop-bound steps.

The per-sample hinge-loss subgradient updates of the one-vs-rest linear
SVM and the sweep over (class-dim, query-dim) hyperparameter grids are
the package's only steps that are not a single BLAS/LAPACK call.  The
grid sweep is one array expression; the hinge SGD is one Python pass
over the samples that updates every class at every regularization
strength of a grid at once.
"""

import numpy as np


def grid_mean_sq_cosines(sq_gram, class_dims, query_dims):
    """Mean squared canonical cosine at every grid point.

    Parameters
    ----------
    sq_gram : (mc_max, mq_max) array
        Elementwise square of ``class_basis.T @ query_basis`` at the
        maximal dimensions.
    class_dims, query_dims : int arrays
        Grid axes; entries larger than the available dimensions must be
        capped by the caller.

    Returns
    -------
    (len(class_dims), len(query_dims)) array of similarities: for the
    grid point (mc, mq), the sum of ``sq_gram[:mc, :mq]`` divided by
    ``min(mc, mq)``.  The sum of *all* squared cosines between two
    subspaces equals the squared Frobenius norm of their basis product,
    so each entry is the subspace similarity with every available angle.
    """
    prefix = np.cumsum(np.cumsum(sq_gram, axis=1), axis=0)
    mc = np.asarray(class_dims, dtype=np.int64)
    mq = np.asarray(query_dims, dtype=np.int64)
    return np.minimum(prefix[np.ix_(mc - 1, mq - 1)] / np.minimum.outer(mc, mq), 1.0)


def hinge_sgd(data, indices, indptr, labels, lams, epochs, order, n_features):
    """Pegasos subgradient descent for every one-vs-rest hinge problem at
    every regularization strength in ``lams``, in one pass.

    CSR arrays describe the sample matrix (one row per sample, bias
    column NOT included; the bias is an implicit all-ones feature).
    ``labels`` is an (n_samples, n_classes) matrix of exactly +-1,
    ``order`` is an (epochs, n_samples) array of visiting orders, and the
    learning rate of strength lam at global step t is 1 / (lam * (t + 1)).
    Returns a (len(lams), n_features + 1, n_classes) stack whose block r
    is the augmented weight matrix for ``lams[r]`` (last row: the bias).

    The problems share the visiting order, so the step sizes and each
    strength's running scale (the product of the shrinking factors
    1 - lr*lam, about 1 / (t + 1)) do not depend on the data and are
    computed up front; an update touches only the sample's nonzeros.
    A subnormal lam overflows its first step size and yields non-finite
    weights, which the caller must check.  Block r is bitwise the
    weights of a pass with ``lams=[lams[r]]``: every operation is
    elementwise per block, and each block is scored from its own
    C-contiguous (nnz, n_classes) slice, as a single-strength pass
    scores it (one product over all the blocks' columns rounds
    differently when n_classes is not a multiple of the BLAS unroll).
    """
    labels = np.asarray(labels, dtype=np.float64)
    lams = np.asarray(lams, dtype=np.float64)
    steps = np.arange(2, epochs * order.shape[1] + 2, dtype=np.float64)  # t + 1
    lr = 1.0 / (lams * steps[:, None])
    # scale[t] multiplies the weights before step t, scale[-1] after the pass
    scale = np.cumprod(np.vstack([np.ones_like(lams), 1.0 - lr * lams]), axis=0)[:, :, None]
    rate = lr[:, :, None] / scale[1:]
    # row j holds feature j's weights in every block: a sample's rows are one gather
    u = np.zeros((n_features + 1, len(lams), labels.shape[1]), dtype=np.float64)
    bias = u[n_features]
    for t, i in enumerate(order.ravel()):
        lo, hi = indptr[i], indptr[i + 1]
        cols = indices[lo:hi]
        vals = data[lo:hi]
        w = u.take(cols, axis=0)
        score = scale[t] * (np.matmul(vals, np.ascontiguousarray(w.transpose(1, 0, 2)))
                            + bias)
        y = labels[i]
        hit = y * score < 1.0
        if np.count_nonzero(hit):
            g = np.where(hit, y * rate[t], 0.0)
            u[cols] = w + vals[:, None, None] * g
            bias += g
    u *= scale[-1]
    return u.transpose(1, 0, 2)
