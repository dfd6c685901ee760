"""Numeric kernels for the two loop-bound steps.

The per-sample hinge-loss subgradient updates of the one-vs-rest linear
SVM and the sweep over (class-dim, query-dim) hyperparameter grids are
the package's only steps that are not a single BLAS/LAPACK call.  The
grid sweep is one array expression; the hinge SGD is one Python pass
over the samples that updates every class at once.
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


def hinge_sgd(data, indices, indptr, labels, lam, epochs, order, n_features):
    """Pegasos subgradient descent for all one-vs-rest hinge problems at once.

    CSR arrays describe the sample matrix (one row per sample, bias
    column NOT included; the bias is an implicit all-ones feature).
    ``labels`` is an (n_samples, n_classes) matrix of +-1, ``order`` is
    an (epochs, n_samples) array of visiting orders, and the learning
    rate at global step t is 1 / (lam * (t + 1)).  Returns the augmented
    (n_features + 1, n_classes) weight matrix whose last row holds the
    bias weights.

    The classes share the visiting order, so the step size and the
    shrinking factor (1 - lr*lam) are the same for every class; the
    factor is carried as one running scale, and each update touches
    only the sample's nonzeros of the classes whose margin it violates.
    """
    labels = np.asarray(labels, dtype=np.float64)
    u = np.zeros((n_features + 1, labels.shape[1]), dtype=np.float64)
    scale = 1.0
    step = 0
    for e in range(epochs):
        for i in order[e]:
            step += 1
            lr = 1.0 / (lam * (step + 1))
            lo, hi = indptr[i], indptr[i + 1]
            cols = indices[lo:hi]
            vals = data[lo:hi]
            score = scale * (vals @ u[cols] + u[n_features])
            y = labels[i]
            scale *= 1.0 - lr * lam
            hit = y * score < 1.0
            if hit.any():
                g = np.where(hit, lr * y / scale, 0.0)
                u[cols] += np.outer(vals, g)
                u[n_features] += g
            if scale < 1e-100:
                u *= scale
                scale = 1.0
    return u * scale
