"""Numeric kernels for the steps that are not a single BLAS/LAPACK call.

The per-sample hinge-loss subgradient updates of the one-vs-rest linear
SVM, the sweep over (class-dim, query-dim) hyperparameter grids and the
product of one sparse document row with a dense table are the package's
only such steps.  The row product is one array expression; the grid
sweep scores every class of a document in one pass over its query
directions and one prefix sum over the class directions; the hinge SGD
is one Python pass over the samples (each CSR row sliced once) that
updates every class at every regularization strength of a grid at once.
"""

import numpy as np


def grid_mean_sq_cosines(products, class_dims, class_grid, query_grid):
    """Mean squared canonical cosine of every class at every grid point.

    ``products`` is a query's `SubspaceModel.basis_products`: one block of
    ``class_dims[c]`` columns per class.  Grid entries are >= 1; a class's
    dim caps the class axis and the query's (the rows of ``products``)
    the query axis.  Returns the (n_classes, len(class_grid),
    len(query_grid)) similarities: at the capped point (mc, mq), the sum
    of the squares of the class block's ``[:mq, :mc]``, which is the sum
    of all squared canonical cosines, divided by ``min(mc, mq)`` and
    clipped at 1.  Each sum adds the query directions in order, then the
    class directions, so it is bitwise the former per-class
    ``cumsum(cumsum(block.T ** 2, axis=1), axis=0)`` at that point.
    """
    class_dims = np.asarray(class_dims, dtype=np.int64)
    n = len(class_dims)
    mq = np.minimum(np.asarray(query_grid, dtype=np.int64), products.shape[0])
    mc = np.minimum.outer(class_dims, np.asarray(class_grid, dtype=np.int64))
    points = np.unique(mq)
    # query-axis prefix sums, in place row by row: a cumsum along that axis
    # runs one strided loop per column
    sq = products[:points[-1]] * products[:points[-1]]
    for prev, row in zip(sq, sq[1:]):
        np.add(prev, row, out=row)
    # class-axis prefix sums of each class's columns, zero-padded to the widest
    offsets = np.arange(products.shape[1]) - np.repeat(np.cumsum(class_dims) - class_dims,
                                                       class_dims)
    padded = np.zeros((len(points), n, int(class_dims.max())))
    padded[:, np.repeat(np.arange(n), class_dims), offsets] = sq[points - 1]
    sums = np.cumsum(padded, axis=2)[:, np.arange(n)[:, None], mc - 1]
    sums = sums[np.searchsorted(points, mq)].transpose(1, 2, 0)
    return np.minimum(sums / np.minimum(mc[:, :, None], mq), 1.0)


def row_product(cols, vals, table):
    """``row @ table`` for the sparse row with ``vals`` at columns ``cols``.

    ``table`` is (n_features, n_outputs); the result has length
    n_outputs.  The products are summed from zero in the row's own
    column order, as scipy's CSR x dense product sums them, so the
    result is bitwise that product (an empty row gives zeros).  Overflow
    follows IEEE rules; callers that refuse non-finite results silence
    the warnings.
    """
    out = np.zeros(table.shape[1])
    if cols.size:
        # not sum(axis=0): numpy sums a one-column table pairwise
        out += np.cumsum(vals[:, None] * table[cols], axis=0)[-1]
    return out


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
    1 - lr*lam, about 1 / (t + 1)) are computed up front; an update
    touches only the sample's nonzeros, sliced once per call.  A
    subnormal lam overflows its first step size and yields non-finite
    weights, which the caller must check.  Block r is the weights of a
    pass with ``lams=[lams[r]]``: every update is elementwise per block,
    and a strided product of the same operands scores each block.  The
    score only gates ``y * score < 1``, so a different summation order
    can move a weight only through a margin within roundoff of 1.
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
    rows = [(indices[lo:hi], data[lo:hi]) for lo, hi in zip(indptr[:-1], indptr[1:])]
    for t, i in enumerate(order.ravel().tolist()):
        cols, vals = rows[i]
        w = u.take(cols, axis=0)
        score = scale[t] * (np.matmul(vals, w.transpose(1, 0, 2)) + bias)
        y = labels[i]
        hit = y * score < 1.0
        if np.count_nonzero(hit):
            g = np.where(hit, y * rate[t], 0.0)
            u[cols] = w + vals[:, None, None] * g
            bias += g
    u *= scale[-1]
    return u.transpose(1, 0, 2)
