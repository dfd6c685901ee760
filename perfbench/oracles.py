"""Independent re-computations of the program's outputs, in plain numpy.

Each oracle follows the method's definition (PAPER.md and the module
docstrings of the package) without calling the package, and where the
package picks a numerical route the oracle takes another one: query
subspaces come from the eigendecomposition of the small Gram matrix
instead of an SVD followed by QR, naive Bayes from dense count
matrices instead of per-token dictionaries, LSA from a dense SVD
instead of ARPACK, and the SVM from a class-batched Pegasos loop.

Labels come from `labels_of`: a document whose two best
oracle scores lie within ``TIE_TOL`` of each other (relative to the
score scale) may go either way.
"""

import numpy as np
from scipy import stats

RANK_RTOL = 1e-10   # directions below this share of the largest eigenvalue are dropped
TIE_TOL = 1e-9      # oracle scores this close are a near-tie
MAX_PROB = 1.0 - 1e-12


def labels_of(classes, scores):
    """Argmax label (first class wins ties) and whether it is a near-tie."""
    scores = np.asarray(scores, dtype=np.float64)
    best = int(np.argmax(scores))
    rest = np.delete(scores, best)
    scale = max(1.0, float(np.max(np.abs(scores))))
    near = rest.size > 0 and float(scores[best] - np.max(rest)) <= TIE_TOL * scale
    return classes[best], near


# ---------------------------------------------------------------------------
# Word subspaces (msm, tfmsm) and the set-similarity baseline (sa)
# ---------------------------------------------------------------------------

def distinct_vectors(tokens, vectors):
    """Unit columns of the distinct in-vocabulary tokens, with their counts."""
    counts = {}
    for t in tokens:
        if t in vectors:
            counts[t] = counts.get(t, 0) + 1
    if not counts:
        return np.zeros((0, 0)), np.zeros(0)
    X = np.stack([vectors[t] for t in counts], axis=1)
    X = X / np.sqrt(np.sum(X * X, axis=0))
    return X, np.asarray(list(counts.values()), dtype=np.float64)


def gram_basis(X, weights=None, dim=None):
    """Orthonormal basis of the leading uncentered-PCA directions of X.

    Columns are scaled by ``sqrt(weights)``.  With fewer columns than
    rows the basis is ``X V diag(lambda)^(-1/2)`` from the eigenpairs of
    the column Gram matrix; otherwise the eigenvectors of ``X X^T``.
    Directions below ``RANK_RTOL`` of the largest eigenvalue are
    dropped, and at most ``dim`` are kept.
    """
    if weights is not None:
        X = X * np.sqrt(np.asarray(weights, dtype=np.float64))
    p, n = X.shape
    if n < p:
        lam, V = np.linalg.eigh(X.T @ X)
    else:
        lam, V = np.linalg.eigh(X @ X.T)
    lam, V = lam[::-1], V[:, ::-1]
    rank = int(np.count_nonzero(lam > RANK_RTOL * lam[0]))
    keep = rank if dim is None else max(1, min(dim, rank))
    if n < p:
        return (X @ V[:, :keep]) / np.sqrt(lam[:keep])
    return V[:, :keep]


def subspace_similarity(a, b):
    """Mean squared canonical cosine over all min(dim a, dim b) angles."""
    cos = np.clip(np.linalg.svd(a.T @ b, compute_uv=False), 0.0, 1.0)
    return float(np.mean(cos ** 2))


def subspace_scores(class_bases, query_basis):
    return np.array([subspace_similarity(B, query_basis) for B in class_bases])


def class_bases(docs, classes, vectors, weighted, dim):
    """One basis per class from the distinct words of its training documents."""
    out = []
    for c in classes:
        tokens = [t for label, toks in docs if label == c for t in toks]
        X, counts = distinct_vectors(tokens, vectors)
        out.append(gram_basis(X, counts if weighted else None, dim))
    return out


def query_basis(tokens, vectors, weighted, dim):
    X, counts = distinct_vectors(tokens, vectors)
    if X.shape[1] == 0:
        return None
    return gram_basis(X, counts if weighted else None, dim)


def sa_scores(docs, classes, tokens, vectors):
    """Mean pairwise inner product between the two sets of unit vectors."""
    Q, _ = distinct_vectors(tokens, vectors)
    scores = []
    for c in classes:
        ctoks = [t for label, toks in docs if label == c for t in toks]
        C, _ = distinct_vectors(ctoks, vectors)
        scores.append(float(np.mean(C.T @ Q)))
    return np.array(scores)


def spectrum(X):
    """Eigenvalues of the uncentered autocorrelation X X^T / N, descending."""
    p, n = X.shape
    vals = np.linalg.eigvalsh(X @ X.T)[::-1] / n
    return np.maximum(vals[: min(p, n)], 0.0)


# ---------------------------------------------------------------------------
# Bag-of-words baselines
# ---------------------------------------------------------------------------

def vocabulary(docs):
    """Terms of the training documents in first-occurrence order."""
    index = {}
    for _, toks in docs:
        for t in toks:
            index.setdefault(t, len(index))
    return index


def count_matrix(docs, index):
    """Dense (documents x terms) occurrence counts; unknown terms dropped."""
    M = np.zeros((len(docs), len(index)))
    for i, (_, toks) in enumerate(docs):
        for t in toks:
            j = index.get(t)
            if j is not None:
                M[i, j] += 1.0
    return M


def naive_bayes_scores(kind, train, classes, test):
    """Log-space mvb / mnb scores of every test document (rows)."""
    index = vocabulary(train)
    presence = count_matrix(train, index) > 0
    labels = np.array([label for label, _ in train], dtype=object)
    denom = len(classes) + len(train)
    prior = np.array([(1.0 + np.sum(labels == c)) / denom for c in classes])
    df = np.stack([presence[labels == c].sum(axis=0) for c in classes], axis=1)
    prob = np.minimum((1.0 + df) / denom, MAX_PROB)
    counts = count_matrix(test, index)
    if kind == "mvb":
        x = (counts > 0).astype(np.float64)
        return np.log(prior) + x @ np.log(prob) + (1.0 - x) @ np.log1p(-prob)
    return np.log(prior) + counts @ np.log(prob)


def lsa_scores(train, classes, test, rank):
    """Per-class best cosine to a training document in the rank-k LSA space."""
    index = vocabulary(train)
    D = (count_matrix(train, index) > 0).astype(np.float64)       # docs x terms
    Q = (count_matrix(test, index) > 0).astype(np.float64)
    U, _, _ = np.linalg.svd(D.T, full_matrices=False)
    Uk = U[:, :rank]
    dk, qk = D @ Uk, Q @ Uk
    dn, qn = np.linalg.norm(dk, axis=1), np.linalg.norm(qk, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = (qk @ dk.T) / np.outer(qn, dn)
    cos[:, dn == 0.0] = -np.inf
    labels = np.array([label for label, _ in train], dtype=object)
    scores = np.stack([cos[:, labels == c].max(axis=1) for c in classes], axis=1)
    return np.where(np.isfinite(scores), scores, -1.0)


def pegasos(train, classes, reg, epochs, seed):
    """One-vs-rest hinge-loss weights by the documented Pegasos update.

    Binary bag-of-words features over the training vocabulary plus an
    always-one bias feature; visiting orders from
    ``default_rng(seed).permutation`` per epoch; step size
    ``1 / (reg (t + 1))`` at global step t = 1, 2, ...; the shrink
    factor ``1 - step * reg`` is carried as a scale shared by all
    classes.  Returns ``(weights (C x d), offsets (C,), index)``.
    """
    index = vocabulary(train)
    X = count_matrix(train, index) > 0
    rows = [np.flatnonzero(x) for x in X]
    labels = np.array([label for label, _ in train], dtype=object)
    Y = np.where(labels[:, None] == np.array(classes, dtype=object)[None, :], 1.0, -1.0)
    d = len(index)
    rng = np.random.default_rng(seed)
    orders = [rng.permutation(len(train)) for _ in range(epochs)]
    U = np.zeros((d + 1, len(classes)))
    scale, step = 1.0, 0
    for order in orders:
        for i in order:
            step += 1
            lr = 1.0 / (reg * (step + 1))
            cols = rows[i]
            score = scale * (U[cols].sum(axis=0) + U[d])
            scale *= 1.0 - lr * reg
            hit = Y[i] * score < 1.0
            g = np.where(hit, lr * Y[i] / scale, 0.0)
            U[cols] += g
            U[d] += g
            if scale < 1e-100:
                U *= scale
                scale = 1.0
    W = (U * scale).T
    return W[:, :d], -W[:, d], index


def svm_scores(weights, offsets, index, docs):
    X = (count_matrix(docs, index) > 0).astype(np.float64)
    return X @ weights.T - offsets


# ---------------------------------------------------------------------------
# Significance test
# ---------------------------------------------------------------------------

def paired_t(a, b):
    """Paired t statistic and two-sided p value, from scipy."""
    res = stats.ttest_rel(np.asarray(a, dtype=np.float64),
                          np.asarray(b, dtype=np.float64))
    return float(res.statistic), float(res.pvalue)
