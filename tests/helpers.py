"""Shared fixtures builders and independent oracles for the test suite.

The oracles here deliberately avoid the library's own code paths:
naive Bayes is evaluated with plain (non-log) arithmetic, nearest
neighbor with raw cosines, and canonical angles through a dense
eigensolver.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from wordspace import classifiers, evaluation
from wordspace.corpus import Corpus, Document
from wordspace.embeddings import EmbeddingTable
from wordspace.errors import DegenerateQueryError
from wordspace.features import feature_matrix, fit_feature_spec
from wordspace.svm import DEFAULT_EPOCHS, LinearSvmModel
from wordspace.subspace import unit_columns
from wordspace.utils import parallel_map


def orthogonal_table(n_classes, words_per_class, extra_dims=0):
    """Embedding table whose class vocabularies span disjoint axes.

    Word ``w<c>_<i>`` of class ``c`` maps to standard basis vector
    ``e_{c * words_per_class + i}``.
    """
    p = n_classes * words_per_class + extra_dims
    words = []
    rows = []
    for c in range(n_classes):
        for i in range(words_per_class):
            words.append(f"w{c}_{i}")
            rows.append(np.eye(p)[c * words_per_class + i])
    return EmbeddingTable(words, np.asarray(rows))


def synth_corpus(n_classes, words_per_class, docs_per_class, tokens_per_doc,
                 rng, unique_words=False):
    """Corpus whose class ``c`` draws tokens from class ``c``'s words.

    With ``unique_words`` every token in a class appears exactly once
    across the whole class (token count permitting).
    """
    docs = []
    for c in range(n_classes):
        pool = [f"w{c}_{i}" for i in range(words_per_class)]
        if unique_words:
            seq = list(pool)
            rng.shuffle(seq)
            per_doc = max(1, len(seq) // docs_per_class)
            for d in range(docs_per_class):
                chunk = seq[d * per_doc:(d + 1) * per_doc] or [pool[0]]
                docs.append(Document(f"c{c}", tuple(chunk)))
        else:
            for _ in range(docs_per_class):
                tokens = rng.choice(pool, size=tokens_per_doc, replace=True)
                docs.append(Document(f"c{c}", tuple(tokens.tolist())))
    order = rng.permutation(len(docs))
    return Corpus([docs[i] for i in order])


def bow_reference(doc, terms, scheme, train_docs):
    """Bag-of-words weights of ``doc`` as {term index: weight}, straight
    from the definitions: presence (binbow), count (tfbow) or
    count * log10(|D| / |D^w|) over the training documents (tfidfbow).
    Terms outside ``terms`` and zero weights are left out."""
    weights = {}
    for j, term in enumerate(terms):
        count = doc.tokens.count(term)
        if count == 0:
            continue
        if scheme == "binbow":
            w = 1.0
        elif scheme == "tfbow":
            w = float(count)
        else:
            df = sum(term in d.tokens for d in train_docs)
            w = count * math.log10(len(train_docs) / df)
        if w != 0.0:
            weights[j] = w
    return weights


def projector(sub):
    """Basis-independent representation ``B @ B.T`` of a subspace."""
    return sub.basis @ sub.basis.T


def random_subspace_basis(rng, p, m):
    """Orthonormal basis of a uniformly random m-dim subspace in R^p."""
    q, _ = np.linalg.qr(rng.standard_normal((p, m)))
    return q[:, :m]


def cosines_by_eigensolver(basis_a, basis_b):
    """Canonical cosines via eigenvalues of Yq^T Yc Yc^T Yq (dense path)."""
    product = basis_b.T @ basis_a @ basis_a.T @ basis_b
    evals = np.linalg.eigvalsh(product)[::-1]
    keep = min(basis_a.shape[1], basis_b.shape[1])
    return np.sqrt(np.clip(evals[:keep], 0.0, 1.0))


def exact_cosine_1nn_maximizers(train_rows, train_labels, classes, query_row):
    """Classes whose best training doc attains the exact maximal cosine.

    Rows must be integer-valued so the comparison can run in exact
    rational arithmetic: cosines are ordered through the key
    ``(sign(r.q), sign * (r.q)^2 / (r.r))`` (the query norm is a shared
    positive factor and drops out).  Returns None when the query or
    every training row is zero.
    """
    q = [int(v) for v in query_row]
    if not any(q):
        return None
    best = {}
    for row, label in zip(train_rows, train_labels):
        r = [int(v) for v in row]
        rr = sum(v * v for v in r)
        if rr == 0:
            continue
        rq = sum(a * b for a, b in zip(r, q))
        sign = (rq > 0) - (rq < 0)
        key = (sign, Fraction(sign * rq * rq, rr))
        if label not in best or key > best[label]:
            best[label] = key
    if not best:
        return None
    top = max(best.values())
    return {c for c in classes if best.get(c) == top}


# ---------------------------------------------------------------------------
# Exact-arithmetic naive Bayes oracle
# ---------------------------------------------------------------------------

def nb_oracle_scores(kind, docs, labels, classes, vocab, query_tokens):
    """Per-class scores as exact rationals, straight from the definitions.

    prior(c) = (1+|D_c|) / (|C|+|D|) and P(w|c) = (1+|D_c^w|) / (|C|+|D|);
    the Bernoulli model multiplies P or (1-P) per vocabulary term, the
    multinomial model multiplies P^count per term (the class-independent
    length factor is dropped; it cannot change the argmax).
    """
    denom = len(classes) + len(docs)
    scores = []
    for c in classes:
        members = [d for d, lab in zip(docs, labels) if lab == c]
        score = Fraction(1 + len(members), denom)
        for w in vocab:
            dfw = sum(1 for d in members if w in d)
            p = Fraction(1 + dfw, denom)
            if kind == "mvb":
                score *= p if w in query_tokens else (1 - p)
            else:
                score *= p ** query_tokens.count(w)
        scores.append(score)
    return scores


def nb_oracle_maximizers(kind, docs, labels, classes, vocab, query_tokens):
    """Set of class labels attaining the exact maximal score."""
    scores = nb_oracle_scores(kind, docs, labels, classes, vocab, query_tokens)
    top = max(scores)
    return {c for c, s in zip(classes, scores) if s == top}


def enumerate_nb_corpora(max_cases=None):
    """Deterministic family of tiny two-class corpora.

    Document contents run over all token tuples of length 1..2 from a
    two-word vocabulary, with an extra slice of three-word-vocabulary
    and three-token-document cases for breadth.
    """
    cases = []
    two = ["a", "b"]
    contents2 = [(w,) for w in two] + [
        (x, y) for x in two for y in two
    ]
    # every ordered pair of documents, one per class
    for d1, d2 in itertools.product(contents2, repeat=2):
        cases.append(([d1, d2], ["c1", "c2"], two))
    # three documents, both class patterns with two classes present
    for pattern in (["c1", "c2", "c2"], ["c1", "c1", "c2"]):
        for d1, d2, d3 in itertools.product(contents2, repeat=3):
            cases.append(([d1, d2, d3], pattern, two))
    three = ["a", "b", "c"]
    contents3 = [(x, y, z) for x in three for y in three for z in three][::5]
    for d1, d2 in itertools.product(contents3[:6], repeat=2):
        cases.append(([d1, d2, ("a",), ("b", "c")], ["c1", "c2", "c1", "c2"], three))
    if max_cases is not None:
        cases = cases[:max_cases]
    return cases


def nb_queries(vocab):
    """Probe documents: empty, singles, one pair, and an OOV mix."""
    probes = [(), (vocab[0],), (vocab[-1],), (vocab[0], vocab[0]),
              (vocab[0], vocab[-1], vocab[0])]
    probes.append((vocab[0], "zzz"))
    return probes


# ---------------------------------------------------------------------------
# Former implementations, kept as parity references for their replacements
# ---------------------------------------------------------------------------

def nb_tables_by_loop(corpus):
    """Naive-Bayes ``(terms, log_prior, log_prob, log_not_prob)`` as the
    former trainer built them: its own vocabulary and a per-document
    loop over the distinct tokens for the class document frequencies."""
    index = {}
    for doc in corpus:
        for t in doc.tokens:
            index.setdefault(t, len(index))
    denom = len(corpus.classes) + len(corpus)
    class_doc_counts = np.array(
        [len(corpus.indices_of(c)) for c in corpus.classes], dtype=np.float64
    )
    df = np.zeros((len(index), len(corpus.classes)), dtype=np.float64)
    class_pos = {c: j for j, c in enumerate(corpus.classes)}
    for doc in corpus:
        for t in set(doc.tokens):
            df[index[t], class_pos[doc.label]] += 1.0
    prob = np.minimum((1.0 + df) / denom, 1.0 - 1e-12)
    return (tuple(index), np.log((1.0 + class_doc_counts) / denom),
            np.log(prob), np.log1p(-prob))


def nb_scores_by_token_loop(model, tokens):
    """Naive-Bayes class scores as the former scorer summed them: one
    table row per distinct in-vocabulary token, in first-occurrence
    order (times its count for mnb)."""
    index = {t: j for j, t in enumerate(model.terms)}
    counts = {}
    for t in tokens:
        j = index.get(t)
        if j is not None:
            counts[j] = counts.get(j, 0) + 1
    if model.kind == "mvb":
        scores = model.log_prior + model.log_not_prob.sum(axis=0)
        for j in counts:
            scores = scores + (model.log_prob[j] - model.log_not_prob[j])
    else:
        scores = model.log_prior.copy()
        for j, n in counts.items():
            scores = scores + n * model.log_prob[j]
    return scores


def w2v_rows_by_word_loop(table, docs, normalize):
    """w2v feature rows as the former per-word loop built them: the
    mean of the distinct in-vocabulary (unit) word vectors."""
    out = np.zeros((len(docs), table.dimension), dtype=np.float64)
    for i, doc in enumerate(docs):
        vecs, seen = [], set()
        for t in doc.tokens:
            if t in table and t not in seen:
                seen.add(t)
                vecs.append(table.vector(t))
        if vecs:
            block = np.stack(vecs, axis=1)
            if normalize:
                block = unit_columns(block)
            out[i] = block.mean(axis=1)
    return out


def spectrum_by_eigvalsh(X):
    """A class spectrum as the former `spectrum_report` solved it: all
    min(p, N) eigenvalues of X X^T / N, by ``eigvalsh(X X^T)`` when
    p <= N and by the singular values of X when N < p, clamped at 0."""
    p, n = X.shape
    if p <= n:
        vals = np.linalg.eigvalsh(X @ X.T)[::-1] / n
    else:
        sing = np.linalg.svd(X, compute_uv=False)
        vals = (sing * sing) / n
    return np.maximum(vals, 0.0)


def query_by_full_solve(model, tokens, table, query_dim=None):
    """The query subspace as `query_subspace` fitted it when every fit
    solved all eigenpairs: the uncapped fit cut to ``query_dim``.  A
    capped fit may solve only its leading eigenpairs, which agrees with
    this to roundoff."""
    query = classifiers.query_subspace(model, tokens, table)
    return query if query_dim is None else query.truncated(min(query_dim, query.dimension))


def report_fitting_queries_per_fold(corpus, strategy, plan, *, table, grids=None,
                                    normalize=True, seed=evaluation.DEFAULT_SEED,
                                    threads=1):
    """The msm/tfmsm `run_experiment` report as it was built before the
    run-wide query cache: each fold fits every validation query afresh at
    the grid's largest query dim, and every test query at the selected
    one, both by `query_by_full_solve`."""
    entry = evaluation.STRATEGIES[strategy]
    grid = evaluation._grid(entry, grids)

    def fit_or_none(model, doc):
        try:
            return query_by_full_solve(model, doc.tokens, table, max(grid["query_dim"]))
        except DegenerateQueryError:
            return None

    def classify(model, doc):
        try:
            return model.predict_query(
                query_by_full_solve(model, doc.tokens, table, model.query_dim)).label
        except DegenerateQueryError:
            return None

    accuracies, params_per_fold, unclassifiable, test_sizes = [], [], [], []
    for fold in plan.folds:
        val_docs = [corpus.documents[i] for i in fold.validation]
        model, params, _ = entry.select(
            entry, corpus.subset(fold.train), val_docs,
            lambda model: [fit_or_none(model, doc) for doc in val_docs],
            table, grid, entry.feature, normalize, seed)
        test_docs = [corpus.documents[i] for i in fold.test]
        predicted = parallel_map(lambda doc: classify(model, doc), test_docs, threads)
        accuracies.append(sum(p == d.label for p, d in zip(predicted, test_docs))
                          / len(test_docs))
        unclassifiable.append(sum(p is None for p in predicted))
        params_per_fold.append(params)
        test_sizes.append(len(test_docs))
    return evaluation.EvalReport(strategy, entry.feature, plan.seed, np.asarray(accuracies),
                                 params_per_fold, unclassifiable, test_sizes)


def hinge_sgd_one_reg(data, indices, indptr, labels, lam, epochs, order, n_features):
    """The class-batched Pegasos kernel as it was before it took a grid of
    strengths: one pass at the single strength ``lam``, returning the
    augmented (n_features + 1, n_classes) weight matrix."""
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


def svm_fold_per_reg(train_c, val_docs, table, regs, feature, normalize, seed):
    """``(model, {"reg": reg})`` of one svm fold as the selector built it
    before the strengths were batched: one `hinge_sgd_one_reg` pass per
    reg, each with the seed's visiting orders, and the first reg with the
    most validation hits."""
    spec = fit_feature_spec(feature, train_c, table, normalize)
    docs = list(train_c)
    csr = sp.csr_matrix(feature_matrix(spec, docs, table), dtype=np.float64)
    n, d = csr.shape
    rng = np.random.default_rng(seed)
    order = np.stack([rng.permutation(n) for _ in range(DEFAULT_EPOCHS)]).astype(np.int64)
    y = np.where(np.asarray([doc.label for doc in docs], dtype=object)[:, None]
                 == np.asarray(train_c.classes, dtype=object)[None, :], 1.0, -1.0)
    val_feats = feature_matrix(spec, val_docs, table)
    val_labels = np.asarray([doc.label for doc in val_docs], dtype=object)
    classes = np.asarray(train_c.classes, dtype=object)
    models, hits = [], []
    for reg in regs:
        w = hinge_sgd_one_reg(csr.data, csr.indices.astype(np.int64),
                              csr.indptr.astype(np.int64), y, float(reg), DEFAULT_EPOCHS,
                              order, d)
        model = LinearSvmModel(train_c.classes, np.ascontiguousarray(w[:d].T), -w[d], spec,
                               reg=reg, epochs=DEFAULT_EPOCHS, seed=seed)
        predicted = classes[np.argmax(model.decision_matrix(val_feats), axis=1)]
        models.append(model)
        hits.append(np.sum(predicted == val_labels))
    best = int(np.argmax(hits))
    return models[best], {"reg": regs[best]}
