"""Shared fixtures builders and independent oracles for the test suite.

The oracles here deliberately avoid the library's own code paths:
naive Bayes is evaluated with plain (non-log) arithmetic, nearest
neighbor with raw cosines, and canonical angles through a dense
eigensolver.
"""

import array
import io
import itertools
import logging
import math
import re
import sys
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
from hypothesis import HealthCheck, settings

from wordspace import classifiers, evaluation
from wordspace.bayes import NaiveBayesModel
from wordspace.corpus import Corpus, Document
from wordspace.embeddings import EmbeddingTable, _is_int, _parse_header_tokens
from wordspace.errors import DataError, DegenerateQueryError, FormatError, NumericalError
from wordspace.features import feature_matrix, fit_feature_spec
from wordspace.lsa import LsaModel
from wordspace.svm import DEFAULT_EPOCHS, LinearSvmModel
from wordspace.subspace import unit_columns
from wordspace.utils import parallel_map, read_lines


# derandomized: the suite sees the same drawn inputs on every run
FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=50,
                suppress_health_check=[HealthCheck.too_slow])


def whole(message):
    """A ``pytest.raises(match=...)`` pattern that only ``message``, whole
    and verbatim, matches."""
    return f"^{re.escape(message)}$"


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


def shared_centre_corpus(rng):
    """``(corpus, table)`` in which every class's mean word vector points
    the same way, so only the spread of its words tells a class apart.

    `planted_corpus` with 60 topic words per class and 800 common words;
    a token is a topic word of its document's class with probability
    0.3 and a common word otherwise.  These figures are fixed: no
    strategy's score chose them.
    """
    return planted_corpus(rng, 60, 800, own=0.3, other=0.0)


def shared_vocabulary_corpus(rng, topic_words=15, common_words=100):
    """``(corpus, table)`` in which the classes share a mean direction and,
    nearly, a vocabulary: only how often a class uses each word tells it
    apart.

    `planted_corpus` with ``topic_words`` per class and ``common_words``;
    a token is a topic word of its document's class with probability
    0.15, a topic word of a uniformly drawn class with probability 0.3,
    and a common word otherwise.  So every class's training split holds
    nearly every topic word of every class.  The defaults and the
    figures (15, 100, 0.15, 0.3) are fixed: no strategy's score chose
    them.
    """
    return planted_corpus(rng, topic_words, common_words, own=0.15, other=0.3)


def planted_corpus(rng, topic_words, common_words, own, other):
    """``(corpus, table)`` of 4 classes that share one mean word direction.

    100 dimensions; each class has a random 6-dim planted subspace and
    ``topic_words`` topic words; there are ``common_words`` common words.
    A topic vector is 1.5 x one unit centre shared by all classes, plus a
    Gaussian draw in its class subspace scaled by 1/sqrt(6), plus 0.3 x
    isotropic noise scaled by 1/sqrt(100); a common word is N(0, 1/100)
    per component.  60 documents per class of 45 tokens.  Each token
    takes one ``rng.random()`` draw: below ``own``, a topic word of the
    document's class; below ``own + other``, a topic word of a uniformly
    drawn class; otherwise a common word.
    """
    dim, subspace_dim, n_classes = 100, 6, 4
    centre = rng.standard_normal(dim)
    centre /= np.linalg.norm(centre)
    words, rows = [], []
    for c in range(n_classes):
        basis = random_subspace_basis(rng, dim, subspace_dim)
        coords = rng.standard_normal((topic_words, subspace_dim)) / math.sqrt(subspace_dim)
        noise = rng.standard_normal((topic_words, dim)) / math.sqrt(dim)
        rows.append(1.5 * centre + coords @ basis.T + 0.3 * noise)
        words += [f"t{c}_{i}" for i in range(topic_words)]
    rows.append(rng.standard_normal((common_words, dim)) / math.sqrt(dim))
    words += [f"u{i}" for i in range(common_words)]

    def token(c):
        draw = rng.random()
        if draw < own:
            return f"t{c}_{rng.integers(topic_words)}"
        if draw < own + other:
            return f"t{rng.integers(n_classes)}_{rng.integers(topic_words)}"
        return f"u{rng.integers(common_words)}"

    docs = [Document(f"c{c}", tuple(token(c) for _ in range(45)))
            for c in range(n_classes) for _ in range(60)]
    return Corpus(docs), EmbeddingTable(words, np.vstack(rows))


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
    vocab = set(table.words)
    for i, doc in enumerate(docs):
        vecs, seen = [], set()
        for t in doc.tokens:
            if t in vocab and t not in seen:
                seen.add(t)
                vecs.append(table.vector(t))
        if vecs:
            block = np.stack(vecs, axis=1)
            if normalize:
                block = unit_columns(block)
            out[i] = block.mean(axis=1)
    return out


def table_index_by_word_loop(words):
    """An embedding table's word index as `EmbeddingTable` built it before
    it took one ``dict(zip(...))``: word by word, refusing ``""`` or a
    repeat at the first word that is one."""
    index = {}
    for i, word in enumerate(words):
        if word == "":
            raise DataError("empty string is not a valid word key")
        if word in index:
            raise DataError(f"duplicate word in embedding file: {word!r}")
        index[word] = i
    return index


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


def policies(model):
    """The query policies of a subspace model, as `query_subspace` takes them."""
    return {"strategy": model.strategy, "normalize": model.normalize}


def query_by_full_solve(tokens, table, query_dim=None, **policy):
    """The query subspace as `query_subspace` fitted it when every fit
    solved all eigenpairs: the uncapped fit cut to ``query_dim``.  A
    capped fit may solve only its leading eigenpairs, which agrees with
    this to roundoff."""
    query = classifiers.query_subspace(tokens, table, **policy)
    return query if query_dim is None else query.truncated(min(query_dim, query.dimension))


def report_fitting_queries_per_fold(corpus, strategy, plan, *, table, grids=None,
                                    normalize=True, seed=evaluation.DEFAULT_SEED,
                                    threads=1):
    """The msm/tfmsm `run_experiment` report as it was built before the
    run-wide query list: each fold fits every validation query afresh at
    the grid's largest query dim, and every test query at the selected
    one, both by `query_by_full_solve`."""
    entry = evaluation.STRATEGIES[strategy]
    grid = evaluation._grid(entry, grids)
    policy = {"strategy": strategy, "normalize": normalize}

    def fit_or_none(doc):
        try:
            return query_by_full_solve(doc.tokens, table, max(grid["query_dim"]), **policy)
        except DegenerateQueryError:
            return None

    def classify(model, doc):
        try:
            return model.predict_query(query_by_full_solve(
                doc.tokens, table, model.query_dim, **policy)).label
        except DegenerateQueryError:
            return None

    accuracies, params_per_fold, unclassifiable, test_sizes = [], [], [], []
    for fold in plan.folds:
        val_docs = [corpus.documents[i] for i in fold.validation]
        model, params, _ = entry.select(
            entry, corpus.subset(fold.train), val_docs,
            [fit_or_none(doc) for doc in val_docs],
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


def scores_by_one_row_matrix(model, tokens):
    """Class scores of a bag-of-words naive-Bayes, lsa or svm model as
    its `predict` computed them before the row kernel: a one-row scipy
    CSR matrix from `feature_matrix` times the model's table, basis or
    weights (None for an lsa query with a zero projection)."""
    row = feature_matrix(model.spec, [Document("_q", tuple(tokens))])
    if isinstance(model, NaiveBayesModel):
        return model._base + (row @ model._table)[0]
    if isinstance(model, LsaModel):
        return model.class_scores_from_projection((row @ model.basis)[0])
    return model.decision_matrix(row)[0]


def lsa_class_scores_by_loop(model, projection):
    """`LsaModel.class_scores_from_projection` as it was before the
    masked max: each class's best cosine from its own members, -1.0 when
    that best is not finite or the class has no members."""
    weighted_q = np.asarray(projection, dtype=np.float64)[: model.rank]
    qnorm = np.linalg.norm(weighted_q)
    if qnorm == 0.0:
        return None
    sims = model._weighted @ weighted_q
    denom = model._norms * qnorm
    sims = np.divide(sims, denom, out=np.full_like(sims, -np.inf), where=denom > 0.0)
    labels = np.asarray(model.labels, dtype=object)
    scores = np.full(len(model.classes), -1.0)
    for j, c in enumerate(model.classes):
        members = np.flatnonzero(labels == c)
        best = np.max(sims[members]) if members.size else -np.inf
        scores[j] = best if np.isfinite(best) else -1.0
    return scores


def make_prediction_by_numpy(classes, scores):
    """`classifiers.make_prediction` as it was before it decided on
    Python floats: numpy's finiteness test, argmax and tie count."""
    scores = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        raise NumericalError("prediction scores must be finite")
    best = int(np.argmax(scores))
    tie = int(np.count_nonzero(scores == scores[best])) > 1
    return classifiers.Prediction(classes[best], scores, tie)


LINE_ENDS = ("\n", "\r\n", "\r")
# where str.splitlines also breaks; str.split takes each as whitespace
INLINE_BREAKS = ("\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
SOURCE_KINDS = ("path", "bytes", "text", "lines")
# every character `str.split` splits at
SPACES = tuple(chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace())


def text_source(kind, text, tmp_path):
    """``text`` as one input kind of `utils.read_lines`: a UTF-8 file's
    path, a bytes or text file object, or the list of its lines, each
    with its own line end."""
    if kind == "path":
        path = tmp_path / "input.txt"
        path.write_bytes(text.encode("utf-8"))
        return path
    if kind == "bytes":
        return io.BytesIO(text.encode("utf-8"))
    if kind == "text":
        return io.StringIO(text)
    return list(io.StringIO(text, newline=""))


def check_tokens_by_loop(tokens):
    """`Document`'s token check as it was before it tested a document at
    once: each token on its own, by `str.split`."""
    for t in tokens:
        if t.split() != [t]:
            raise DataError(f"token {t!r} is empty or contains whitespace")


def parse_corpus_by_loop(source):
    """`corpus.parse_corpus` as it was before equal tokens shared one
    ``str``: every field of every line is its own object."""
    documents = []
    for lineno, line in enumerate(read_lines(source, "corpus"), start=1):
        if line == "":
            continue
        fields = line.split()
        if not fields:
            raise FormatError(f"corpus line {lineno}: whitespace only, no label")
        documents.append(Document(fields[0], tuple(fields[1:])))
    return Corpus(documents)


def bow_row_by_dict_loop(spec, tokens):
    """A bag-of-words row as ``(cols, vals)`` lists, built as `bow_row`
    built it before it took `first_occurrence_counts`: per-token counts
    in a dict keyed by column, then one weight per column."""
    index = spec.index
    counts = {}
    for t in tokens:
        j = index.get(t)
        if j is not None:
            counts[j] = counts.get(j, 0) + 1
    cols, vals = [], []
    for j, n in counts.items():
        if spec.name == "binbow":
            w = 1.0
        elif spec.name == "tfbow":
            w = float(n)
        else:
            w = n * spec.idf_log[j]
        if w != 0.0:
            cols.append(j)
            vals.append(w)
    return cols, vals


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


def grid_by_class_loop(sq_gram, class_dims, query_dims):
    """`kernels.grid_mean_sq_cosines` for one class, as it was before it
    scored every class in one call: ``sq_gram`` is the class's
    (mc_max, mq_max) block of squared basis products, and both grid axes
    are capped by the caller.  Returns the (len(class_dims),
    len(query_dims)) similarities."""
    prefix = np.cumsum(np.cumsum(sq_gram, axis=1), axis=0)
    mc = np.asarray(class_dims, dtype=np.int64)
    mq = np.asarray(query_dims, dtype=np.int64)
    return np.minimum(prefix[np.ix_(mc - 1, mq - 1)] / np.minimum.outer(mc, mq), 1.0)


def subspace_fold_by_class_loop(strategy, train_c, val_docs, val_queries, table, grid,
                                feature, normalize, seed):
    """`evaluation._subspace_fold` as it was before one kernel call scored
    every class: per validation document, one `grid_by_class_loop` call
    per class, stacked, and the first class with the highest score at
    each grid point."""
    class_dims = tuple(sorted(set(grid["class_dim"])))
    query_dims = tuple(sorted(set(grid["query_dim"])))
    full = strategy.fit(train_c, table, feature, normalize,
                        {"class_dim": max(class_dims)})

    classes = np.asarray(full.classes, dtype=object)
    mc_arr = np.asarray([min(d, int(full.class_dims.max())) for d in class_dims],
                        dtype=np.int64)
    mq_arr = np.asarray([min(d, full.embed_dim) for d in query_dims], dtype=np.int64)
    blocks = [(slice(start, start + dim), np.minimum(mc_arr, dim))
              for start, dim in zip(full.class_starts, full.class_dims)]
    correct = np.zeros((len(class_dims), len(query_dims)), dtype=np.int64)
    for doc, query in zip(val_docs, val_queries):
        if query is None:
            continue
        mq_caps = np.minimum(mq_arr, query.dimension)
        g = full.basis_products(query)
        sq = g * g
        stack = np.empty((len(classes), len(class_dims), len(query_dims)))
        for c, (cols, mc_caps) in enumerate(blocks):
            stack[c] = grid_by_class_loop(sq[:, cols].T, mc_caps, mq_caps)
        correct += classes[np.argmax(stack, axis=0)] == doc.label

    i, j = np.unravel_index(np.argmax(correct), correct.shape)
    params = {"class_dim": class_dims[i], "query_dim": query_dims[j]}
    subspaces = {
        label: sub.truncated(min(params["class_dim"], sub.dimension))
        for label, sub in full.subspaces.items()
    }
    model = classifiers.SubspaceModel(
        strategy.name, full.classes, subspaces, class_dim=params["class_dim"],
        query_dim=params["query_dim"], normalize=normalize, embed_dim=full.embed_dim,
    )
    return model, params, []


def load_binary_by_record(source):
    """`embeddings.load_binary` as it was before it copied each record's
    bytes by slice: one ``np.frombuffer`` array and one row write per
    kept record."""
    if hasattr(source, "read"):
        buf = source.read()
    else:
        with open(source, "rb") as fh:
            buf = fh.read()

    newline = buf.find(b"\n")
    if newline < 0:
        raise FormatError("malformed header in binary embedding stream: no newline")
    try:
        header = buf[:newline].decode("ascii")
    except UnicodeDecodeError:
        raise FormatError(
            "malformed header in binary embedding stream: not ASCII"
        ) from None
    count, dim = _parse_header_tokens(header.split(), "binary embedding stream")

    words = []
    pos = newline + 1
    record_bytes = 4 * dim
    # rows only for the records the bytes can hold, at 4 * dim + 2 bytes or
    # more each (a one-byte word, the space, the vector): a header that
    # declares more fails as truncated at the first record past them, and
    # without one row that fits, no array of its dim is asked for
    rows = min(count, (len(buf) - pos) // (record_bytes + 2))
    vectors = np.empty((rows, dim if rows or not count else 0), dtype=np.float32)
    kept, replaced = set(), set()  # the words with U+FFFD, and their raw bytes
    dropped = 0
    for i in range(count):
        while pos < len(buf) and buf[pos] == 0x0A:  # consume newlines between records
            pos += 1
        start = pos
        sep = buf.find(b" ", pos)
        if sep < 0:
            raise DataError(
                f"binary embedding stream ended while reading word {i + 1} of {count}"
                f" (record starting at byte offset {start})")
        raw_word = buf[pos:sep]
        if raw_word == b"":
            raise FormatError(f"empty word in binary embedding record {i + 1}")
        word = raw_word.decode("utf-8", errors="replace")
        # Decoding is one-to-one except where invalid bytes became U+FFFD,
        # so only such words can repeat without repeating their bytes; the
        # table refuses every other repeat.
        fresh = word not in kept
        if "\ufffd" in word:
            if raw_word in replaced:
                raise DataError(f"duplicate word in embedding file: {word!r}")
            replaced.add(raw_word)
            kept.add(word)
        pos = sep + 1
        if pos + record_bytes > len(buf):
            raise DataError(
                f"binary embedding stream ended inside the vector of {word!r}"
                f" (record starting at byte offset {start})")
        if fresh:
            vectors[len(words)] = np.frombuffer(buf, dtype="<f4", count=dim, offset=pos)
            words.append(word)
        else:
            dropped += 1
        pos += record_bytes
    if dropped:
        logging.getLogger("wordspace.embeddings").warning(
            "dropped %d binary embedding words whose invalid UTF-8 bytes "
            "decode to an earlier word", dropped)
    return EmbeddingTable(words, vectors[:len(words)])


def load_text_by_loop(source):
    """`embeddings.load_text` as it was before numpy's C reader parsed
    the components: Python's ``float`` on each one, line by line."""
    raw_lines = read_lines(source, "text embedding stream")

    words = []
    values = array.array("d")  # every component, row after row, as C doubles
    dim = None
    declared = None
    start_line = 1
    if raw_lines:
        first = raw_lines[0].split()
        if len(first) == 2 and all(_is_int(tok) for tok in first):
            # an integer pair can only be a header; validate it strictly
            declared = _parse_header_tokens(first, "text embedding stream")
            dim = declared[1]
            start_line = 2

    for lineno, line in enumerate(raw_lines[start_line - 1 :], start=start_line):
        fields = line.split()
        if not fields:
            continue
        word, comps = fields[0], fields[1:]
        if dim is None:
            dim = len(comps)
            if dim < 1:
                raise FormatError(
                    f"text embedding line {lineno}: no vector components"
                )
        if len(comps) != dim:
            raise FormatError(
                f"text embedding line {lineno}: expected {dim} components, "
                f"got {len(comps)}"
            )
        try:
            values.extend(map(float, comps))
        except ValueError:
            raise FormatError(
                f"text embedding line {lineno}: non-numeric component"
            ) from None
        words.append(word)
    del raw_lines

    if declared is not None and len(words) != declared[0]:
        raise FormatError(
            f"text embedding stream declared {declared[0]} words, found {len(words)}"
        )
    if dim is None:
        raise FormatError("text embedding stream is empty and has no header")
    matrix = np.frombuffer(values, dtype=np.float64).reshape(len(words), dim)
    return EmbeddingTable(words, matrix)
