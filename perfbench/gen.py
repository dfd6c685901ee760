"""Seeded generator of R8-shaped inputs.

``generate(shape, seed)`` builds everything in memory and
``write_inputs(shape, seed, root)`` writes it once per (shape, seed)
under ``root`` and returns the file paths with their sha256.  The same
seed gives the same bytes.  The make-up is documented in README.md;
it is the same for every strategy and workload, only the sizes in
``workloads.Shape`` differ.
"""

import hashlib
import json
import os
import shutil
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from workloads import R8_CLASSES

DIM = 300
PLANTED_DIM = 10        # dimension of each class's planted subspace
SHARED_WEIGHT = 0.5     # weight of the direction shared by all words
TOPIC_WEIGHT = 1.0      # weight of the class subspace in topic words
NOISE_WEIGHT = 1.0      # weight of isotropic noise in topic words
CENTRE_WEIGHT = 1.5     # weight of the class centre inside its subspace
P_TOPIC = 0.2           # share of tokens drawn from the class's topic words
P_OOV = 0.04            # share of tokens with no embedding; the rest are common
ANCHORS = 20            # every document starts with one of the 20 commonest words
ZIPF_S = 1.0            # Zipf exponent of every word list
LEN_SIGMA = 0.6         # log-normal spread of document lengths
KEEP_SEEDS = 6          # input sets kept in the cache


@dataclass
class Inputs:
    words: list           # embedding table rows, in file order
    vectors: np.ndarray   # (len(words), DIM) float64, exactly as written
    corpus: list          # (label, tokens) pairs
    stream: list


def _class_counts(n):
    """Largest-remainder split of ``n`` documents in R8 proportions."""
    total = sum(c for _, c in R8_CLASSES)
    raw = [n * c / total for _, c in R8_CLASSES]
    counts = [int(r) for r in raw]
    rest = sorted(range(len(raw)), key=lambda i: counts[i] - raw[i])
    for i in rest[: n - sum(counts)]:
        counts[i] += 1
    return [max(1, c) for c in counts]


def _words(rng, count, taken):
    """``count`` distinct lowercase ASCII words not in ``taken``."""
    letters = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz", dtype=np.uint8)
    out = []
    while len(out) < count:
        need = count - len(out)
        lens = rng.integers(4, 11, size=need)
        chars = letters[rng.integers(0, 26, size=(need, 10))]
        for row, n in zip(chars, lens):
            w = row[:n].tobytes().decode("ascii")
            if w not in taken:
                taken.add(w)
                out.append(w)
    return out


def _zipf(n):
    w = 1.0 / np.arange(2, n + 2, dtype=np.float64) ** ZIPF_S
    return w / w.sum()


def _layout(shape, n, part):
    """Labels and lengths of ``n`` documents, the same for every seed.

    Labels come in R8 proportions and lengths at the log-normal's
    quantiles, both shuffled by an RNG keyed on the shape alone: every
    seed then has the same classes in the same folds and the same
    amount of work, and only the words differ.
    """
    rng = np.random.default_rng([sum(map(ord, shape.name)), n, part])
    labels = []
    for (label, _), k in zip(R8_CLASSES, _class_counts(n)):
        labels += [label] * k
    quantiles = (np.arange(len(labels)) + 0.5) / len(labels)
    lengths = np.exp(np.log(shape.median_len) + LEN_SIGMA * ndtri(quantiles))
    lengths = np.clip(np.round(lengths), shape.min_len, shape.max_len).astype(int)
    return ([labels[i] for i in rng.permutation(len(labels))],
            lengths[rng.permutation(len(labels))])


def _documents(rng, shape, n, part, common, topics, oov):
    p_common = _zipf(len(common))
    p_topic = _zipf(shape.n_topic)
    p_oov = _zipf(len(oov))
    docs = []
    for label, length in zip(*_layout(shape, n, part)):
        kind = rng.random(length - 1)
        tokens = [common[rng.integers(ANCHORS)]]
        n_topic = int(np.sum(kind < P_TOPIC))
        n_oov = int(np.sum((kind >= P_TOPIC) & (kind < P_TOPIC + P_OOV)))
        n_common = length - 1 - n_topic - n_oov
        picks = ([topics[label][i] for i in rng.choice(shape.n_topic, n_topic, p=p_topic)]
                 + [oov[i] for i in rng.choice(len(oov), n_oov, p=p_oov)]
                 + [common[i] for i in rng.choice(len(common), n_common, p=p_common)])
        tokens += [picks[i] for i in rng.permutation(len(picks))]
        docs.append((label, tokens))
    return docs


def generate(shape, seed) -> Inputs:
    """All inputs of one shape, as a pure function of ``seed``."""
    rng = np.random.default_rng([seed, sum(map(ord, shape.name))])
    taken = set()
    common = _words(rng, shape.n_common, taken)
    topics = {label: _words(rng, shape.n_topic, taken) for label, _ in R8_CLASSES}
    oov = _words(rng, shape.n_oov, taken)
    extra = _words(rng, shape.table_extra, taken)

    shared = rng.standard_normal(DIM)
    shared /= np.linalg.norm(shared)
    words = list(common)
    # common and filler words get as much non-shared energy as topic
    # words, so every word has the same expected share of the shared
    # direction and no class mean is favoured by its word mix
    spread = np.sqrt(TOPIC_WEIGHT ** 2 * (1 + CENTRE_WEIGHT ** 2) + NOISE_WEIGHT ** 2)
    blocks = [spread * rng.standard_normal((len(common), DIM)) / np.sqrt(DIM)]
    for label, _ in R8_CLASSES:
        basis, _ = np.linalg.qr(rng.standard_normal((DIM, PLANTED_DIM)))
        z = rng.standard_normal((shape.n_topic, PLANTED_DIM)) / np.sqrt(PLANTED_DIM)
        centre = rng.standard_normal(PLANTED_DIM)
        z += CENTRE_WEIGHT * centre / np.linalg.norm(centre)
        noise = rng.standard_normal((shape.n_topic, DIM)) / np.sqrt(DIM)
        words += topics[label]
        blocks.append(TOPIC_WEIGHT * z @ basis.T + NOISE_WEIGHT * noise)
    words += extra
    blocks.append(spread * rng.standard_normal((len(extra), DIM)) / np.sqrt(DIM))
    vectors = np.concatenate(blocks) + SHARED_WEIGHT * shared
    vectors *= rng.uniform(0.5, 2.0, size=(len(words), 1))
    order = rng.permutation(len(words))  # corpus words scattered in the file
    words = [words[i] for i in order]
    vectors = vectors[order]
    if shape.table == "txt":
        vectors = np.round(vectors * 1e6) / 1e6  # exact through "%.6f"
    else:
        vectors = vectors.astype(np.float32).astype(np.float64)

    corpus = _documents(rng, shape, shape.n_docs, 0, common, topics, oov)
    stream = _documents(rng, shape, shape.n_stream, 1, common, topics, oov)
    return Inputs(words, vectors, corpus, stream)


def _corpus_text(docs):
    return "".join(f"{label} {' '.join(tokens)}\n" for label, tokens in docs)


def _bin_bytes(words, vectors):
    parts = [f"{len(words)} {vectors.shape[1]}\n".encode("ascii")]
    rows = vectors.astype("<f4")
    for w, row in zip(words, rows):
        parts.append(w.encode("ascii") + b" " + row.tobytes() + b"\n")
    return b"".join(parts)


def _txt_text(words, vectors):
    # "%.6f" of k / 1e6 prints k's six decimals, so the file parses back exactly
    row_format = " ".join(["%.6f"] * vectors.shape[1])
    lines = [f"{len(words)} {vectors.shape[1]}\n"]
    for w, row in zip(words, vectors.tolist()):
        lines.append(f"{w} {row_format % tuple(row)}\n")
    return "".join(lines)


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def write_inputs(shape, seed, root):
    """Write (or reuse) the input files of ``shape`` for ``seed``.

    Returns a dict with the paths of ``corpus``, ``stream``, the
    embedding ``table`` (None for shapes without one) and ``truth``
    (an .npz of the exact vectors of every corpus word), plus the
    sha256 of each file under ``sha256``.
    """
    out = os.path.join(root, f"{shape.name}-{seed}")
    manifest = os.path.join(out, "manifest.json")
    if os.path.exists(manifest):
        with open(manifest, encoding="utf-8") as fh:
            return json.load(fh)
    tmp = f"{out}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    data = generate(shape, seed)
    files = {"corpus": "corpus.txt", "stream": "stream.txt", "truth": "truth.npz",
             "table": {"bin": "vectors.bin", "txt": "vectors.txt"}[shape.table]}
    with open(os.path.join(tmp, files["corpus"]), "w", encoding="ascii") as fh:
        fh.write(_corpus_text(data.corpus))
    with open(os.path.join(tmp, files["stream"]), "w", encoding="ascii") as fh:
        fh.write(_corpus_text(data.stream))
    if shape.table == "bin":
        with open(os.path.join(tmp, files["table"]), "wb") as fh:
            fh.write(_bin_bytes(data.words, data.vectors))
    else:
        with open(os.path.join(tmp, files["table"]), "w", encoding="ascii") as fh:
            fh.write(_txt_text(data.words, data.vectors))
    used = {t for docs in (data.corpus, data.stream) for _, toks in docs for t in toks}
    keep = [i for i, w in enumerate(data.words) if w in used]
    with open(os.path.join(tmp, files["truth"]), "wb") as fh:
        np.savez(fh, words=np.asarray([data.words[i] for i in keep]),
                 vectors=data.vectors[keep])
    result = {k: os.path.join(out, v) for k, v in files.items()}
    result["sha256"] = {k: sha256(os.path.join(tmp, v)) for k, v in files.items()}
    with open(os.path.join(tmp, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    try:
        os.rename(tmp, out)
    except OSError:  # another run wrote the same seed first
        shutil.rmtree(tmp, ignore_errors=True)
    _prune(root, keep=out)
    return result


def _prune(root, keep):
    """Delete all but the ``KEEP_SEEDS`` newest input sets under ``root``."""
    sets = [os.path.join(root, d) for d in os.listdir(root)
            if os.path.exists(os.path.join(root, d, "manifest.json"))]
    sets.sort(key=os.path.getmtime, reverse=True)
    for old in sets[KEEP_SEEDS:]:
        if old != keep:
            shutil.rmtree(old, ignore_errors=True)
