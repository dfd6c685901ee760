"""Versioned on-disk container for subspaces and trained models.

The container is an uncompressed NumPy ``.npz`` archive (a zip of
``.npy`` members, written without pickled objects).  Every file holds
``format_version`` and ``kind`` entries; ``kind`` is ``"subspace"`` or
``"model"``.  A subspace file stores the ambient dimension, the basis
(row-major float64), the spectrum, and the source word count.  A model
file stores the strategy tag, the class list, the per-class artifacts
its model class lists in ``container()``, and its hyperparameters as
``hyper_json``; the strategy table of `evaluation` names the class that
reads them back.  See README.md for the full entry list.

String sequences (tuples or lists of str) are stored as unicode arrays
and read back as tuples; a scalar string reads back as ``str``.  Float
entries must be finite.
"""

import json
import zipfile

import numpy as np

from .errors import FormatError
from .evaluation import STRATEGIES
from .subspace import Subspace

FORMAT_VERSION = 1


def _savez_exact(path, entries):
    entries = {
        k: np.asarray(list(v), dtype=np.str_) if isinstance(v, (tuple, list)) else v
        for k, v in entries.items()
    }
    # np.savez appends ".npz" to bare paths; an open handle keeps the
    # name exactly as given
    with open(path, "wb") as fh:
        np.savez(fh, **entries)


def _decoded(arr):
    if arr.dtype.kind == "U":
        return str(arr) if arr.ndim == 0 else tuple(str(v) for v in arr)
    return arr


def _read(path, expected_kind):
    """Every entry of a container of ``expected_kind``, decoded."""
    try:
        data = np.load(path, allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile) as err:
        # bytes that are neither .npy nor a zip are refused as a pickle
        # (ValueError, EOFError when empty); a damaged zip is BadZipFile
        raise FormatError(f"not a wordspace container file: {err}") from None
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise FormatError("not a wordspace container file: a bare array")
    with data:
        _check(data, expected_kind)
        try:
            arrays = {k: _decoded(data[k]) for k in data.files}
        except (ValueError, zipfile.BadZipFile) as err:
            raise FormatError(f"damaged container entry: {err}") from None
    for name, arr in arrays.items():
        if isinstance(arr, np.ndarray) and arr.dtype.kind == "f" \
                and not np.all(np.isfinite(arr)):
            raise FormatError(f"container entry {name!r} has non-finite values")
    return arrays


def save_subspace(sub: Subspace, path):
    _savez_exact(path, {
        "format_version": FORMAT_VERSION,
        "kind": "subspace",
        "ambient_dim": sub.ambient_dimension,
        "basis": sub.basis,
        "spectrum": sub.spectrum,
        "source_word_count": sub.source_word_count,
    })


def load_subspace(path) -> Subspace:
    arrays = _read(path, "subspace")
    try:
        return Subspace(
            arrays["basis"], arrays["spectrum"], int(arrays["source_word_count"])
        )
    except KeyError as err:
        raise FormatError(f"subspace container lacks entry {err}") from None


def _check(data, expected_kind):
    if "format_version" not in data or "kind" not in data:
        raise FormatError("not a wordspace container file")
    version = int(data["format_version"])
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported container version {version}")
    kind = str(data["kind"])
    if kind != expected_kind:
        raise FormatError(f"expected a {expected_kind} container, found {kind!r}")


def save_model(model, path):
    """Serialize any trained model to the container format."""
    hyper, arrays = model.container()
    _savez_exact(path, {
        "format_version": FORMAT_VERSION,
        "kind": "model",
        "strategy": model.strategy,
        "classes": model.classes,
        **arrays,
        "hyper_json": json.dumps(hyper),
    })


def load_model(path):
    """Reconstruct a trained model from a container file."""
    arrays = _read(path, "model")
    try:
        strategy = str(arrays["strategy"])
        if strategy not in STRATEGIES:
            raise FormatError(f"unknown strategy tag {strategy!r}")
        hyper = json.loads(arrays["hyper_json"])
        return STRATEGIES[strategy].model.from_container(hyper, arrays)
    except KeyError as err:
        raise FormatError(f"model container lacks entry {err}") from None
    except json.JSONDecodeError as err:
        raise FormatError(f"malformed hyper_json: {err}") from None
