"""Versioned on-disk container for trained models.

The container is an uncompressed NumPy ``.npz`` archive (a zip of
``.npy`` members, written without pickled objects).  Every file holds
``format_version``, ``kind`` (always ``"model"``), the strategy tag, the
class list, the per-class artifacts its model class lists in
``container()``, and its hyperparameters as ``hyper_json``; the strategy
table of `evaluation` names the class that reads them back.  See
README.md for the full entry list.

String sequences (tuples or lists of str) are stored as unicode arrays
and read back as tuples; a scalar string reads back as ``str``.  Such
an array drops a string's trailing NUL characters, so `save_model`
refuses a string ending in one.  Float entries must be finite.
"""

import json
import zipfile

import numpy as np

from .corpus import is_word
from .errors import DataError, FormatError
from .evaluation import STRATEGIES
from .utils import container_array, container_text

FORMAT_VERSION = 1


def _savez_exact(path, entries):
    entries = {k: _text_array(k, v) if isinstance(v, (tuple, list)) else v
               for k, v in entries.items()}
    # np.savez appends ".npz" to bare paths; an open handle keeps the
    # name exactly as given
    with open(path, "wb") as fh:
        np.savez(fh, **entries)


def _text_array(name, strings):
    """``strings`` as a unicode array.  Such an array pads its strings
    with NUL characters and drops them when read, so a string that ends
    in one is refused: it would read back as another word."""
    arr = np.asarray(list(strings), dtype=np.str_)
    for word, stored in zip(strings, arr):
        if word != stored:
            raise DataError(f"container entry {name!r} cannot hold {word!r}: "
                            "a stored string loses its trailing NUL characters")
    return arr


def _decoded(arr):
    if arr.dtype.kind == "U":
        return str(arr) if arr.ndim == 0 else tuple(str(v) for v in arr)
    return arr


# What numpy and zipfile raise for damaged bytes: bytes that are neither
# .npy nor a zip are refused as a pickle (ValueError; EOFError when
# empty), a broken zip structure is BadZipFile, and a zip that asks for
# an unsupported version or for encryption NotImplementedError or
# RuntimeError.
_DAMAGED = (ValueError, EOFError, RuntimeError, zipfile.BadZipFile)


def _read(path):
    """Every entry of a model container, decoded."""
    try:
        # our own handle: closed on every path, a refused archive included
        with open(path, "rb") as fh:
            data = np.load(fh, allow_pickle=False)
            if not isinstance(data, np.lib.npyio.NpzFile):
                raise FormatError("not a wordspace container file: a bare array")
            with data:
                arrays = {k: _decoded(data[k]) for k in data.files}
    except _DAMAGED as err:
        raise FormatError(f"not a wordspace container file or a damaged one: {err}") from None
    _check(arrays)
    for name, arr in arrays.items():
        if isinstance(arr, np.ndarray) and arr.dtype.kind == "f" \
                and not np.all(np.isfinite(arr)):
            raise FormatError(f"container entry {name!r} has non-finite values")
    return arrays


def _check(arrays):
    if "format_version" not in arrays or "kind" not in arrays:
        raise FormatError("not a wordspace container file")
    version = int(container_array(arrays, "format_version"))
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported container version {version}")
    kind = arrays["kind"]
    if not isinstance(kind, str) or kind != "model":
        raise FormatError(f"expected a model container, found {kind!r}")


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
    arrays = _read(path)
    try:
        strategy = str(arrays["strategy"])
        if strategy not in STRATEGIES:
            raise FormatError(f"unknown strategy tag {strategy!r}")
        hyper = json.loads(container_text(arrays, "hyper_json", str))
        if not isinstance(hyper, dict):
            raise FormatError("hyper_json must hold a JSON object")
        classes = container_text(arrays, "classes")
        if not classes:
            raise FormatError("a model needs at least one class")
        for i, label in enumerate(classes):
            # classify prints each label as one tab-separated field
            if not is_word(label):
                raise FormatError(f"class label {label!r} is empty or contains whitespace")
            if label in classes[:i]:
                raise FormatError(f"class label {label!r} is repeated")
        return STRATEGIES[strategy].model.from_container(hyper, arrays)
    except KeyError as err:
        raise FormatError(f"model container lacks entry {err}") from None
    except json.JSONDecodeError as err:
        raise FormatError(f"malformed hyper_json: {err}") from None
