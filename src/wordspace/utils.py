"""Small shared helpers."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import FormatError


def parallel_map(fn, items, threads):
    """Order-preserving map, sequential when ``threads`` is 1.

    Work items must be independent and pure; with more than one thread
    they run on a thread pool (numpy releases the GIL in the kernels
    that dominate the per-item cost).
    """
    items = list(items)
    threads = max(1, int(threads))
    if threads == 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def read_lines(source, what):
    """The lines of a path, a text or bytes file object, or an iterable of
    lines, without their line ends.  A line ends at ``\\n``, ``\\r\\n`` or
    ``\\r`` only; a leading byte-order mark is dropped.  Bytes that are not
    UTF-8 are a `FormatError` naming ``what``."""
    if hasattr(source, "read"):
        text = source.read()
    elif isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, "rb") as fh:
            text = fh.read()
    else:
        text = "\n".join(line.removesuffix("\n").removesuffix("\r") for line in source)
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")  # whole: an error gives the file offset
        except UnicodeDecodeError as err:
            raise FormatError(f"{what} is not valid UTF-8: {err}") from None
    return text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n").split("\n")


def container_array(arrays, name, *shape):
    """Numeric model-container entry ``name``, checked against ``shape``.

    A ``None`` in ``shape`` accepts any length on that axis.  Raises
    `FormatError` for a non-numeric entry or another rank or length, so
    a doctored container is refused when it is read, not when it is used.
    """
    arr = arrays[name]
    if not (isinstance(arr, np.ndarray) and arr.dtype.kind in "fiu"
            and arr.ndim == len(shape)
            and all(want is None or got == want for got, want in zip(arr.shape, shape))):
        want = " x ".join("any" if n is None else str(n) for n in shape) or "scalar"
        got = getattr(arr, "shape", type(arr).__name__)
        raise FormatError(f"container entry {name!r} must be a numeric {want} "
                          f"array, found {got}")
    return arr


def container_text(arrays, name, kind=tuple):
    """Text entry ``name``: a ``str``, or by default a tuple of them.
    Raises `FormatError` for anything else."""
    value = arrays[name]
    if not isinstance(value, kind):
        want = "a string" if kind is str else "a list of strings"
        raise FormatError(f"container entry {name!r} must be {want}")
    return value
