"""Build, cache and call the compiled kernels in ``_kernels.c``.

The C source ships inside the package and is compiled on first use with
the local ``gcc``.  The library is cached like bytecode, in the
``__pycache__`` beside the source, under a name that carries the SHA-256
of the source bytes and the compiler flags, and is written atomically, so
concurrent first uses leave one complete library.  When that directory is
read-only the library is built in a private temporary directory instead.
"""

from __future__ import annotations

import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ValidationError

COMPILER = "gcc"
# No -march=native and no -ffast-math, and no FMA contraction: the bytes must
# not depend on the CPU the library is built on.  -pthread for the layout's
# worker threads.
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off", "-pthread")


def library_name(source: bytes, flags: tuple[str, ...] = FLAGS) -> str:
    """Cache file name of the library built from ``source`` with ``flags``."""
    digest = hashlib.sha256(source + b"\0" + "\0".join(flags).encode()).hexdigest()
    return f"_kernels.{digest}.so"


def _compile(source: bytes, target: Path) -> None:
    if shutil.which(COMPILER) is None:
        raise ValidationError(
            f"the kernels are compiled on first use, but the C compiler "
            f"{COMPILER!r} is not on PATH"
        )
    partial = target.with_name(
        f"{target.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    )
    try:
        done = subprocess.run(
            [COMPILER, *FLAGS, "-x", "c", "-", "-o", str(partial), "-lm"],
            input=source,
            capture_output=True,
        )
        if done.returncode != 0:
            raise ValidationError(
                f"{COMPILER} failed to build the kernel library: "
                f"{done.stderr.decode(errors='replace').strip()}"
            )
        os.replace(partial, target)
    finally:
        partial.unlink(missing_ok=True)


@functools.cache
def load():
    """The kernel library, built on first use; later calls return it again."""
    import ctypes

    source = resources.files(__package__).joinpath("_kernels.c").read_bytes()
    cache = Path(__file__).with_name("__pycache__")
    try:
        cache.mkdir(exist_ok=True)
        writable = os.access(cache, os.W_OK)
    except OSError:
        writable = False
    if writable:
        path = cache / library_name(source)
        if not path.exists():
            _compile(source, path)
        lib = ctypes.CDLL(str(path))
    else:
        with tempfile.TemporaryDirectory(prefix="topicforge-") as private:
            path = Path(private) / library_name(source)
            _compile(source, path)
            lib = ctypes.CDLL(str(path))
    pointer, i64, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    lib.tf_optimize_layout.argtypes = [
        pointer, i64, i64, pointer, pointer, pointer, i64, i64, i64, f64, f64,
        ctypes.c_uint64, i64,
    ]
    lib.tf_optimize_layout.restype = ctypes.c_int
    lib.tf_mst_reachability.argtypes = [pointer, pointer, i64, i64, pointer]
    lib.tf_mst_reachability.restype = ctypes.c_int
    lib.tf_core_distances.argtypes = [pointer, i64, i64, i64, pointer]
    lib.tf_core_distances.restype = ctypes.c_int
    lib.tf_knn_rows.argtypes = [
        pointer, i64, i64, pointer, i64, i64, i64, pointer, pointer,
    ]
    lib.tf_knn_rows.restype = ctypes.c_int
    return lib


def optimize_layout(
    coords: np.ndarray,
    heads: np.ndarray,
    tails: np.ndarray,
    weights: np.ndarray,
    epochs: int,
    negative_sample_rate: int,
    a: float,
    b: float,
    seed: int,
) -> np.ndarray:
    """Run ``epochs`` layout epochs on a copy of ``coords`` and return it.

    ``tf_optimize_layout`` in ``_kernels.c`` documents the update; the
    negative samples come from ``seed`` alone.  The epochs run on as many
    threads as this process may use CPUs, and the bytes are the same at
    any thread count.
    """
    n, dim = coords.shape
    if n >= 2**32:
        raise ValidationError(f"the layout supports fewer than 2**32 points, got {n}")
    coords = np.array(coords, dtype=np.float64, order="C")
    heads = np.ascontiguousarray(heads, dtype=np.int64)
    tails = np.ascontiguousarray(tails, dtype=np.int64)
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    m = len(weights)
    if heads.shape != (m,) or tails.shape != (m,):
        raise ValidationError("heads, tails and weights must be 1-d of equal length")
    if m and (min(heads.min(), tails.min()) < 0 or max(heads.max(), tails.max()) >= n):
        raise ValidationError(f"edge endpoints must lie in [0, {n})")
    status = load().tf_optimize_layout(
        coords.ctypes.data, n, dim, heads.ctypes.data, tails.ctypes.data,
        weights.ctypes.data, m, epochs, negative_sample_rate, a, b, seed,
        len(os.sched_getaffinity(0)),
    )
    if status != 0:
        raise MemoryError("the layout kernel could not allocate its buffers")
    return coords


def core_distances(points: np.ndarray, k: int) -> np.ndarray:
    """Distance from each of the ``(n, dim)`` points to its k-th nearest
    other point; ``tf_core_distances`` in ``_kernels.c`` documents the sum.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] < 1:
        raise ValidationError("points must be (n, dim)")
    n, dim = points.shape
    if not 1 <= k < n:
        raise ValidationError(f"k must be in [1, {n - 1}] for {n} points, got {k}")
    out = np.empty(n)
    status = load().tf_core_distances(points.ctypes.data, n, dim, k, out.ctypes.data)
    if status != 0:
        raise MemoryError("the core distance kernel could not allocate its buffers")
    return out


def mst_reachability(points: np.ndarray, core: np.ndarray) -> np.ndarray:
    """Minimum spanning tree of the mutual reachability graph of the
    ``(n, dim)`` points with core distances ``core``, as ``(n - 1, 3)``
    rows of (point i, point j, weight) with i < j.

    ``tf_mst_reachability`` in ``_kernels.c`` documents the weights and
    the tie order.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    core = np.ascontiguousarray(core, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] < 1 or core.shape != points.shape[:1]:
        raise ValidationError("points must be (n, dim) and core (n,)")
    n = len(core)
    if n < 2:
        raise ValidationError("need at least 2 points for a spanning tree")
    edges = np.empty((n - 1, 3))
    status = load().tf_mst_reachability(
        points.ctypes.data, core.ctypes.data, n, points.shape[1], edges.ctypes.data
    )
    if status == -1:
        raise MemoryError("the spanning tree kernel could not allocate its buffers")
    if status != 0:
        raise ValidationError("mutual reachability weights must not be NaN")
    return edges


def knn_rows(
    similarities: np.ndarray, unit: np.ndarray, start: int, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exact k nearest neighbors of rows ``start, start + 1, ...`` of the
    unit rows ``unit`` under cosine distance, self excluded, as
    ``(indices, distances)`` of shape ``(rows, k)``.

    ``similarities`` holds those rows' float32 products with every row of
    ``unit`` rounded to float32; they only pick the candidates.
    ``tf_knn_rows`` in ``_kernels.c`` documents the candidates, the exact
    distances and the order.
    """
    similarities = np.ascontiguousarray(similarities, dtype=np.float32)
    unit = np.ascontiguousarray(unit, dtype=np.float64)
    if similarities.ndim != 2 or unit.ndim != 2 or unit.shape[1] < 1:
        raise ValidationError("similarities must be (rows, n) and unit (n, dim)")
    rows, n = similarities.shape
    if len(unit) != n or not 0 <= start <= n - rows:
        raise ValidationError(
            f"rows [{start}, {start + rows}) of {n} similarities must fit "
            f"{len(unit)} unit rows"
        )
    if not 1 <= k < n:
        raise ValidationError(f"k must be in [1, {n - 1}] for {n} rows, got {k}")
    indices = np.empty((rows, k), dtype=np.int64)
    distances = np.empty((rows, k))
    status = load().tf_knn_rows(
        similarities.ctypes.data, rows, start, unit.ctypes.data, n, unit.shape[1], k,
        indices.ctypes.data, distances.ctypes.data,
    )
    if status != 0:
        raise MemoryError("the neighbor kernel could not allocate its buffers")
    return indices, distances
