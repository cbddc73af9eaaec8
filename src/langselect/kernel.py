"""The learner's two loops over a batch's non-zeros, in C.

``logits`` and ``scatter`` walk CSR rows (``indptr``, the per-non-zero
row ``slot`` of ``V`` and the value ``data``) for the batch rows listed
in ``rows``, and ``V`` holds 3 class weights per row, C-contiguous:

- ``logits(indptr, slot, data, V, rows, nb, out)`` sets ``out[i, k]``,
  for each of the ``nb`` batch rows in ``rows`` order, to the sum of
  ``data[j] * V[slot[j], k]`` over the row's non-zeros in ``indptr``
  order, starting from 0.0;
- ``scatter(indptr, slot, data, V, rows, nb, dz, c)`` adds
  ``dz[i, k] * (c * data[j])`` into ``V[slot[j], k]`` over the same
  non-zeros in the same order.

Each is a sequential loop of correctly rounded multiplies and adds, and
the flags forbid contracting them into fused multiply-adds or
reordering them, so the floats are those of the same loop written in
Python. Every pointer argument is an address (an ``int``), of int64
index arrays and float64 value arrays.

The source is compiled with the system C compiler ``cc`` on first use
and cached as ``$XDG_CACHE_HOME/langselect/kernel-<digest>.so`` (else
under ``~/.cache``), named by the digest of the source, the flags and
the machine type, so a cached library is loaded without running the
compiler. A build writes a temporary file in that directory and renames
it, so concurrent builds cannot race. When the directory cannot be
used, because it cannot be written or other users can write it, the
library is built in a private temporary directory for this process
instead, with a warning.
"""
from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import platform
import stat
import threading
from pathlib import Path

from .errors import TextModelError

logger = logging.getLogger(__name__)

COMPILER = "cc"
FLAGS = ("-O2", "-std=c99", "-ffp-contract=off", "-fPIC", "-shared")

SOURCE = r"""
#include <stdint.h>

void logits(const int64_t *indptr, const int64_t *slot, const double *data,
            const double *V, const int64_t *rows, int64_t nb, double *out)
{
    for (int64_t i = 0; i < nb; i++) {
        double s0 = 0.0, s1 = 0.0, s2 = 0.0;
        for (int64_t j = indptr[rows[i]]; j < indptr[rows[i] + 1]; j++) {
            const double *v = V + 3 * slot[j];
            s0 += data[j] * v[0];
            s1 += data[j] * v[1];
            s2 += data[j] * v[2];
        }
        out[3 * i] = s0;
        out[3 * i + 1] = s1;
        out[3 * i + 2] = s2;
    }
}

void scatter(const int64_t *indptr, const int64_t *slot, const double *data,
             double *V, const int64_t *rows, int64_t nb, const double *dz, double c)
{
    for (int64_t i = 0; i < nb; i++) {
        const double *d = dz + 3 * i;
        for (int64_t j = indptr[rows[i]]; j < indptr[rows[i] + 1]; j++) {
            double t = c * data[j];
            double *v = V + 3 * slot[j];
            v[0] += d[0] * t;
            v[1] += d[1] * t;
            v[2] += d[2] * t;
        }
    }
}
"""

_LOCK = threading.Lock()
_LIB: ctypes.CDLL | None = None


def load() -> ctypes.CDLL:
    """The compiled library, built on the first call of any process that
    finds no cached copy; its ``logits`` and ``scatter`` take their
    arguments as described above. A build that fails, or finds no
    ``cc``, is a ``TextModelError`` naming the compiler."""
    global _LIB
    with _LOCK:
        if _LIB is None:
            _LIB = _open()
        return _LIB


def _open() -> ctypes.CDLL:
    digest = hashlib.sha256("\0".join([SOURCE, *FLAGS, platform.machine()]).encode("utf-8")).hexdigest()[:16]
    name = f"kernel-{digest}.so"
    directory = _cache_dir()
    if directory is not None:
        path = directory / name
        if not path.exists():
            try:
                _build(path)
            except OSError as e:
                logger.warning("cannot write the kernel cache %s (%s); building in a private directory", directory, e)
                directory = None
    if directory is None:
        return _private_build(name)
    return _bind(path)


def _cache_dir() -> Path | None:
    """The per-user cache directory, created 0700 if missing, or None,
    with a warning, when it cannot be created or other users can write
    to it."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    # The XDG spec ignores a relative path here.
    root = Path(base) if os.path.isabs(base) else Path.home() / ".cache"
    directory = root / "langselect"
    try:
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        info = directory.stat()
    except OSError as e:
        logger.warning("cannot use the kernel cache %s (%s); building in a private directory", directory, e)
        return None
    if info.st_uid != os.getuid() or info.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
        logger.warning("the kernel cache %s is not private to this user; building in a private directory", directory)
        return None
    return directory


def _private_build(name: str) -> ctypes.CDLL:
    """Build into a fresh private directory, load, and remove it: the
    loaded library stays mapped after its file is gone."""
    import shutil
    import tempfile

    try:
        directory = tempfile.mkdtemp(prefix="langselect-")
    except OSError as e:
        raise TextModelError(f"cannot make a directory to build the kernel in: {e}") from None
    try:
        path = Path(directory) / name
        _build(path)
        return _bind(path)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _build(path: Path) -> None:
    """Compile the source to ``path`` through a temporary file in its
    directory, renamed into place."""
    import subprocess
    import tempfile

    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".build-", suffix=".so")
    os.close(fd)
    try:
        try:
            done = subprocess.run(
                [COMPILER, *FLAGS, "-o", tmp, "-x", "c", "-"],
                input=SOURCE, capture_output=True, encoding="utf-8", check=False,
            )
        except OSError as e:
            raise TextModelError(f"training needs the C compiler {COMPILER!r}, which did not run: {e}") from None
        if done.returncode != 0:
            raise TextModelError(f"C compiler {COMPILER!r} failed to build the kernel: {done.stderr.strip()}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _bind(path: Path) -> ctypes.CDLL:
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as e:
        raise TextModelError(f"cannot load the kernel {path}: {e}") from None
    p, n = ctypes.c_void_p, ctypes.c_int64
    lib.logits.argtypes = (p, p, p, p, p, n, p)
    lib.logits.restype = None
    lib.scatter.argtypes = (p, p, p, p, p, n, p, ctypes.c_double)
    lib.scatter.restype = None
    return lib
