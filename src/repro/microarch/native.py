"""The native trace walk: ``walk.c``, compiled on first use, run via ctypes.

:func:`library` builds ``walk.c`` with the system C compiler
(``sysconfig``'s ``CC`` when that runs here, else ``cc``) the first time a
walk asks for it, and loads it with :mod:`ctypes`.  The shared object is
cached in this package's ``__pycache__`` under a name keyed by the sha256
of the source, the compiler command and the platform, so an edited source
or another compiler builds afresh and a stale object is never loaded.
When ``__pycache__`` is not writable it is built in a private temporary
directory, removed at exit.  It is written to a temporary name and moved
into place with :func:`os.replace`, so processes and threads that build it
at the same time never see a partial file.

Nothing is compiled or loaded at import.  When the platform has no
compiler, or the build or the load fails, :func:`library` returns ``None``
and every walk takes the Python reference
(:func:`repro.microarch.pipeline._walk`); the
``microarch.native_walks`` / ``microarch.python_walks`` counters show
which ran.
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import logging
import os
import platform
import shlex
import shutil
import subprocess
import sys
import sysconfig
import tempfile
import threading
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

log = logging.getLogger("repro.microarch.native")

SOURCE = Path(__file__).with_name("walk.c")
#: Portable optimisation only: a cached object must run on any CPU of
#: its platform.
CFLAGS = ("-O2", "-std=c99", "-shared", "-fPIC")
#: Length of the output array (``walk.c``'s ``N_OUTPUTS``; it checks the
#: length it is given, and the parameter count, against its own).
N_OUTPUTS = 6
#: dtype of each decoded column, in ``repro_walk``'s argument order:
#: kind, queue, FU group, the two dependence distances, then the I-cache
#: miss, L1 miss, L2 miss and misprediction flags.
COLUMN_DTYPES = (np.uint8,) * 3 + (np.int64,) * 2 + (np.uint8,) * 4

_COMPILE_TIMEOUT_S = 120.0
_PACKAGE_CACHE = Path(__file__).with_name("__pycache__")

_lock = threading.Lock()
#: ``[library or None]`` once the first walk has asked for it.
_loaded: List[Optional[ctypes.CDLL]] = []


def compiler() -> List[str]:
    """The system C compiler command: ``sysconfig``'s ``CC`` if it runs
    here, else ``cc``."""
    words = shlex.split(sysconfig.get_config_var("CC") or "")
    if words and shutil.which(words[0]):
        return words
    return ["cc"]


def library() -> Optional[ctypes.CDLL]:
    """The loaded native walk, built on the first call; ``None`` when this
    platform cannot build or load it (then every walk runs in Python)."""
    if not _loaded:
        with _lock:
            if not _loaded:
                _loaded.append(_load())
    return _loaded[0]


def _load() -> Optional[ctypes.CDLL]:
    command = compiler()
    source = SOURCE.read_bytes()
    tag = "\0".join([
        *command, *CFLAGS, sys.platform, platform.machine(),
        sysconfig.get_platform(),
    ])
    key = hashlib.sha256(source + b"\0" + tag.encode()).hexdigest()[:16]
    name = f"walk-{key}{sysconfig.get_config_var('SHLIB_SUFFIX') or '.so'}"
    path = _PACKAGE_CACHE / name
    try:
        if not path.exists():
            path = _build(command, _writable_cache_dir() / name)
        lib = ctypes.CDLL(str(path))
    except (OSError, subprocess.SubprocessError) as exc:
        log.warning("native trace walk unavailable, walking in Python: %s",
                    exc)
        return None
    lib.repro_walk.argtypes = (
        [ctypes.c_int64] + [ctypes.c_void_p] * len(COLUMN_DTYPES)
        + [ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64]
    )
    lib.repro_walk.restype = ctypes.c_int
    return lib


def _writable_cache_dir() -> Path:
    """The package's ``__pycache__``, else a private temporary directory."""
    try:
        _PACKAGE_CACHE.mkdir(exist_ok=True)
    except OSError:
        pass
    if os.access(_PACKAGE_CACHE, os.W_OK | os.X_OK):
        return _PACKAGE_CACHE
    private = Path(tempfile.mkdtemp(prefix="repro-walk-"))
    atexit.register(shutil.rmtree, private, ignore_errors=True)
    return private


def _build(command: Sequence[str], path: Path) -> Path:
    """Compile ``walk.c`` to ``path`` through a temporary file."""
    fd, partial = tempfile.mkstemp(dir=path.parent, prefix=f"{path.name}.",
                                   suffix=".tmp")
    os.close(fd)
    start = time.perf_counter()
    try:
        done = subprocess.run(
            [*command, *CFLAGS, "-o", partial, str(SOURCE)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            timeout=_COMPILE_TIMEOUT_S,
        )
        if done.returncode != 0:
            raise OSError(f"{command[0]} exited with {done.returncode}: "
                          f"{done.stdout.strip()[-2000:]}")
        os.replace(partial, path)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)
    log.info("built the native trace walk %s in %.2f s", path,
             time.perf_counter() - start)
    return path


class NativeTrace:
    """Decoded trace columns, marshalled once for any number of walks.

    The arrays stay referenced here for as long as a walk may read them.
    """

    def __init__(self, lib: ctypes.CDLL, columns: Sequence[np.ndarray]):
        if len(columns) != len(COLUMN_DTYPES):
            raise ValueError(f"expected {len(COLUMN_DTYPES)} columns")
        self._lib = lib
        self._arrays = tuple(
            np.ascontiguousarray(column, dtype=dtype)
            for column, dtype in zip(columns, COLUMN_DTYPES)
        )
        self._n = len(self._arrays[0])
        if any(len(array) != self._n for array in self._arrays):
            raise ValueError("trace columns have mismatched lengths")
        self._pointers = [array.ctypes.data for array in self._arrays]

    def walk(self, params: Sequence[int]) -> Optional[Tuple[int, ...]]:
        """One walk; ``None`` when ``walk.c`` refuses the input (a value
        out of its range), which leaves it to the Python walk."""
        try:
            packed = np.array(params, dtype=np.int64).ravel()
        except OverflowError:
            return None
        out = np.zeros(N_OUTPUTS, dtype=np.int64)
        status = self._lib.repro_walk(
            self._n, *self._pointers, packed.ctypes.data, packed.size,
            out.ctypes.data, out.size,
        )
        if status != 0:
            return None
        return tuple(out.tolist())
