"""The compiled kernels, built and loaded on first use.

Four hot loops run in C: the batch timing walk with its knob-dependent
terms (``engine/walk.c``), the line requests and the cache walk of
classification (``memory/classify.c``) and the discrete-event engine
(``engine/event.c``). The sources are built into one shared library with
the host's C compiler the first time any is needed in a process, and
loaded with :mod:`ctypes`. Where no compiler can build it,
:func:`library` warns once with a :class:`RuntimeWarning`, never retries,
and each caller runs its specification instead
(:func:`repro.engine.batch_sim._numpy_walk` over NumPy's knob matrices,
:func:`repro.memory.classify._numpy_line_requests`, the dict walk
:func:`repro.memory.classify._dict_walk`, the coroutine DES
:func:`repro.engine.event_sim.simulate_events`); the results are
bit-identical either way.

Nothing is built at import. A process that forks workers loads the
library first (:func:`repro.core.sweeps._sweep` does), so the workers
inherit the mapping instead of each building it.
"""

from __future__ import annotations

import ctypes
import os
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
import warnings
from collections.abc import Sequence
from pathlib import Path
from typing import Any

import numpy as np

_ROOT = Path(__file__).parent
_SOURCES = (_ROOT / "engine" / "walk.c", _ROOT / "memory" / "classify.c",
            _ROOT / "engine" / "event.c")

#: the loaded library; False once its build failed
_lib: ctypes.CDLL | bool | None = None


def _compiler() -> list[str]:
    """The C compiler Python was built with, else ``cc``."""
    cmd = shlex.split(sysconfig.get_config_var("CC") or "")
    return cmd if cmd and shutil.which(cmd[0]) else ["cc"]


def _build() -> ctypes.CDLL:
    """Compile every source into one library in a private directory and
    load it."""
    from repro.obs.record import get_recorder

    get_recorder().count("native.builds")
    tmp = tempfile.mkdtemp(prefix="repro-native-")
    try:
        so = os.path.join(tmp, "repro_native.so")
        # no -ffast-math or -march: the walk must round as NumPy does
        subprocess.run([*_compiler(), "-O2", "-shared", "-fPIC",
                        "-ffp-contract=off", "-o", so,
                        *map(str, _SOURCES)],
                       check=True, capture_output=True)
        return ctypes.CDLL(so)
    finally:
        # the loaded library stays mapped once its file is gone
        shutil.rmtree(tmp, ignore_errors=True)


def library() -> ctypes.CDLL | None:
    """The compiled kernels, built on the first call in a process.

    ``None`` when they cannot be built or loaded: the first such call
    warns once, and no later call retries the build.
    """
    global _lib
    if _lib is None:
        try:
            _lib = _build()
        except (OSError, subprocess.SubprocessError) as exc:
            # stacklevel=1: one location whichever caller builds first,
            # so the default filter shows it once per process
            warnings.warn(f"cannot build the compiled kernels ({exc}); "
                          "using the NumPy batch walk, the NumPy line "
                          "requests, the Python classification walk and "
                          "the coroutine DES for 'event'", RuntimeWarning,
                          stacklevel=1)
            _lib = False
    return _lib or None


def function(name: str, argtypes: Sequence[Any], restype: Any = None
             ) -> Any:
    """Kernel ``name`` with its argument and return types set, or
    ``None`` when the library cannot be built."""
    lib = library()
    if lib is None:
        return None
    fn = getattr(lib, name)
    fn.argtypes = argtypes
    fn.restype = restype
    return fn


def ndarray(dtype: Any, writeable: bool = False) -> Any:
    """``ctypes`` argument type of a C-contiguous array of ``dtype``."""
    flags = "C_CONTIGUOUS,WRITEABLE" if writeable else "C_CONTIGUOUS"
    return np.ctypeslib.ndpointer(dtype, flags=flags)

