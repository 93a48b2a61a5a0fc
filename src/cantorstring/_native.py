"""The compiled loops of _native.c: the Sturm count sweep, the bracketing pass, tree growth.

The first count or growth of a process compiles _native.c with sysconfig's CC,
else cc, and `-O3 -shared -fPIC -ffp-contract=off` into $XDG_CACHE_HOME/cantorstring
or ~/.cache/cantorstring (mode 0700), named by the sha256 of the source, the flags
and the platform, rebuilds a library there that fails to load, and loads it with
ctypes. `-ffp-contract=off` forbids fusing a multiply into an add, which would round
once where numpy rounds twice; -ffast-math and -Ofast reorder, so neither is used. On
x86-64 with glibc the library holds an AVX2 and a baseline clone of each multi-shift
count sweep, and glibc's loader picks one by the CPU; elsewhere it holds the baseline
alone. Both clones run the same IEEE operations in the same order, without FMA, so
either gives every count the same bits. A whole-file -march=native stays out: the cache
is keyed by platform, not by CPU, and with gcc 12 on a CPU with AVX512-FP16 it sets
FLT_EVAL_METHOD to 16, which _native.c refuses. So each step is numpy's IEEE operation
and every count and node keeps its bits. With no compiler, a failed build or an
unusable cache, `library()` is None and the callers run their numpy references
(stieltjes._block_sweep, tree._grow_numpy).
"""
from __future__ import annotations

import ctypes
import functools
import os
import shutil
import sysconfig
import tempfile
from pathlib import Path

_SOURCE = Path(__file__).with_suffix(".c")
_CFLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off")

_P, _I, _D = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
# n_maps, start, r, c, w, tau, cum, n_cum, depth, min_length, max_sigma, roots, root states,
# root length, max_nodes
_GROW = (_P,) * 7 + (_I, _I, _D, _D, _I, _P, _D, _I)
_SIGNATURES = {"sturm_counts": (_I, _I, _D) + (_P,) * 6,
               "bracket_counts": (_I, _D, _D) + (_P,) * 3 + (_I,) + (_P,) * 5,
               "grow_count": _GROW + (_I, _P),
               "grow_fill": _GROW + (_I,) + (_P,) * 8}


@functools.cache
def library():
    """_native.c built on first use into the user cache, its functions typed; None if it
    cannot be."""
    import hashlib
    import subprocess
    try:
        key = repr((_SOURCE.read_bytes(), _CFLAGS, sysconfig.get_platform())).encode()
        cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "cantorstring"
        path = cache / f"_native-{hashlib.sha256(key).hexdigest()[:16]}.so"
        if not path.exists():
            _build(path)
        owner = cache.stat()
        if owner.st_uid != os.getuid() or owner.st_mode & 0o022:
            return None  # a library that others can replace is never loaded
        try:
            loaded = _typed(ctypes.CDLL(str(path)))
        except (OSError, AttributeError):  # a corrupt or foreign library is built again, once
            _build(path)
            loaded = _typed(ctypes.CDLL(str(path)))
    except (OSError, AttributeError, RuntimeError, subprocess.SubprocessError):
        return None
    return loaded


def _typed(loaded: ctypes.CDLL) -> ctypes.CDLL:
    for name, argtypes in _SIGNATURES.items():
        function = getattr(loaded, name)
        function.argtypes = argtypes
        function.restype = _I if name.startswith("grow") else None
    return loaded


def _build(path: Path) -> None:
    """Compile _native.c in a temporary directory beside path, then move it into place."""
    import subprocess
    compiler = next((cc for cc in ((sysconfig.get_config_var("CC") or "cc").split(), ["cc"])
                     if shutil.which(cc[0])), None)
    if compiler is None:
        raise FileNotFoundError("no C compiler on PATH")
    path.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=path.parent) as scratch:
        built = os.path.join(scratch, path.name)
        subprocess.run([*compiler, *_CFLAGS, "-o", built, str(_SOURCE)],
                       check=True, capture_output=True, timeout=300)
        os.replace(built, path)
