"""petfuse's native library, _native.c, compiled once into a per-user cache
and loaded through ctypes; training takes its fused AdamW update from it
and data its manifest row reader and writer, each through `function(name)`.

The C interface is declared here alone, in _SIGNATURES. Each caller keeps a
pure-Python path that gives the same bits, so a host without a C compiler,
or a cache it cannot trust, runs without the library.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import threading
from pathlib import Path

_SOURCE = Path(__file__).with_name("_native.c")
# No flag that lets the compiler reorder, contract or approximate a float64
# operation: each function is held to the bits of its Python path.
_FLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-shared", "-fPIC")
_ROW = [ctypes.c_void_p, ctypes.c_size_t, ctypes.c_void_p, ctypes.c_size_t]
# name -> (argtypes, restype) of each function _native.c exports
_SIGNATURES = {
    "adamw_update": ([ctypes.c_void_p] * 4 + [ctypes.c_size_t] + [ctypes.c_double] * 5,
                     ctypes.c_int),
    "parse_numbers": (_ROW, ctypes.c_ssize_t),
    "format_six_decimals": (_ROW, ctypes.c_ssize_t),
}
# name -> the library's function, or None where it cannot be built or loaded
_functions = {}
# held while the library is looked for, so threads that ask for it at once
# compile and load it once
_lock = threading.Lock()


def _compile(lib: Path):
    """Compile _SOURCE into `lib` with Python's own C compiler, through a
    temporary file in lib's directory that is renamed into place."""
    import shlex
    import subprocess
    import sysconfig
    import tempfile

    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if not cc:
        raise OSError("Python names no C compiler")
    fd, tmp = tempfile.mkstemp(prefix=".native-", suffix=".so", dir=lib.parent)
    os.close(fd)
    try:
        subprocess.run([*cc, *_FLAGS, "-o", tmp, str(_SOURCE), "-lm"],
                       stdin=subprocess.DEVNULL, capture_output=True, check=True,
                       timeout=120)
        os.replace(tmp, lib)
    except subprocess.SubprocessError as e:
        raise OSError(f"compiling {_SOURCE.name} failed") from e
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def _load():
    """The library, loaded from $XDG_CACHE_HOME/petfuse (default
    ~/.cache/petfuse) and compiled into it first if absent; None if any
    step fails. The file name carries a digest of the source, the compiler
    flags and the machine, so a library built from other source is never
    loaded. A cache directory that is not ours alone (another owner, or
    writable by group or world) is not loaded from."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    try:
        cache = Path(base if os.path.isabs(base) else Path.home() / ".cache") / "petfuse"
        key = hashlib.sha256(b"\0".join([_SOURCE.read_bytes(), *map(str.encode, _FLAGS),
                                         os.uname().machine.encode()]))
        lib = cache / f"native-{key.hexdigest()[:16]}.so"
        cache.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = cache.stat()
        if st.st_uid != os.getuid() or st.st_mode & 0o022:
            return None
        if not lib.exists():
            _compile(lib)
        return ctypes.CDLL(str(lib))
    except (OSError, RuntimeError):  # RuntimeError: no home directory
        return None


def function(name: str):
    """The library's function `name` of _SIGNATURES as a ctypes function;
    None where the library cannot be built or loaded. The first call of a
    process looks for the library and fills `_functions` for every name, so
    a later call is one dict lookup."""
    try:
        return _functions[name]
    except KeyError:
        pass
    with _lock:
        if name not in _functions:
            library = _load()
            for n, (argtypes, restype) in _SIGNATURES.items():
                fn = getattr(library, n, None)  # None: no library, or no such symbol
                if fn is not None:
                    fn.argtypes, fn.restype = argtypes, restype
                _functions.setdefault(n, fn)  # an entry set before stands
    return _functions[name]
