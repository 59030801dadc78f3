"""petfuse's native library, _native.c, compiled once into a per-user cache
and loaded through ctypes; training takes its fused AdamW update from it
and data its manifest row reader and writer.

Each caller keeps a pure-Python path that gives the same bits, so a host
without a C compiler, or a cache it cannot trust, runs without the library.
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
_UNLOADED = object()
_library = _UNLOADED
# held while the library is looked for: `train` reads its manifest on a
# second thread, so two threads can ask for it at once
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


def _function(name: str, argtypes, restype):
    """The library's function `name` as a ctypes function, the library
    looked for once per process; None where it cannot be built or loaded."""
    global _library
    with _lock:
        if _library is _UNLOADED:
            _library = _load()
        try:
            fn = getattr(_library, name)
        except AttributeError:  # no library, or no such symbol
            return None
        fn.argtypes, fn.restype = argtypes, restype
        return fn
