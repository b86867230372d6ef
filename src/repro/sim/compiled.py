"""The compiled kernel: found, built and loaded in one place.

``_kernel.c`` (beside this file) is a hand-written CPython C extension
holding one flat event loop, for the ``compiled`` engine's replays
(:mod:`repro.core.replay_compiled`; see its header for the determinism
argument) and for flat recording (:mod:`repro.sim.flat_record`), and the
``repro-schedule/1`` row decoder and encoder of stored schedules.  It ships
as source and builds itself: the first probe of a process — when an engine
list with ``compiled`` is drawn up (:mod:`repro.sim.backend`), a recording
is offered to the flat loop or a stored schedule is loaded or saved, never
at import, and remembered here, the one availability memo there is —
hashes the source and loads ``__pycache__/_kernel-<sha12><EXT_SUFFIX>`` from
beside it, compiling that file first when it is missing or does not load.
The name is the content, so an edited source never runs an old build; a
successful build deletes the builds and failure markers of other sources.

A build is one call of the interpreter's own link driver (``sysconfig``'s
``LDSHARED``, i.e. ``$(CC) -shared ...``) writing a temp file that is
``os.replace``d into place — the atomic-write rule of
``core/schedule.py::_atomic_write`` — so processes racing on an empty
cache all end with one valid file.  A build that cannot succeed (no compiler,
no headers, unwritable directory, non-POSIX) never raises: it leaves
``<file>.failed`` holding the reason, later processes decline from that
marker without spawning anything, and replays and recordings use the OO engine.
``python tools/build_compiled.py`` ignores the marker and builds now.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import logging
import os
import shlex
import shutil
import subprocess
import sysconfig
import time
from importlib.machinery import EXTENSION_SUFFIXES
from types import ModuleType
from typing import Callable, List, NamedTuple, Optional, Tuple

logger = logging.getLogger(__name__)

#: The kernel source; its builds are cached in ``__pycache__`` beside it.
_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")

#: The one place the compiler flags live.  ``-ffp-contract=off``: no FMA
#: contraction — the kernel's float additions must evaluate exactly as
#: CPython's (the bit-identity contract).  Its one product, ``size * 8.0``,
#: feeds a division, never an addition: nothing to contract, and this keeps it so.
_CFLAGS = ("-O2", "-ffp-contract=off", "-fno-fast-math")


class _Kernel(NamedTuple):
    """One probe's outcome: the loaded extension, or why there is none."""

    module: Optional[ModuleType]
    reason: Optional[str]
    source_sha: str = ""
    path: str = ""
    origin: str = ""  # "built" by this process | "cached" by an earlier one


def _compiler() -> Optional[List[str]]:
    """The interpreter's link driver as argv; ``None`` when it cannot run here."""
    argv = shlex.split(sysconfig.get_config_var("LDSHARED") or "")
    if os.name != "posix" or not argv or shutil.which(argv[0]) is None:
        return None
    return argv


def _spawn(argv: List[str]) -> subprocess.CompletedProcess[str]:
    """Run the compiler: the only place this module starts a process."""
    return subprocess.run(argv, capture_output=True, text=True)


def _build(target: str) -> Optional[str]:
    """Compile ``_SOURCE`` into ``target`` atomically; the failure reason, else ``None``."""
    directory = os.path.dirname(target)
    tmp = f"{target}.tmp.{os.getpid()}"
    try:
        os.makedirs(directory, exist_ok=True)  # first: the failure marker lives here too
        if not os.access(directory, os.W_OK):  # before paying for a compile
            return f"cannot build into {directory}: not writable"
        compiler = _compiler()
        if compiler is None:
            wanted = (sysconfig.get_config_var("LDSHARED") or "<unset>").split()[0]
            return f"no C compiler (sysconfig's LDSHARED driver {wanted!r} is not runnable here)"
        result = _spawn(
            [
                *compiler,
                *shlex.split(sysconfig.get_config_var("CCSHARED") or ""),
                *_CFLAGS,
                *(f"-I{sysconfig.get_path(key)}" for key in ("include", "platinclude")),
                _SOURCE,
                "-o",
                tmp,
            ]
        )
        if result.returncode != 0:
            tail = "\n".join(result.stderr.strip().splitlines()[-8:])
            return f"{compiler[0]} exited {result.returncode}:\n{tail}"
        os.replace(tmp, target)
        return None
    except OSError as error:
        return f"cannot build into {directory}: {error}"
    finally:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def _remove_other_builds(target: str, sha: str) -> None:
    """After ``target`` was built from source ``sha``: delete its failure marker
    and every build or marker of another source beside it.

    The name is the content, so no later probe loads those files.  Temp files
    of a racing build of the same source are left alone.
    """
    directory = os.path.dirname(target)
    others = [
        os.path.join(directory, name)
        for name in os.listdir(directory)
        if name.startswith("_kernel-") and not name.startswith(f"_kernel-{sha}")
    ]
    for path in [f"{target}.failed", *others]:
        with contextlib.suppress(OSError):
            os.unlink(path)


def _import(path: str) -> ModuleType:
    """Load the extension at ``path`` (``ImportError`` if absent, truncated or garbage)."""
    spec = importlib.util.spec_from_file_location("repro.sim._kernel", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _probe(force: bool = False) -> _Kernel:
    """Load the kernel built from the current source, building it if need be.

    Never raises.  ``force`` skips the cached file and the failure marker.
    """
    try:
        with open(_SOURCE, "rb") as stream:
            sha = hashlib.sha256(stream.read()).hexdigest()[:12]
    except OSError as error:
        return _Kernel(None, f"kernel source unreadable: {error}")
    target = os.path.join(
        os.path.dirname(_SOURCE),
        "__pycache__",
        f"_kernel-{sha}{EXTENSION_SUFFIXES[0]}",  # == sysconfig's EXT_SUFFIX, without loading it
    )
    marker = f"{target}.failed"
    reason = None
    if not force:
        # Absent or unloadable falls through: (re)build, unless that already failed.
        with contextlib.suppress(ImportError):
            module = _import(target)
            logger.debug("loaded cached %s", target)
            return _Kernel(module, None, sha, target, "cached")
        with contextlib.suppress(OSError), open(marker) as stream:
            reason = stream.read().strip()
    if reason is None:
        started = time.perf_counter()
        reason = _build(target)
        if reason is None:
            try:
                module = _import(target)
            except ImportError as error:
                reason = f"the built file does not load: {error}"
            else:
                _remove_other_builds(target, sha)
                elapsed = time.perf_counter() - started
                logger.info("built %s with %s in %.2fs -> %s", sha, module.COMPILER, elapsed, target)
                return _Kernel(module, None, sha, target, "built")
        with contextlib.suppress(OSError), open(marker, "w") as stream:
            stream.write(reason + "\n")
    return _Kernel(
        None,
        f"{reason}\n(failure marker: {marker}; `python tools/build_compiled.py` retries)",
        sha,
        target,
    )


#: This process's probe, once made: the one availability memo.
_memo: List[_Kernel] = []


def _kernel() -> _Kernel:
    """This process's kernel, probed on first use (and warned about once)."""
    if not _memo:
        kernel = _probe()
        if kernel.module is None:
            logger.warning(
                "compiled kernel unavailable: %s; replays use the reference engine, recordings "
                "use the OO engine, schedule loads use the json decoder and schedule saves use "
                "the json encoder",
                kernel.reason,
            )
        _memo.append(kernel)
    return _memo[0]


def build_kernel() -> Optional[str]:
    """Compile the kernel now, past any cached build or failure marker, and
    make that build this process's kernel.

    Returns the failure reason (also left in the marker), ``None`` on success.
    """
    _memo[:] = [_probe(force=True)]
    return _memo[0].reason


def kernel_available() -> bool:
    """Whether the compiled kernel loads here (the first call may build it)."""
    return _kernel().module is not None


def unavailable_reason() -> Optional[str]:
    """Why the kernel is unavailable (``None`` when it is available)."""
    return _kernel().reason


def kernel_loop(name: str) -> Callable:
    """The compiled kernel's ``run_flat_replay`` or ``run_flat_record``.

    Raises:
        RuntimeError: when the kernel is unavailable.  An unavailable engine
            is never a replay candidate
            (:func:`repro.sim.backend.replay_candidates`) and the flat
            recorder declines first, so this is a backstop, not an API.
    """
    kernel = _kernel()
    if kernel.module is None:
        raise RuntimeError(kernel.reason)
    return getattr(kernel.module, name)


def kernel_codecs() -> Optional[Tuple[Callable, Callable]]:
    """The compiled ``repro-schedule/1`` row codecs, ``(decode_rows,
    encode_rows)``, or ``None`` when the kernel is unavailable (the first
    call may build it).  Storage, not an engine: every load and save asks,
    whatever backend is pinned, through :func:`repro.core.schedule.native_codecs`."""
    module = _kernel().module
    return None if module is None else (module.decode_rows, module.encode_rows)


def kernel_build_info() -> Optional[dict]:
    """Build metadata shown by ``list --backends`` (``None`` when unavailable).

    The toolchain (a hand-written CPython C-API extension: no Cython or
    mypyc), the compiler that built it, the kernel's own version counter,
    the source hash it was built from, where it is cached, and whether this
    process ``built`` it or found it ``cached``.
    """
    kernel = _kernel()
    if kernel.module is None:
        return None
    return {
        "toolchain": kernel.module.TOOLCHAIN,
        "compiler": kernel.module.COMPILER,
        "kernel_version": kernel.module.KERNEL_VERSION,
        "source_sha": kernel.source_sha,
        "path": kernel.path,
        "origin": kernel.origin,
    }
