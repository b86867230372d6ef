"""Loader for the compiled replay kernel (``repro.sim._kernel``).

The kernel is a hand-written CPython C extension transliterating
:func:`repro.sim.vectorized.run_flat_replay` (see ``_kernel.c`` for the
determinism argument).  It is an *optional build*: ``setup.py`` declares it
with ``optional=True``, so installs without a C toolchain complete
pure-Python and this module reports the kernel as unavailable instead of
raising at import time.  ``python tools/build_compiled.py`` builds it in
place for PYTHONPATH-based checkouts.

This module is the single place that touches the extension: it wraps the
import, remembers the failure reason, and exposes build metadata for
``list --backends``.  :mod:`repro.core.replay_compiled` builds the registered
``"compiled"`` backend on top of it.
"""

from __future__ import annotations

from typing import Callable, Optional

_KERNEL = None
_IMPORT_ERROR: Optional[str] = None

try:  # pragma: no cover - exercised both ways across CI jobs
    from repro.sim import _kernel as _KERNEL  # type: ignore[no-redef]
except ImportError as error:  # pragma: no cover
    _IMPORT_ERROR = str(error)


def kernel_available() -> bool:
    """Whether the compiled kernel extension was built and imports."""
    return _KERNEL is not None


def unavailable_reason() -> Optional[str]:
    """Why the kernel is unavailable (``None`` when it is available)."""
    if _KERNEL is not None:
        return None
    return (
        "the compiled kernel extension (repro.sim._kernel) is not built; "
        "build it with `python tools/build_compiled.py` (requires a C "
        f"compiler and Python headers) or reinstall with `pip install -e "
        f".[compiled]` — import failed with: {_IMPORT_ERROR}"
    )


def kernel_run_flat_replay() -> Callable:
    """The compiled ``run_flat_replay`` entry point.

    Raises:
        RuntimeError: when the extension is not built.  Callers resolve
            availability through the backend registry first
            (``check_available``), so this is a backstop, not an API.
    """
    if _KERNEL is None:
        raise RuntimeError(unavailable_reason())
    return _KERNEL.run_flat_replay


def kernel_build_info() -> Optional[dict]:
    """Build metadata shown by ``list --backends`` (``None`` when not built).

    Carries the toolchain (the kernel is a hand-written CPython C-API
    extension — the container and CI images ship gcc but neither mypyc nor
    Cython, so the build has no Python-level compiler dependency), the
    compiler that built it, and the kernel's own version counter.
    """
    if _KERNEL is None:
        return None
    return {
        "toolchain": _KERNEL.TOOLCHAIN,
        "compiler": _KERNEL.COMPILER,
        "kernel_version": _KERNEL.KERNEL_VERSION,
        "module": getattr(_KERNEL, "__file__", None),
    }
