"""The ``"compiled"`` replay backend: the flat kernel as native code.

Same orchestration as the ``"vectorized"`` backend — numpy batch precompute
of every per-hop float (exact ``bytes * 8 / bw`` forms) from the schedule's
columns, output arrays wrapped as the replayed schedule's columns — but the
inner event loop runs in the compiled kernel extension
(:mod:`repro.sim._kernel`, a hand-written CPython C extension transliterating
:func:`repro.sim.vectorized.run_flat_replay`; see ``_kernel.c`` for the
bit-identity argument).  The backend therefore
inherits the vectorized backend's entire contract surface: the same
``decline_reason`` (only non-preemptive key modes with infinite buffers run
here, under any header initializer) and the same equivalence and golden-rows
gates — only :meth:`VectorizedBackend._kernel` is swapped, and fault plans are
declined (``FAULT_KINDS = None``: the C loop calls no Python drop filter),
which hands them to the ``"vectorized"`` loop.

Availability is a *toolchain* question: the kernel ships as source and
:mod:`repro.sim.compiled` builds it on first use, so only an environment that
cannot compile it (no C compiler, no Python headers) lacks it.
:meth:`CompiledBackend.unavailable_reason` is the loader's precise reason
(why the build failed, compiler output included); naming the engine then
fails with it (``PipelineConfigError``, CLI exit 2) and unselected replays
simply skip it (:func:`repro.sim.backend.replay_candidates`).
"""

from __future__ import annotations

from typing import Optional

from repro.core.replay_vectorized import VectorizedBackend
from repro.sim.compiled import kernel_build_info, kernel_run_flat_replay, unavailable_reason


class CompiledBackend(VectorizedBackend):
    """The vectorized backend's orchestration driving the native kernel."""

    name = "compiled"
    replay_note = (
        "flat kernel (lstf/edf/priority/omniscient/fifo, infinite buffers, no faults); "
        "native C event loop (built on first use; needs a C compiler)"
    )

    #: Drop filters are Python closures over per-port ``RandomState``s; the C
    #: loop takes no fault plan, so fault-bearing replays go to ``vectorized``.
    FAULT_KINDS = None

    def unavailable_reason(self) -> Optional[str]:
        """Why the kernel does not load here (asking may build it)."""
        return unavailable_reason()

    def build_info(self) -> Optional[dict]:
        """Kernel build metadata (``list --backends``)."""
        return kernel_build_info()

    def _kernel(self, *args, **kwargs):
        return kernel_run_flat_replay()(*args, **kwargs)
