"""The ``"compiled"`` replay backend: the flat kernel as native code.

Same orchestration as the ``"vectorized"`` backend — numpy batch precompute
of every per-hop float (exact ``bytes * 8 / bw`` forms) from the schedule's
columns, output arrays wrapped as the replayed schedule's columns — but the
inner event loop runs in the compiled kernel extension
(:mod:`repro.sim._kernel`, a hand-written CPython C extension transliterating
:func:`repro.sim.vectorized.run_flat_replay`; see ``_kernel.c`` for the
bit-identity argument).  The backend therefore
inherits the vectorized backend's entire contract surface: the same
``supports_replay`` fast path (non-preemptive key modes, infinite buffers),
the same decline behaviour, and the same equivalence and golden-rows gates
— only :meth:`VectorizedBackend._kernel` is swapped.

Availability is a *toolchain* question: the kernel ships as source and
:mod:`repro.sim.compiled` builds it on first use, so only an environment that
cannot compile it (no C compiler, no Python headers) lacks it.
:meth:`CompiledBackend.check_available` reports the precise reason
(why the build failed, compiler output included) via
``PipelineConfigError`` — CLI exit 2 — when the backend is selected by
name; unselected replays simply skip it (``replay_candidates``).
"""

from __future__ import annotations

from typing import Optional

from repro.core.replay_vectorized import VectorizedBackend, _config_error
from repro.core.slack import ReplayInitializer
from repro.sim.backend import register_backend
from repro.sim.compiled import (
    kernel_available,
    kernel_build_info,
    kernel_run_flat_replay,
    unavailable_reason,
)
from repro.topology.base import Topology


class CompiledBackend(VectorizedBackend):
    """The vectorized backend's orchestration driving the native kernel."""

    name = "compiled"
    replay_note = (
        "replay fast path (lstf/edf/priority/omniscient, infinite buffers); "
        "native C event loop (built on first use; needs a C compiler)"
    )

    def check_available(self) -> None:
        """A kernel that cannot be built declines, with the reason."""
        if not kernel_available():
            raise _config_error(f"backend 'compiled' is unavailable: {unavailable_reason()}")

    def supports_replay(
        self,
        mode: str,
        default_buffer_bytes: Optional[float] = None,
        initializer: Optional[ReplayInitializer] = None,
        topology: Optional[Topology] = None,
        faults=None,
    ) -> bool:
        """The vectorized fast path, gated additionally on the kernel loading."""
        return kernel_available() and super().supports_replay(
            mode,
            default_buffer_bytes=default_buffer_bytes,
            initializer=initializer,
            topology=topology,
            faults=faults,
        )

    def build_info(self) -> Optional[dict]:
        """Kernel build metadata (``list --backends``)."""
        return kernel_build_info()

    def _kernel(self, *args, **kwargs):
        return kernel_run_flat_replay()(*args, **kwargs)


register_backend("compiled", CompiledBackend)
