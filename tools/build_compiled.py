"""Build the compiled replay kernel now, loudly.

Replays build the kernel on first use (:mod:`repro.sim.compiled`) and decline
quietly when that fails, remembering the failure in a marker beside the cache.
This tool is the loud twin of that step: it runs the same build past any
cached file or failure marker, prints what it built, and exits 1 with the
reason (compiler output included) on stderr when the build fails — use it in
CI, or to retry after installing a compiler.
"""

from __future__ import annotations

import logging
import os
import sys

#: The in-tree package, whether or not the checkout is installed.
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main() -> int:
    sys.path.insert(0, SRC)
    from repro.sim.compiled import build_kernel, kernel_build_info

    logging.basicConfig(level=logging.INFO, format="build_compiled: %(message)s")
    reason = build_kernel()
    if reason is not None:
        print(f"build_compiled: FAILED: {reason}", file=sys.stderr)
        return 1
    print("compiled kernel OK:", kernel_build_info())
    return 0


if __name__ == "__main__":
    sys.exit(main())
