"""Constants of the multiprocess execution engine.

Module-level, not a config object: no deployment passes its own, and a
test that needs a shorter wait monkeypatches the constant.
"""

from __future__ import annotations

import multiprocessing

__all__ = ["DISPATCH_TIMEOUT", "READY_TIMEOUT", "STOP_TIMEOUT",
           "default_start_method"]

#: Seconds a dispatcher thread waits for a shard worker's response before
#: declaring the shard crashed.
DISPATCH_TIMEOUT = 30.0
#: Seconds to wait for every worker's readiness ping at startup.
READY_TIMEOUT = 15.0
#: Seconds to wait for workers to drain and exit on shutdown before they
#: are terminated.
STOP_TIMEOUT = 5.0


def default_start_method() -> str:
    """``fork`` where available (fast, no re-import), else ``spawn``.

    The engine forks before any dispatcher thread touches its queues, so
    the classic fork-with-threads hazards do not apply to engine state.
    """
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"
