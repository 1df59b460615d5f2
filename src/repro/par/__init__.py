"""repro.par — multiprocess execution engine (escaping the GIL).

The package turns a :class:`~repro.smr.replica.ParallelReplica` into a
true multi-core executor without touching the scheduler or the COS: the
replica's worker threads become dispatchers that hand ready commands to
shard worker *processes* over queues and block — GIL released — while the
shards compute in parallel.  A deployment selects it with
``DeploymentSpec.engine = "mp"``.  See docs/parallel_execution.md.

Public surface:

- :class:`MpService` — the engine, a drop-in ``Service``;
- :class:`ShardRouter` — command → shard-set resolution;
- :func:`default_start_method` — the ``multiprocessing`` start method it
  uses (its timeouts are constants in :mod:`repro.par.config`).
"""

from repro.par.config import default_start_method
from repro.par.engine import MpService
from repro.par.shard import ShardRouter

__all__ = [
    "MpService",
    "ShardRouter",
    "default_start_method",
]
