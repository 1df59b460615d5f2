"""Application services for the replicated state machine.

Also hosts the process-deployment service registry: worker processes (both
``repro.net`` replicas and ``repro.par`` shard workers) reconstruct their
service from a name + kwargs spec, because live service instances do not
cross process boundaries.
"""

import sys
from typing import Any, Dict, Tuple

from repro._lazy import exports
from repro.errors import ConfigurationError
from repro.smr.service import Service

#: Resolved on first use (PEP 562): a replica loads only its own service.
__getattr__, __all__ = exports(__name__, {
    ".bank": ("BankService",), ".kvstore": ("KVStoreService",),
    ".linked_list": ("LinkedListService",)})
__all__ = [*__all__, "SERVICES", "build_service"]

#: name -> (class, default kwargs) of each deployable service; the class
#: resolves through the lazy exports above.
_SERVICE_FACTORIES: Dict[str, Tuple[str, Dict[str, Any]]] = {
    # The linked list pre-populates a small working set so reads have
    # something to scan (the historical `repro.net` default).
    "linked-list": ("LinkedListService", {"initial_size": 50}),
    # Per-key conflict relation: the variant partitioned ordering
    # (repro.groups) deploys, since its conflict classes can be split
    # across consensus groups (docs/partitioning.md).
    "linked-list-keyed": ("LinkedListService",
                          {"initial_size": 50, "keyed_conflicts": True}),
    "kv": ("KVStoreService", {}),
    "bank": ("BankService", {}),
}

#: Deployable service names (``repro.net`` configs, ``repro.par`` specs).
SERVICES: Tuple[str, ...] = tuple(_SERVICE_FACTORIES)


def build_service(name: str, **kwargs: Any) -> Service:
    """Construct a registered service by name, overriding its defaults;
    imports only that service's module."""
    try:
        cls, defaults = _SERVICE_FACTORIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown service {name!r}; choose from "
            f"{sorted(_SERVICE_FACTORIES)}") from None
    return getattr(sys.modules[__name__], cls)(**{**defaults, **kwargs})
