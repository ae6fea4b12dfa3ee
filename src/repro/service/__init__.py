"""The unified service kernel.

Every replicated service in this repository is a *conformance wrapper*
(paper §3) around an off-the-shelf implementation plus a deployment that
puts four of those wrappers behind the BASE library.  This package
holds the parts every service shares, once:

- :mod:`repro.service.kernel` — :class:`AbstractService`, a base class
  over :class:`~repro.base.upcalls.Upcalls` with declarative ``@op``
  registration (dispatch table built at class-definition time), uniform
  read-only gating, canonical error envelopes, malformed-request
  handling, shared shutdown/restart persistence of the conformance
  representation, and the ``__prepare__``/``__commit__``/``__abort__``
  transaction meta-ops behind cross-shard atomic commit;
- :mod:`repro.service.deploy` — composable :class:`Deployment` objects
  (replicated, unreplicated) over a declarative
  :class:`ServiceDefinition`, which also names the build options the
  service's factories read; ``Deployment.build`` is the one way to
  stand up a registered service;
- :mod:`repro.service.sharding` — :class:`ShardedDeployment`: N
  independent BASE groups on one simulation fabric behind the
  deterministic :class:`ShardRouter` (see ``docs/SHARDING.md``);
- :mod:`repro.service.registry` — the :class:`ServiceRegistry` mapping
  service names to their :class:`~repro.service.deploy.ServiceDefinition`;
- :mod:`repro.service.conformance` — the cross-service conformance
  battery run by ``tests/test_service_conformance.py`` against every
  registered service.

Adding a backend is a wrapper subclass plus one registration; see
``docs/SERVICES.md``.
"""

from repro.service.kernel import AbstractService, OpSpec, op
from repro.service.deploy import (
    BROADCAST,
    Broadcast,
    Channel,
    Deployment,
    DirectChannel,
    DirectService,
    DirectServiceServer,
    LearnedKey,
    REQUIRED,
    ReplicatedChannel,
    ReplicatedDeployment,
    ServiceDefinition,
    ShardKeySpec,
    UnreplicatedDeployment,
    WrapperContext,
)
from repro.service.sharding import (
    CrossShardOp,
    RoutingError,
    ShardRouter,
    ShardedDeployment,
    TxnAborted,
    stable_shard,
)
from repro.service.registry import (
    ServiceRegistry,
    get_service,
    load_all,
    register,
    service_names,
)

__all__ = [
    "AbstractService",
    "BROADCAST",
    "Broadcast",
    "Channel",
    "CrossShardOp",
    "Deployment",
    "DirectChannel",
    "DirectService",
    "DirectServiceServer",
    "LearnedKey",
    "OpSpec",
    "REQUIRED",
    "ReplicatedChannel",
    "ReplicatedDeployment",
    "RoutingError",
    "ServiceDefinition",
    "ServiceRegistry",
    "ShardKeySpec",
    "ShardRouter",
    "ShardedDeployment",
    "TxnAborted",
    "UnreplicatedDeployment",
    "WrapperContext",
    "get_service",
    "load_all",
    "op",
    "register",
    "service_names",
    "stable_shard",
]
