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
  stand up a service;
- :mod:`repro.service.sharding` — :class:`ShardedDeployment`: N
  independent BASE groups on one simulation fabric behind the
  deterministic :class:`ShardRouter` (see ``docs/SHARDING.md``);
- :mod:`repro.service.registry` — ``get_service(name)`` and
  ``service_names()``, answered from one tuple of the four
  :class:`~repro.service.deploy.ServiceDefinition` values;
- :mod:`repro.service.conformance` — the cross-service conformance
  battery run by ``tests/test_service_conformance.py`` against every
  service.

Adding a backend is a wrapper subclass; adding a service is a
``service.py`` that binds a ``ServiceDefinition``, plus its entry in
that tuple.  See ``docs/SERVICES.md``.
"""
