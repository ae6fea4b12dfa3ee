"""BFT: practical Byzantine fault tolerance (Castro & Liskov).

A faithful reimplementation of the BFT state-machine-replication library
that BASE extends: three-phase atomic multicast (pre-prepare / prepare /
commit) with MAC authenticators, request batching, the read-only
optimization, incremental checkpointing with garbage collection, view
changes, hierarchical state transfer, and proactive recovery.

The replica delegates all service-state concerns to a
:class:`~repro.bft.statemachine.StateManager`; the BASE layer
(:mod:`repro.base`) provides the abstraction-aware implementation.
"""
