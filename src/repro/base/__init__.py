"""BASE: BFT with Abstract Specification Encapsulation.

The BASE library (paper §2.3) extends BFT so that replicas may run
*different or nondeterministic* service implementations:

- services plug in through the :class:`~repro.base.upcalls.Upcalls`
  interface of Figure 1 — ``execute``, the abstraction function
  ``get_obj``, its inverse ``put_objs``, ``shutdown``/``restart`` for
  proactive recovery, and ``propose_value``/``check_value`` for agreeing
  on nondeterministic choices;
- the :class:`~repro.base.state.AbstractStateManager` implements
  incremental checkpointing with copy-on-write over the abstract-state
  array (the ``modify`` library call) and hierarchical state transfer at
  abstract-object granularity.

Use :func:`~repro.base.library.build_base_cluster` to stand up a
replicated service from a list of per-replica wrapper factories — passing
*different* factories is the paper's opportunistic N-version programming.
"""
