"""BASE-Thor: a replicated object-oriented database (paper §3.2).

Thor provides a persistent object store with atomic transactions: servers
keep objects in pages on disk, clients run transactions on cached copies
and commit with optimistic concurrency control.  The server is
deliberately *nondeterministic* in its concrete behaviour — page-cache
contents, modified-object-buffer occupancy, and flush timing differ per
replica — which is exactly what the BASE abstract specification hides:

- **database pages** — page value with pending MOB modifications applied;
- **validation queue** — committed transactions' timestamps + read/write
  object sets, entries allocated at the lowest free index (not
  timestamp-sorted: the paper explains sorted entries would churn the
  incremental checkpoint encoding);
- **invalid sets** — per-active-client stale-object lists;
- **cached-pages directory** — which (abstract) clients cache each page.
"""
