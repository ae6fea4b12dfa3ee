"""BASE-SQL: a replicated relational service (paper §6, future work).

The paper's conclusion: "it would be interesting to apply the BASE
technique to a relational database service by taking advantage of the
ODBC standard."  This package does exactly that, in miniature:

- two off-the-shelf "database engines" with the same ODBC-ish interface
  but different concrete behaviour — a hash store (insertion-ordered
  scans, sequential row ids) and a b-tree store (key-ordered scans,
  hashed row ids);
- a common abstract specification (scans are primary-key ordered; rows
  are identified by (table, pk); errors are virtualized) and a
  conformance wrapper built on the reusable
  :mod:`repro.base.mappings` library;
- the service definition (:data:`SQL_SERVICE`) that
  :mod:`repro.service.deploy` builds the replicated deployment and the
  unreplicated baseline from.
"""
