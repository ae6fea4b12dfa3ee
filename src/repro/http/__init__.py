"""BASE-HTTP: a replicated web/DAV store.

The paper's list of opportunistic-N-version candidates is "relational
databases, HTTP daemons, file systems, and operating systems" (§1).
This package covers the HTTP daemon case: two off-the-shelf web servers
with the same GET/PUT/DELETE/MKCOL/PROPFIND surface but different
concrete behaviour — crucially, *different ETag schemes* (one hashes
content, the other uses inode+change counters, which differ per replica
and across restarts: exactly the nondeterminism the NFS spec's file
handles exhibit).  The common abstract specification replaces ETags with
agreed version counters and pins PROPFIND ordering.
"""
