#!/usr/bin/env python
"""BASE-HTTP: replicating web servers with incompatible ETag schemes.

The paper lists HTTP daemons among the services with enough independent
implementations for opportunistic N-version programming (§1).  Here two
vendors disagree exactly the way real ones do: Apache derives ETags from
inode numbers (different on every replica, changed by every restart);
nginx-style weak ETags hash the content.  Naive replication would never
get matching replies; the conformance wrapper virtualizes ETags into
agreed version counters, so conditional requests (If-Match /
If-None-Match) behave identically everywhere.

Run:  python examples/replicated_web.py
"""

from repro.bft.config import BftConfig
from repro.http.service import HTTP_SERVICE, HttpClient
from repro.http.engine import (ApacheLikeServer, HttpError, HttpStatus,
                               NginxLikeServer)
from repro.service.deploy import ReplicatedDeployment


def main():
    group = ReplicatedDeployment.build(
        HTTP_SERVICE, [ApacheLikeServer, NginxLikeServer,
                       ApacheLikeServer, NginxLikeServer],
        config=BftConfig(n=4, checkpoint_interval=8, reboot_delay=0.3))
    cluster, web = group.cluster, group.client
    print("replicas run:", ", ".join(
        type(r.state.upcalls.server).vendor for r in cluster.replicas))

    print("\npublishing content...")
    web.mkcol("/blog")
    etag = web.put("/blog/hello", b"<p>first post</p>")
    print(f"  PUT /blog/hello -> abstract ETag {etag}")

    print("\nthe vendors' native ETags for that same resource differ:")
    for r in cluster.replicas[:2]:
        server = r.state.upcalls.server
        native = server.get("/blog/hello")[1]
        print(f"  {server.vendor:10s} native ETag: {native}")

    print("\noptimistic concurrency with If-Match on abstract ETags:")
    etag2 = web.put("/blog/hello", b"<p>edited</p>", if_match=etag)
    print(f"  conditional PUT with {etag} -> new ETag {etag2}")
    try:
        web.put("/blog/hello", b"<p>lost update</p>", if_match=etag)
    except HttpError as err:
        print(f"  stale If-Match {etag} -> {int(err.status)} "
              f"{err.status.name} (lost update prevented)")

    cached_etag, _ = web.get("/blog/hello")
    not_modified = web.get("/blog/hello", if_none_match=cached_etag)
    print(f"  GET If-None-Match {cached_etag} -> 304 (cache hit) "
          f"{'OK' if not_modified[1] is None else 'BUG'}")

    print("\nrecovering an Apache replica (its inode ETags churn on "
          "restart — the abstract ones do not)...")
    victim = cluster.replicas[2]
    victim.recovery.start_recovery()
    cluster.run(20.0)
    assert not victim.recovery.recovering
    etag_after, body = web.get("/blog/hello")
    print(f"  after recovery: GET -> {etag_after} {body!r}")
    assert etag_after == etag2

    # Cross a checkpoint boundary so every replica's tree reflects the
    # same stable state before comparing roots.
    for i in range(8):
        web.put(f"/blog/extra{i}", b"x")
    cluster.run(2.0)
    roots = {r.state.tree.root_digest for r in cluster.replicas}
    assert len(roots) == 1, "abstract states diverged!"
    print("\nall four replicas byte-identical; demo OK")


if __name__ == "__main__":
    main()
