"""BASE-HTTP: replicating web servers with divergent ETag schemes."""

import pytest

from repro.base.state import AbstractStateManager
from repro.bft.config import BftConfig
from repro.encoding.canonical import canonical, decanonical
from repro.http.engine import (
    ApacheLikeServer,
    HttpError,
    HttpStatus,
    NginxLikeServer,
)
from repro.http.service import HTTP_SERVICE
from repro.http.wrapper import HttpConformanceWrapper
from repro.service.deploy import ReplicatedDeployment, UnreplicatedDeployment


# -- engines --------------------------------------------------------------------

@pytest.fixture(params=[ApacheLikeServer, NginxLikeServer],
                ids=lambda c: c.vendor)
def server(request):
    return request.param()


def test_engine_put_get_roundtrip(server):
    created, etag = server.put("/page.html", b"<html>hi</html>")
    assert created and etag
    body, etag2 = server.get("/page.html")
    assert body == b"<html>hi</html>"
    assert etag2 == etag


def test_engine_collections(server):
    server.mkcol("/docs")
    server.put("/docs/a.txt", b"a")
    members = server.propfind("/docs")
    assert ("a.txt", False) in members
    with pytest.raises(HttpError) as err:
        server.put("/nope/deep.txt", b"x")
    assert err.value.status == HttpStatus.CONFLICT


def test_engine_delete(server):
    server.put("/gone", b"x")
    server.delete("/gone")
    with pytest.raises(HttpError) as err:
        server.get("/gone")
    assert err.value.status == HttpStatus.NOT_FOUND


def test_etag_schemes_differ_across_vendors():
    """The concrete divergence the wrapper must mask."""
    apache1 = ApacheLikeServer(boot_salt=1)
    apache2 = ApacheLikeServer(boot_salt=2)
    nginx = NginxLikeServer()
    for srv in (apache1, apache2, nginx):
        srv.put("/same", b"identical content")
    tag_a1 = apache1.get("/same")[1]
    tag_a2 = apache2.get("/same")[1]
    tag_n = nginx.get("/same")[1]
    assert tag_a1 != tag_a2          # apache: instance-dependent
    assert tag_n.startswith('W/"')   # nginx: different format entirely
    assert tag_a1 != tag_n


def test_listing_orders_differ():
    apache, nginx = ApacheLikeServer(), NginxLikeServer()
    for srv in (apache, nginx):
        srv.mkcol("/d")
        for name in ("zz", "aa", "mm"):
            srv.put(f"/d/{name}", b"x")
    assert [n for n, _ in apache.propfind("/d")] == ["zz", "aa", "mm"]
    assert [n for n, _ in nginx.propfind("/d")] == ["aa", "mm", "zz"]


# -- wrapper ---------------------------------------------------------------------

def make_wrapped(cls, **kwargs):
    wrapper = HttpConformanceWrapper(cls(**kwargs), array_size=64)
    AbstractStateManager(wrapper, branching=8)

    def op(*parts, read_only=False):
        return decanonical(wrapper.execute(canonical(parts), "c", b"",
                                           read_only=read_only))
    return wrapper, op


def workload(op):
    assert op("MKCOL", "/site")[0] == 201
    assert op("PUT", "/site/index.html", b"<h1>home</h1>", "")[0] == 201
    assert op("PUT", "/site/index.html", b"<h1>v2</h1>", "")[0] == 204
    assert op("PUT", "/site/about.html", b"about", "")[0] == 201
    assert op("DELETE", "/site/about.html")[0] == 204
    assert op("PUT", "/robots.txt", b"User-agent: *", "")[0] == 201


def test_abstract_state_identical_across_vendors():
    states = {}
    for cls, kwargs in ((ApacheLikeServer, {"boot_salt": 3}),
                        (NginxLikeServer, {})):
        wrapper, op = make_wrapped(cls, **kwargs)
        workload(op)
        states[cls.vendor] = [wrapper.get_obj(i) for i in range(64)]
    assert states["apachelike"] == states["nginxlike"]


def test_abstract_etags_are_versions_not_vendor_tags():
    wrapper, op = make_wrapped(ApacheLikeServer)
    workload(op)
    status, etag, body = op("GET", "/site/index.html", "", read_only=True)
    assert status == 200
    assert etag == '"v2"'   # two PUTs
    assert body == b"<h1>v2</h1>"


def test_conditional_put_against_abstract_etag():
    wrapper, op = make_wrapped(NginxLikeServer)
    op("PUT", "/doc", b"one", "")
    status, etag = op("PUT", "/doc", b"two", '"v1"')[:2]
    assert status == 204 and etag == '"v2"'
    assert op("PUT", "/doc", b"three", '"v1"')[0] == 412  # stale tag
    assert op("PUT", "/doc", b"three", '"v2"')[0] == 204


def test_conditional_get_not_modified():
    wrapper, op = make_wrapped(ApacheLikeServer)
    op("PUT", "/page", b"cached", "")
    status, etag, _ = op("GET", "/page", "", read_only=True)
    assert op("GET", "/page", etag, read_only=True)[0] == 304


@pytest.mark.parametrize("cls", [ApacheLikeServer, NginxLikeServer],
                         ids=lambda c: c.vendor)
def test_delete_of_a_collection_drops_its_members(cls):
    """Both servers drop a collection's whole subtree, as WebDAV's
    Depth-infinity DELETE does; so does the abstract state: no member
    keeps a version or a slot whose object the server can no longer
    produce, and a re-created member starts over at version 1."""
    wrapper, op = make_wrapped(cls)
    assert op("MKCOL", "/a")[0] == 201
    assert op("MKCOL", "/a/sub")[0] == 201
    assert op("PUT", "/a/b", b"one", "")[0] == 201
    assert op("PUT", "/a/sub/c", b"two", "")[0] == 201
    assert op("PUT", "/ab", b"kept", "")[0] == 201
    assert op("DELETE", "/a")[0] == 204
    assert sorted(wrapper.versions) == ["/ab"]
    catalog = decanonical(wrapper.get_obj(wrapper.CATALOG_INDEX))
    assert catalog == ("catalog", (("/ab", False),))
    for index in range(1, 64):
        wrapper.get_obj(index)   # every slot is producible
    assert op("GET", "/a/b", "", read_only=True) == (404,)
    assert op("MKCOL", "/a")[0] == 201
    assert op("PUT", "/a/b", b"again", "")[:2] == (201, '"v1"')


def test_propfind_sorted_regardless_of_vendor():
    wrapper, op = make_wrapped(ApacheLikeServer)
    op("MKCOL", "/c")
    for name in ("zz", "aa"):
        op("PUT", f"/c/{name}", b"x", "")
    assert [n for n, _ in op("PROPFIND", "/c", read_only=True)[1]] == \
        ["aa", "zz"]


def test_put_objs_roundtrip_across_vendors():
    src, src_op = make_wrapped(ApacheLikeServer, boot_salt=9)
    workload(src_op)
    state = {i: src.get_obj(i) for i in range(64)}
    dst, dst_op = make_wrapped(NginxLikeServer)
    dst.put_objs(state)
    assert [dst.get_obj(i) for i in range(64)] == \
        [state[i] for i in range(64)]
    assert dst_op("GET", "/site/index.html", "", read_only=True)[2] == \
        b"<h1>v2</h1>"


def test_wrapper_shutdown_restart():
    wrapper, op = make_wrapped(NginxLikeServer)
    workload(op)
    before = [wrapper.get_obj(i) for i in range(64)]
    wrapper.shutdown()
    wrapper.restart()
    assert [wrapper.get_obj(i) for i in range(64)] == before


# -- replication -------------------------------------------------------------------


def replicated_http(**bft):
    group = ReplicatedDeployment.build(
        HTTP_SERVICE, [ApacheLikeServer, NginxLikeServer] * 2,
        config=BftConfig(n=4, checkpoint_interval=8, **bft))
    return group.cluster, group.client


def test_nversion_http_cluster():
    cluster, web = replicated_http()
    web.mkcol("/blog")
    etag = web.put("/blog/post1", b"hello world")
    assert etag == '"v1"'
    etag2 = web.put("/blog/post1", b"hello again", if_match=etag)
    assert etag2 == '"v2"'
    with pytest.raises(HttpError) as err:
        web.put("/blog/post1", b"lost update", if_match=etag)
    assert err.value.status == HttpStatus.PRECONDITION_FAILED
    returned_etag, body = web.get("/blog/post1")
    assert (returned_etag, body) == ('"v2"', b"hello again")
    assert web.propfind("/blog") == [("post1", False)]
    cluster.run(2.0)
    roots = {r.state.tree.root_digest for r in cluster.replicas}
    assert len(roots) == 1


def test_replicated_matches_unreplicated():
    cluster, replicated = replicated_http()
    direct = UnreplicatedDeployment.build(HTTP_SERVICE,
                                          NginxLikeServer).client
    for web in (replicated, direct):
        web.mkcol("/a")
        web.put("/a/x", b"1")
        web.put("/a/y", b"2")
        web.delete("/a/x")
    assert replicated.propfind("/a") == direct.propfind("/a")
    assert replicated.get("/a/y") == direct.get("/a/y")


def test_http_recovery():
    cluster, web = replicated_http(reboot_delay=0.3)
    web.mkcol("/data")
    for i in range(10):
        web.put(f"/data/item{i}", b"payload %d" % i)
    cluster.run(1.0)
    victim = cluster.replicas[0]  # apache-like: volatile inode etags
    victim.recovery.start_recovery()
    cluster.run(20.0)
    assert not victim.recovery.recovering
    web.put("/data/post-recovery", b"ok")
    cluster.run(2.0)
    roots = {r.state.tree.root_digest for r in cluster.replicas}
    assert len(roots) == 1
