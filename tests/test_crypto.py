"""Tests for digests, MAC authenticators, key refresh, and signatures."""

from hypothesis import given, strategies as st

from repro.crypto.mac import Authenticator, compute_mac, verify_mac
from repro.crypto.digest import DIGEST_SIZE, digest, digest_many
from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import sign, verify_signature


def test_digest_size_and_determinism():
    d = digest(b"hello")
    assert len(d) == DIGEST_SIZE
    assert d == digest(b"hello")
    assert d != digest(b"hellp")


def test_digest_many_matches_concat():
    assert digest_many([b"ab", b"cd"]) == digest(b"abcd")


def test_mac_verify_accepts_and_rejects():
    key = b"k" * 32
    tag = compute_mac(key, b"data")
    assert verify_mac(key, b"data", tag)
    assert not verify_mac(key, b"datb", tag)
    assert not verify_mac(b"j" * 32, b"data", tag)


def test_session_keys_are_directional():
    reg = KeyRegistry()
    assert reg.session_key("a", "b") != reg.session_key("b", "a")


def test_authenticator_per_receiver():
    reg = KeyRegistry()
    auth = Authenticator.create(reg, "p", ["r1", "r2", "r3"], b"msg")
    assert auth.verify(reg, "r1", b"msg")
    assert auth.verify(reg, "r2", b"msg")
    assert not auth.verify(reg, "r1", b"other")
    assert not auth.verify(reg, "rX", b"msg")  # not a receiver


def test_forged_authenticator_rejected():
    reg = KeyRegistry()
    auth = Authenticator.forged("p", ["r1"])
    assert not auth.verify(reg, "r1", b"msg")


def test_key_refresh_invalidates_old_macs():
    """Proactive recovery: after refresh, MACs under old keys must fail."""
    reg = KeyRegistry()
    auth = Authenticator.create(reg, "attacker", ["victim"], b"replay")
    assert auth.verify(reg, "victim", b"replay")
    reg.refresh_session_keys("victim")
    assert not auth.verify(reg, "victim", b"replay")
    # Fresh authenticators work under the new epoch.
    auth2 = Authenticator.create(reg, "attacker", ["victim"], b"replay")
    assert auth2.verify(reg, "victim", b"replay")
    assert reg.epoch("victim") == 1


def test_refresh_only_affects_inbound_keys():
    reg = KeyRegistry()
    out = Authenticator.create(reg, "victim", ["other"], b"m")
    reg.refresh_session_keys("victim")
    assert out.verify(reg, "other", b"m")


def test_signatures_bind_signer_and_data():
    reg = KeyRegistry()
    sig = sign(reg, "replica0", b"view-change")
    assert verify_signature(reg, "replica0", b"view-change", sig)
    assert not verify_signature(reg, "replica1", b"view-change", sig)
    assert not verify_signature(reg, "replica0", b"other", sig)


def test_distinct_registries_are_independent():
    r1 = KeyRegistry(seed=b"one")
    r2 = KeyRegistry(seed=b"two")
    sig = sign(r1, "n", b"d")
    assert not verify_signature(r2, "n", b"d", sig)


@given(st.binary(max_size=200), st.binary(max_size=200))
def test_mac_distinguishes_messages(a, b):
    key = b"k" * 32
    if a != b:
        assert compute_mac(key, a) != compute_mac(key, b)


@given(st.binary(max_size=100))
def test_signature_roundtrip_property(data):
    reg = KeyRegistry()
    assert verify_signature(reg, "s", data, sign(reg, "s", data))


def test_authenticator_wire_size():
    reg = KeyRegistry()
    auth = Authenticator.create(reg, "p", ["a", "b", "c", "d"], b"m")
    assert auth.wire_size() == 4 * 16
