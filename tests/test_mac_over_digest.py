"""Differential tests for the MAC-over-digest authenticator scheme.

The tentpole optimization changed authenticators to MAC the cached
32-byte message digest instead of the full body.  These tests pin the
security-relevant behaviour: the digest scheme accepts and rejects in
exactly the cases the body-MAC scheme did (honest, forged, wrong
receiver, tampered body), and creating an authenticator for a max-size
batch hashes the body exactly once regardless of receiver count.
"""

import hmac as hmac_stdlib

from hypothesis import given, strategies as st

from repro.bft.messages import PrePrepare, Request
from repro.crypto.mac import MAC_SIZE, Authenticator, compute_mac, verify_mac
from repro.crypto.keys import KeyRegistry

RECEIVERS = ["r0", "r1", "r2"]


def _body_mac_create(reg, sender, receivers, body):
    """The pre-change scheme: one MAC over the full body per receiver."""
    return {r: compute_mac(reg.session_key(sender, r), body)
            for r in receivers}


def _body_mac_verify(reg, sender, receiver, body, tags):
    tag = tags.get(receiver)
    if tag is None:
        return False
    expected = compute_mac(reg.session_key(sender, receiver), body)
    return hmac_stdlib.compare_digest(expected, tag)


@given(op=st.binary(max_size=256), request_id=st.integers(1, 10_000))
def test_digest_mac_decisions_match_body_mac(op, request_id):
    reg = KeyRegistry()
    req = Request("c1", request_id, op)
    body, dgst = req.body(), req.digest()
    digest_auth = Authenticator.create(reg, "c1", RECEIVERS, dgst)
    body_tags = _body_mac_create(reg, "c1", RECEIVERS, body)

    # Honest: every intended receiver accepts under both schemes.
    for r in RECEIVERS:
        assert digest_auth.verify(reg, r, dgst) is True
        assert _body_mac_verify(reg, "c1", r, body, body_tags) is True

    # Wrong receiver: no tag for it, both schemes reject.
    assert digest_auth.verify(reg, "intruder", dgst) is False
    assert _body_mac_verify(reg, "c1", "intruder", body, body_tags) is False

    # Tampered body: the receiver recomputes over what it received.
    tampered = Request("c1", request_id, op + b"!")
    assert digest_auth.verify(reg, "r0", tampered.digest()) is False
    assert _body_mac_verify(reg, "c1", "r0", tampered.body(),
                            body_tags) is False

    # Forged tags (Byzantine sender without the session keys).
    forged = Authenticator.forged("c1", RECEIVERS)
    forged_body_tags = dict(forged.tags)
    for r in RECEIVERS:
        assert forged.verify(reg, r, dgst) is False
        assert _body_mac_verify(reg, "c1", r, body, forged_body_tags) is False


def test_wrong_sender_keys_rejected_under_both_schemes():
    reg = KeyRegistry()
    req = Request("c1", 1, b"op")
    imposter = Authenticator.create(reg, "c2", RECEIVERS, req.digest())
    imposter_body = _body_mac_create(reg, "c2", RECEIVERS, req.body())
    # Receivers verify against c1's session keys; c2's tags must fail.
    for r in RECEIVERS:
        assert Authenticator(
            "c1", imposter.tags).verify(reg, r, req.digest()) is False
        assert _body_mac_verify(reg, "c1", r, req.body(),
                                imposter_body) is False


def test_batch_authenticator_hashes_body_exactly_once(monkeypatch):
    """Authenticator cost must be independent of batch size and receiver
    count: one body hash (cached on the message), then fixed-size MACs."""
    import repro.bft.messages as messages

    reg = KeyRegistry()
    requests = tuple(Request(f"c{i}", i + 1, b"payload" * 64)
                     for i in range(8))  # a full batch (batch_max=8)
    for r in requests:
        r.digest()  # pre-warm request digests: only the batch hash counts

    pre_prepare = PrePrepare(view=0, seq=1, requests=requests, nondet=b"nd")
    calls = []
    real = messages.sha_digest

    def counting_digest(data):
        calls.append(len(data))
        return real(data)

    monkeypatch.setattr(messages, "sha_digest", counting_digest)
    digest = pre_prepare.digest()
    auth = Authenticator.create(reg, "p", [f"r{i}" for i in range(10)], digest)
    assert len(calls) == 1, f"expected one body hash, saw {len(calls)}"
    assert len(auth.tags) == 10
    for i in range(10):
        assert auth.verify(reg, f"r{i}", digest)
    assert len(calls) == 1  # verification MACs the digest, no rehash


def test_one_mac_primitive_and_its_contract():
    """``compute_mac``, ``Authenticator`` and the registry's keyed-state
    table are one primitive: same tag, ``MAC_SIZE`` bytes, and nothing
    but the right (sender, receiver, digest, key epoch) verifies."""
    reg = KeyRegistry()
    dgst = Request("c1", 1, b"op").digest()
    auth = Authenticator.create(reg, "c1", RECEIVERS, dgst)

    for r in RECEIVERS:
        tag = auth.tags[r]
        assert len(tag) == MAC_SIZE
        assert tag == compute_mac(reg.session_key("c1", r), dgst)
        assert verify_mac(reg.session_key("c1", r), dgst, tag)
        assert auth.verify(reg, r, dgst)
    assert auth.wire_size() == MAC_SIZE * len(RECEIVERS)

    # Wrong sender: c1's tags presented as c2's.
    assert not Authenticator("c2", auth.tags).verify(reg, "r0", dgst)
    # Wrong receiver: r0's tag handed to r1, and a non-receiver.
    assert not Authenticator("c1", {"r1": auth.tags["r0"]}).verify(
        reg, "r1", dgst)
    assert not auth.verify(reg, "r9", dgst)
    # One flipped digest bit.
    flipped = bytes([dgst[0] ^ 1]) + dgst[1:]
    assert not auth.verify(reg, "r0", flipped)
    # Forged tags.
    assert not Authenticator.forged("c1", RECEIVERS).verify(reg, "r0", dgst)

    # A tag minted before the receiver refreshed its session keys: the
    # keyed state is evicted with the key, for that receiver only.
    reg.refresh_session_keys("r0")
    assert not auth.verify(reg, "r0", dgst)
    assert auth.verify(reg, "r1", dgst)
    fresh = Authenticator.create(reg, "c1", ["r0"], dgst)
    assert fresh.tags["r0"] != auth.tags["r0"]
    assert fresh.verify(reg, "r0", dgst)
    assert fresh.tags["r0"] == compute_mac(reg.session_key("c1", "r0"), dgst)
