from repro.bft.messages import Tagged
from repro.crypto.digest import digest


def fingerprint(obj):
    return digest(bytes([hash(obj) % 251]))


def tag_message(obj):
    # Bad input for the deep taint pass; RPL-IDKEY fires here too.
    return Tagged((id(obj),))
