"""Canonical binary encoding (XDR subset, RFC-1014 style).

Used for two purposes, mirroring the paper:

- the NFS abstract state encodes each abstract object with XDR, so that
  all replicas produce byte-identical encodings to digest and transfer;
- BFT protocol messages are encoded canonically before MACs/digests are
  computed over them.
"""
