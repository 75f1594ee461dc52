#!/usr/bin/env python3
"""Independent ChaCha20-Poly1305 and Poly1305 vectors for rlwe-hash.

Prints the values pinned in `src/aead.rs` and `src/poly1305.rs` tests,
computed with the Python `cryptography` package (tested with 48.0).

    python3 crates/hash/vectors/chacha20poly1305.py

Runs offline. Inputs are fixed byte patterns, so the output never
changes: a difference against the pinned Rust values is a bug on one
side.
"""

import hashlib

from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
from cryptography.hazmat.primitives.poly1305 import Poly1305

LENGTHS = [0, 1, 15, 16, 17, 63, 64, 65, 511, 512, 513, 16384, 16401]


def pattern(n, mul, add):
    return bytes((i * mul + add) & 0xFF for i in range(n))


def frame_nonce(seq):
    # The session frames' nonce: 0x00000000 || seq as a big-endian u64.
    return b"\x00" * 4 + seq.to_bytes(8, "big")


def main():
    key = pattern(32, 7, 0x80)
    aad = pattern(13, 3, 0xF6)
    seq = 0x0102030405060708
    aead = ChaCha20Poly1305(key)
    print("# AEAD: key = pattern(32, 7, 0x80), aad = pattern(13, 3, 0xF6),")
    print("# seq = 0x0102030405060708, plaintext = pattern(len, 31, 7)")
    print("# len, sha256(ciphertext), tag")
    for n in LENGTHS:
        out = aead.encrypt(frame_nonce(seq), pattern(n, 31, 7), aad)
        ct, tag = out[:-16], out[-16:]
        print(f"({n}, \"{hashlib.sha256(ct).hexdigest()}\", \"{tag.hex()}\"),")

    pkey = pattern(32, 13, 0x21)
    print("# Poly1305: key = pattern(32, 13, 0x21), message = pattern(len, 31, 7)")
    for n in LENGTHS:
        tag = Poly1305.generate_tag(pkey, pattern(n, 31, 7))
        print(f"({n}, \"{tag.hex()}\"),")

    print("# Poly1305 edge cases")
    max_r = b"\xff" * 32  # clamps to the largest r, s = 2^128 - 1
    for name, k, m in [
        ("max r, all-0xFF, 1 block", max_r, b"\xff" * 16),
        ("max r, all-0xFF, 4 blocks", max_r, b"\xff" * 64),
        ("max r, all-0xFF, 64 blocks + 7", max_r, b"\xff" * 1031),
    ]:
        tag = Poly1305.generate_tag(k, m)
        print(f"# {name}: {tag.hex()}")


if __name__ == "__main__":
    main()
