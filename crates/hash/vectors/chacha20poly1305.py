#!/usr/bin/env python3
"""Independent ChaCha20-Poly1305 and Poly1305 vectors for rlwe-hash.

Prints the values pinned in `src/aead.rs` and `src/poly1305.rs` tests,
and the sealed-frame digests pinned in rlwe-engine's
`src/session.rs`, computed with the Python `cryptography` package
(tested with 48.0).

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


def kdf2(secret, info, n):
    # ISO 18033-2 KDF2 over SHA-256, as `rlwe_hash::kdf2`.
    out = b""
    counter = 1
    while len(out) < n:
        out += hashlib.sha256(secret + counter.to_bytes(4, "big") + info).digest()
        counter += 1
    return out[:n]


def fixed_sender_frame(payload, seq):
    # rlwe-engine's `fixed_sender(seq).seal(payload)`: the i2r key from
    # ss = 0x11 * 32 and sid = 0x5A * 16, the header
    # magic 0xF6 || seq (u64 BE) || len (u32 BE) as the AAD, then
    # ciphertext and tag.
    enc = kdf2(b"\x11" * 32, b"rlwe-engine/i2r" + b"\x5a" * 16, 64)[:32]
    header = b"\xf6" + seq.to_bytes(8, "big") + len(payload).to_bytes(4, "big")
    return header + ChaCha20Poly1305(enc).encrypt(frame_nonce(seq), payload, header)


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

    print("# Session frames: sha256(fixed_sender(3).seal(pattern(len, 1, 0)))")
    for n in [100, 16384]:
        frame = fixed_sender_frame(pattern(n, 1, 0), 3)
        print(f"# {n} B frame: {hashlib.sha256(frame).hexdigest()}")


if __name__ == "__main__":
    main()
