"""Hash functions used to place keys on the ZHT ring.

The paper (§III.E) explores Bob Jenkins' and FNV hash functions "due to
their relatively simple implementation, consistency across different data
types (especially strings), and the promise of efficient performance".
Both are implemented here from their published specifications, plus the
ring-placement helper that maps a key to a 64-bit ID-space index.

All functions accept ``bytes`` or ``str`` (encoded UTF-8) and are pure.
"""

from __future__ import annotations

from typing import Callable, Union

Key = Union[str, bytes]

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF

#: Size of the ZHT ID space: "The entire name space N (a 64-bit integer)".
ID_SPACE_BITS = 64
ID_SPACE = 1 << ID_SPACE_BITS


def _as_bytes(key: Key) -> bytes:
    if isinstance(key, str):
        return key.encode("utf-8")
    if isinstance(key, (bytes, bytearray, memoryview)):
        return bytes(key)
    raise TypeError(f"key must be str or bytes, got {type(key).__name__}")


# ---------------------------------------------------------------------------
# FNV-1a (Fowler–Noll–Vo), 32- and 64-bit variants.
# Reference: http://www.isthe.com/chongo/tech/comp/fnv/
# ---------------------------------------------------------------------------

FNV32_OFFSET = 0x811C9DC5
FNV32_PRIME = 0x01000193
FNV64_OFFSET = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3


def fnv1a_32(key: Key) -> int:
    """32-bit FNV-1a hash."""
    h = FNV32_OFFSET
    for b in _as_bytes(key):
        h ^= b
        h = (h * FNV32_PRIME) & _MASK32
    return h


def fnv1a_64(key: Key) -> int:
    """64-bit FNV-1a hash (ZHT's default ring hash)."""
    h = FNV64_OFFSET
    for b in _as_bytes(key):
        h ^= b
        h = (h * FNV64_PRIME) & _MASK64
    return h


# ---------------------------------------------------------------------------
# Bob Jenkins' lookup3 (hashlittle), the "Bob Jenkins hash" of the paper.
# Reference: Bob Jenkins, "Hash functions for hash table lookup" (2006),
# http://burtleburtle.net/bob/c/lookup3.c
# ---------------------------------------------------------------------------


def _rot(x: int, k: int) -> int:
    return ((x << k) | (x >> (32 - k))) & _MASK32


def _mix(a: int, b: int, c: int) -> tuple[int, int, int]:
    a = (a - c) & _MASK32; a ^= _rot(c, 4); c = (c + b) & _MASK32
    b = (b - a) & _MASK32; b ^= _rot(a, 6); a = (a + c) & _MASK32
    c = (c - b) & _MASK32; c ^= _rot(b, 8); b = (b + a) & _MASK32
    a = (a - c) & _MASK32; a ^= _rot(c, 16); c = (c + b) & _MASK32
    b = (b - a) & _MASK32; b ^= _rot(a, 19); a = (a + c) & _MASK32
    c = (c - b) & _MASK32; c ^= _rot(b, 4); b = (b + a) & _MASK32
    return a, b, c


def _final(a: int, b: int, c: int) -> tuple[int, int, int]:
    c ^= b; c = (c - _rot(b, 14)) & _MASK32
    a ^= c; a = (a - _rot(c, 11)) & _MASK32
    b ^= a; b = (b - _rot(a, 25)) & _MASK32
    c ^= b; c = (c - _rot(b, 16)) & _MASK32
    a ^= c; a = (a - _rot(c, 4)) & _MASK32
    b ^= a; b = (b - _rot(a, 14)) & _MASK32
    c ^= b; c = (c - _rot(b, 24)) & _MASK32
    return a, b, c


def jenkins_lookup3(key: Key, initval: int = 0) -> int:
    """Bob Jenkins' lookup3 ``hashlittle`` over *key*, returning 32 bits."""
    data = _as_bytes(key)
    length = len(data)
    a = b = c = (0xDEADBEEF + length + initval) & _MASK32

    offset = 0
    while length > 12:
        a = (a + int.from_bytes(data[offset : offset + 4], "little")) & _MASK32
        b = (b + int.from_bytes(data[offset + 4 : offset + 8], "little")) & _MASK32
        c = (c + int.from_bytes(data[offset + 8 : offset + 12], "little")) & _MASK32
        a, b, c = _mix(a, b, c)
        offset += 12
        length -= 12

    tail = data[offset:]
    if not tail:
        return c
    # Pad the ≤12-byte tail with zeros, matching lookup3's byte-wise cases.
    tail = tail + b"\x00" * (12 - len(tail))
    a = (a + int.from_bytes(tail[0:4], "little")) & _MASK32
    b = (b + int.from_bytes(tail[4:8], "little")) & _MASK32
    c = (c + int.from_bytes(tail[8:12], "little")) & _MASK32
    a, b, c = _final(a, b, c)
    return c


def jenkins_64(key: Key) -> int:
    """64-bit hash built from two lookup3 passes with distinct seeds."""
    lo = jenkins_lookup3(key, 0)
    hi = jenkins_lookup3(key, 0x9E3779B9)
    return (hi << 32) | lo


# ---------------------------------------------------------------------------
# Ring placement
# ---------------------------------------------------------------------------

HashFunction = Callable[[Key], int]

HASH_FUNCTIONS: dict[str, HashFunction] = {
    "fnv1a_64": fnv1a_64,
    "fnv1a_32": fnv1a_32,
    "jenkins_64": jenkins_64,
    "jenkins_32": jenkins_lookup3,
}

DEFAULT_HASH = "fnv1a_64"


def get_hash_function(name: str) -> HashFunction:
    """Look up a registered hash function by name.

    ZHT's hash is "customizable"; registering project-specific functions in
    :data:`HASH_FUNCTIONS` makes them usable by name from
    :class:`~repro.core.config.ZHTConfig`.
    """
    try:
        return HASH_FUNCTIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown hash function {name!r}; available: {sorted(HASH_FUNCTIONS)}"
        ) from None


def fmix64(h: int) -> int:
    """MurmurHash3's 64-bit avalanche finalizer.

    FNV-1a diffuses trailing-byte differences only into its low bits (the
    last input byte is multiplied by the prime just once), so using raw
    FNV output as a ring position piles keys with common prefixes into a
    few partitions.  Finalizing with fmix64 gives every output bit ~50%
    flip probability — the "avalanche effect" the paper lists among its
    hash-function requirements (§III.E).
    """
    h &= _MASK64
    h ^= h >> 33
    h = (h * 0xFF51AFD7ED558CCD) & _MASK64
    h ^= h >> 33
    h = (h * 0xC4CEB9FE1A85EC53) & _MASK64
    h ^= h >> 33
    return h


def ring_position(key: Key, hash_name: str = DEFAULT_HASH) -> int:
    """Map *key* to its position in the 64-bit ID space.

    The configured hash is finalized with :func:`fmix64` so positions are
    uniform regardless of the base function's diffusion quality.
    """
    return fmix64(get_hash_function(hash_name)(key))


def partition_of(key: Key, num_partitions: int, hash_name: str = DEFAULT_HASH) -> int:
    """Map *key* to a partition index in ``[0, num_partitions)``.

    Partitions are contiguous, equal ranges of the 64-bit ring ("The entire
    name space N ... is evenly distributed into n partitions"), so the
    partition index is the high bits of the ring position.

    Every operation hashes its key on each side of the wire, so the
    default hash runs here in one frame — :func:`fnv1a_64`, :func:`fmix64`
    and the range multiply inlined, one call where the composition makes
    five: the same value as ``ring_position(key) * n >> 64``.
    """
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")
    if hash_name != DEFAULT_HASH:
        return ring_position(key, hash_name) * num_partitions >> ID_SPACE_BITS
    h = FNV64_OFFSET
    for b in key if type(key) is bytes else _as_bytes(key):
        h = (h ^ b) * FNV64_PRIME & _MASK64
    h = (h ^ h >> 33) * 0xFF51AFD7ED558CCD & _MASK64
    h = (h ^ h >> 33) * 0xC4CEB9FE1A85EC53 & _MASK64
    return (h ^ h >> 33) * num_partitions >> ID_SPACE_BITS
