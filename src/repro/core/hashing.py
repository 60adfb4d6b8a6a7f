"""Hash functions used to place keys on the ZHT ring.

The paper (§III.E) explores Bob Jenkins' and FNV hash functions "due to
their relatively simple implementation, consistency across different data
types (especially strings), and the promise of efficient performance".
Both are implemented here from their published specifications, plus the
ring-placement helper that maps a key to a 64-bit ID-space index.

All functions accept ``bytes`` or ``str`` (encoded UTF-8) and are pure.

A batch places all its keys with :func:`partitions_of`, which runs the
default hash over many keys at once: each key gets a 128-bit lane of one
Python int, and every step of FNV-1a and of the finalizer is one big-int
operation on all lanes.  A lane holds the widest product either one makes
(128 bits) and every step masks each lane back to 64 bits, so no bit
crosses into a neighbour and each lane's value is exactly the scalar one.
"""

from __future__ import annotations

import struct
from typing import Callable, Sequence, Union

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

    Every operation hashes its key on each side of the wire — a point op
    here, a batch's keys in one :func:`partitions_of` call per message —
    so the default hash runs here in one frame: :func:`fnv1a_64`,
    :func:`fmix64` and the range multiply inlined, one call where the
    composition makes five, giving the same value as
    ``ring_position(key) * n >> 64``.
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


# ---------------------------------------------------------------------------
# Many keys at once
# ---------------------------------------------------------------------------

#: Keys hashed side by side in one lane pass; a longer run of keys of one
#: length is cut into passes of this many (measured best of 64–1,024).
_LANES = 256
#: Below this many keys of one length the scalar loop is as fast (measured
#: crossover), so they take it.
_MIN_LANES = 8
#: ``_MASK64`` in every lane: ANDing keeps each lane's low 64 bits.
_LANE_MASK64 = int.from_bytes(_MASK64.to_bytes(16, "little") * _LANES, "little")
#: ``FNV64_OFFSET`` in every lane, as bytes so a pass of *k* lanes slices it.
_LANE_OFFSETS = FNV64_OFFSET.to_bytes(16, "little") * _LANES
#: Reads the high 64 bits of each of a full pass's lanes.
_LANE_HIGH = struct.Struct("<" + "8xQ" * _LANES)


def _lane_pass(keys: Sequence[bytes], length: int, num_partitions: int) -> list[int]:
    """:func:`partition_of` of each of *keys*, all *length* bytes long,
    with ``0 < num_partitions < 2**64``.

    Lane *i* is bits ``[128 i, 128 i + 128)`` of ``h``.  Per byte position
    *j* the keys' *j*-th bytes are scattered into the lanes' low bytes and
    XORed in; the product by the FNV prime (a 64-bit lane times a 41-bit
    prime: < 2**105) and each ``fmix64`` product (< 2**128) stay inside
    their lane, and ``h >> 33 & mask`` drops what the shift brings down
    from the lane above.  The last product by *n* (< 2**128) leaves each
    lane's partition in its high 64 bits.
    """
    out: list[int] = []
    mask = _LANE_MASK64
    for start in range(0, len(keys), _LANES):
        chunk = keys[start : start + _LANES]
        k = len(chunk)
        if k < _MIN_LANES:
            out += [partition_of(key, num_partitions) for key in chunk]
            continue
        width = 16 * k
        h = int.from_bytes(_LANE_OFFSETS[:width], "little")
        joined = b"".join(chunk)
        lanes = bytearray(width)
        for j in range(length):
            lanes[::16] = joined[j::length]
            h = (h ^ int.from_bytes(lanes, "little")) * FNV64_PRIME & mask
        h = (h ^ h >> 33 & mask) * 0xFF51AFD7ED558CCD & mask
        h = (h ^ h >> 33 & mask) * 0xC4CEB9FE1A85EC53 & mask
        h = (h ^ h >> 33 & mask) * num_partitions
        out += _LANE_HIGH.unpack(h.to_bytes(16 * _LANES, "little"))[:k]
    return out


def partitions_of(
    keys: Sequence[Key], num_partitions: int, hash_name: str = DEFAULT_HASH
) -> list[int]:
    """``[partition_of(key, num_partitions, hash_name) for key in keys]``,
    the default hash computed over many keys at once.

    Keys are grouped by length, and each group of at least
    :data:`_MIN_LANES` goes through one lane pass per :data:`_LANES` keys
    (:func:`_lane_pass`): per key, about 0.4 of the scalar loop's time
    at 32–64 keys and 0.25 at 256 or more.  Another hash, a partition
    count of 2**64 or more (its product would overflow a lane) and a
    short group take the scalar :func:`partition_of`.  Nothing is
    cached: a call leaves the module as it found it.
    """
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")
    if hash_name != DEFAULT_HASH or num_partitions >= ID_SPACE or len(keys) < _MIN_LANES:
        return [partition_of(key, num_partitions, hash_name) for key in keys]
    if set(map(type, keys)) != {bytes}:
        keys = list(map(_as_bytes, keys))
    lengths = set(map(len, keys))
    if len(lengths) == 1:
        return _lane_pass(keys, lengths.pop(), num_partitions)
    groups: dict[int, list[bytes]] = {}
    for key in keys:
        groups.setdefault(len(key), []).append(key)
    pids = {
        length: iter(_lane_pass(group, length, num_partitions))
        for length, group in groups.items()
    }
    return [next(pids[len(key)]) for key in keys]
