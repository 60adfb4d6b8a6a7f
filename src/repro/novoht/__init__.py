"""NoVoHT: the Non-Volatile Hash Table persisting every ZHT instance.

Public surface:

* :class:`NoVoHT` — the store (put/get/remove/append, WAL + checkpoint
  persistence, bounded memory with spill-to-disk, log GC).
* :class:`WriteAheadLog` — the append-only mutation log (exposed for
  tests and tooling).
"""

from .novoht import NoVoHT
from .wal import WriteAheadLog, encode_varint, decode_varint
from .checkpoint import encode_image, read_checkpoint, write_checkpoint

__all__ = [
    "NoVoHT",
    "WriteAheadLog",
    "encode_varint",
    "decode_varint",
    "encode_image",
    "read_checkpoint",
    "write_checkpoint",
]
