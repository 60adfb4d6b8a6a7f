"""Real transports for ZHT: TCP (epoll-style event loop with LRU
connection caching), UDP (ack-based), and an in-process local transport
for deterministic tests."""

from .local import LocalNetwork
from .lru import LRUCache
from .transport import ClientTransport, ServerExecutor, drive

__all__ = [
    "ClientTransport",
    "LRUCache",
    "LocalNetwork",
    "ServerExecutor",
    "drive",
]
