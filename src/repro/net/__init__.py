"""Real transports for ZHT: TCP (epoll-style event loop with cached,
multiplexed connections), UDP (ack-based), and an in-process local transport
for deterministic tests."""

from .local import LocalNetwork
from .lru import LRUCache
from .transport import ClientTransport, drive, serve_effects

__all__ = [
    "ClientTransport",
    "LRUCache",
    "LocalNetwork",
    "drive",
    "serve_effects",
]
