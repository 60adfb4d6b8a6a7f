"""Information Dispersal Algorithm: systematic Reed–Solomon over GF(256).

Rabin-style (n, k) dispersal: a byte string is split into ``k`` data
chunks and encoded into ``n`` chunks such that **any** ``k`` of them
reconstruct the original.  IStore "encode[s] the data into multiple
blocks among which only a portion is necessary to recover the original
data".

Encoding is *systematic*: the first ``k`` chunks are the raw data stripes
(fast path when no chunk is lost); the remaining ``n-k`` parity chunks
are combinations of them.  The generator is the n×k Vandermonde matrix
``V`` brought to systematic form, ``V · V[:k]⁻¹``: right-multiplying by
an invertible matrix keeps every k×k row-submatrix invertible, which
identity rows stacked on *raw* Vandermonde rows do not (that generator
is singular for one of the 126 five-chunk subsets of a (9, 5) code).
Decoding inverts the k×k submatrix of the generator corresponding to
the surviving chunk indices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf256 import gf_mul, mat_invert, mat_mul, mat_vec, vandermonde


@dataclass(frozen=True)
class Chunk:
    """One dispersed chunk: its index in the code and its bytes."""

    index: int
    data: bytes


class IDACodec:
    """(n, k) erasure codec: encode to n chunks, decode from any k."""

    def __init__(self, n: int, k: int):
        if not 1 <= k <= n:
            raise ValueError("need 1 <= k <= n")
        if n > 255:
            raise ValueError("GF(256) IDA supports at most 255 chunks")
        self.n = n
        self.k = k
        # Systematic generator: identity on top, parity rows below.
        v = vandermonde(n, k)
        self.generator = mat_mul(v, mat_invert(v[:k]))

    # ------------------------------------------------------------------

    def encode(self, data: bytes) -> list[Chunk]:
        """Split *data* into k stripes and emit n chunks.

        The original length is prepended (varint-free u64) so decoding
        can strip stripe padding exactly.
        """
        k = self.k
        framed = len(data).to_bytes(8, "little") + data
        stripe_len = (len(framed) + k - 1) // k
        framed = framed.ljust(stripe_len * k, b"\x00")
        stripes = [
            framed[i * stripe_len : (i + 1) * stripe_len] for i in range(k)
        ]
        chunks = [Chunk(i, stripes[i]) for i in range(k)]
        for p, row in enumerate(self.generator[k:]):
            out = bytearray(stripe_len)
            for coeff, stripe in zip(row, stripes):
                if coeff == 0:
                    continue
                for b in range(stripe_len):
                    out[b] ^= gf_mul(coeff, stripe[b])
            chunks.append(Chunk(self.k + p, bytes(out)))
        return chunks

    def decode(self, chunks: list[Chunk]) -> bytes:
        """Reconstruct the original bytes from any k distinct chunks."""
        seen: dict[int, bytes] = {}
        for chunk in chunks:
            if not 0 <= chunk.index < self.n:
                raise ValueError(f"chunk index {chunk.index} out of range")
            seen.setdefault(chunk.index, chunk.data)
        if len(seen) < self.k:
            raise ValueError(
                f"need {self.k} distinct chunks, got {len(seen)}"
            )
        use = sorted(seen)[: self.k]
        stripe_len = len(seen[use[0]])
        if any(len(seen[i]) != stripe_len for i in use):
            raise ValueError("chunk length mismatch")

        if use == list(range(self.k)):
            # Fast systematic path: the data stripes survived intact.
            stripes = [seen[i] for i in use]
        else:
            stripes = self._solve(use, [seen[i] for i in use], stripe_len)
        framed = b"".join(stripes)
        length = int.from_bytes(framed[:8], "little")
        if length > len(framed) - 8:
            raise ValueError("corrupt chunk set: bad length header")
        return framed[8 : 8 + length]

    def _solve(
        self, indices: list[int], rows_data: list[bytes], stripe_len: int
    ) -> list[bytes]:
        # Invert the generator's k x k submatrix for the surviving indices.
        inverse = mat_invert([self.generator[index] for index in indices])
        stripes = [bytearray(stripe_len) for _ in range(self.k)]
        for b in range(stripe_len):
            column = [row[b] for row in rows_data]
            solved = mat_vec(inverse, column)
            for i in range(self.k):
                stripes[i][b] = solved[i]
        return [bytes(s) for s in stripes]

    @property
    def storage_overhead(self) -> float:
        """Raw-bytes expansion factor n/k (e.g. 1.5 for (6, 4))."""
        return self.n / self.k
