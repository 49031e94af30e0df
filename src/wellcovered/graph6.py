"""graph6 serialization.

Standard format: 6-bit big-endian groups offset by 63, an N(n) header,
then the upper triangle of the adjacency matrix in column-major order
(bit (u,v) for v = 1..n-1, u = 0..v-1), zero-padded to a multiple of six
bits.  One graph per line in files.

Both directions run on whole buffers, so their Python-level loops are per
column or per row, never per bit or per data byte.  The bit string is an
ASCII ``b"0"``/``b"1"`` buffer with one character per bit.  Its six bit
planes (every sixth character) map to and from the data bytes through
``bytes.translate`` tables and extended-slice copies; on encode the planes,
weighted by those tables, are summed as big integers, which cannot carry
because each byte's total stays below 127.  Decoding lays the triangle out
as an n x n character matrix, mirrors it across the diagonal with strided
slice assignment, and parses each row with ``int(row, 2)``.  Base-2
parsing and ``int.from_bytes``/``int.to_bytes`` are exempt from Python's
int/str digit limit, so that limit never needs changing.
"""

from __future__ import annotations

from .graph import Graph

_HEADER_PREFIX = b">>graph6<<"
_MAX_N = (1 << 36) - 1
_DATA_BYTES = bytes(range(63, 127))
# Bit plane k is bit 5-k of every sextet, i.e. characters k, k+6, ... of
# the bit string.  _PLANE_BIT[k] maps a data byte to that bit as b"0"/b"1";
# _PLANE_WEIGHT[k] maps b"0"/b"1" to the bit's value in the data byte, plane
# 0 also adding the offset 63.
_PLANE_BIT = [
    bytes.maketrans(_DATA_BYTES, (b"0" * (32 >> k) + b"1" * (32 >> k)) * (1 << k))
    for k in range(6)
]
_PLANE_WEIGHT = [
    bytes.maketrans(b"01", bytes([offset, offset + (32 >> k)]))
    for k, offset in enumerate((63, 0, 0, 0, 0, 0))
]


class Graph6Error(ValueError):
    """Malformed graph6 input."""


def _encode_n(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    if n <= _MAX_N:
        return bytes([126, 126] + [(n >> s & 63) + 63 for s in (30, 24, 18, 12, 6, 0)])
    raise ValueError(f"graph6 cannot encode n={n} (limit {_MAX_N})")


def _decode_n(data: bytes) -> tuple[int, bytes]:
    if not data:
        raise Graph6Error("empty graph6 string")
    b0 = data[0]
    if b0 == 126:
        if len(data) >= 2 and data[1] == 126:
            chunk, rest = data[2:8], data[8:]
            if len(chunk) != 6:
                raise Graph6Error("truncated 8-byte vertex-count header")
        else:
            chunk, rest = data[1:4], data[4:]
            if len(chunk) != 3:
                raise Graph6Error("truncated 4-byte vertex-count header")
        n = 0
        for b in chunk:
            if not 63 <= b <= 126:
                raise Graph6Error(f"header byte {b} outside graph6 range")
            n = n << 6 | (b - 63)
        return n, rest
    if not 63 <= b0 <= 126:
        raise Graph6Error(f"header byte {b0} outside graph6 range")
    return b0 - 63, data[1:]


def to_graph6(g: Graph) -> bytes:
    """Encode a graph as a graph6 byte string (no trailing newline)."""
    n = g.n
    # Column v contributes bits (0,v), (1,v), ..., (v-1,v).  The low v bits
    # of row v hold exactly those, MSB-first after string reversal.
    bits = "".join(
        format(g.rows[v] & ((1 << v) - 1), f"0{v}b")[::-1] for v in range(1, n)
    ).encode("ascii")
    bits += b"0" * (-len(bits) % 6)
    body = sum(
        int.from_bytes(bits[k::6].translate(_PLANE_WEIGHT[k]), "big") for k in range(6)
    )
    return _encode_n(n) + body.to_bytes(len(bits) // 6, "big")


def from_graph6(data: bytes | str) -> Graph:
    """Decode a graph6 byte (or ASCII text) string; inverse of :func:`to_graph6`.

    Accepts the optional ``>>graph6<<`` prefix and surrounding whitespace.
    Raises :class:`Graph6Error` on non-ASCII text, a malformed header, wrong
    data length, a data byte outside 63..126, or nonzero padding bits.
    """
    if isinstance(data, str):
        try:
            data = data.encode("ascii")
        except UnicodeEncodeError as exc:
            raise Graph6Error(f"non-ASCII character in graph6 text: {exc}") from None
    data = data.strip()
    if data.startswith(_HEADER_PREFIX):
        data = data[len(_HEADER_PREFIX) :].strip()
    n, body = _decode_n(data)
    nbits = n * (n - 1) // 2
    expected = (nbits + 5) // 6
    if len(body) != expected:
        raise Graph6Error(
            f"graph6 data length {len(body)} != {expected} required for n={n}"
        )
    invalid = body.translate(None, _DATA_BYTES)
    if invalid:
        raise Graph6Error(f"data byte {invalid[0]} outside graph6 range")
    bits = bytearray(6 * len(body))
    for k in range(6):
        bits[k::6] = body.translate(_PLANE_BIT[k])
    if bits.find(b"1", nbits) >= 0:
        raise Graph6Error("nonzero padding bits")
    # Row v of the matrix is the binary numeral of rows[v]: bit (u,v) sits at
    # column n-1-u of row v and, mirrored, at column n-1-v of row u.
    matrix = bytearray(b"0") * (n * n)
    pos = 0
    for v in range(1, n):
        col = bits[pos : pos + v][::-1]
        matrix[(v + 1) * n - v : (v + 1) * n] = col
        matrix[v * n - 1 - v :: -n] = col
        pos += v
    return Graph(n, [int(matrix[v * n : (v + 1) * n], 2) for v in range(n)])
