"""graph6 serialization.

Standard format: 6-bit big-endian groups offset by 63, an N(n) header,
then the upper triangle of the adjacency matrix in column-major order
(bit (u,v) for v = 1..n-1, u = 0..v-1), zero-padded to a multiple of six
bits.  One graph per line in files.

Decoding first parses the header and validates the body (its length, then
the range of every data byte, then the padding bits).  Each direction then
places the bits by one of two routes, chosen from the input alone:

* **Minority route**, for near-empty and near-complete graphs, such as a
  certificate, whose complement is a disjoint union of sparse function
  graphs.  Only the minority entries (the edges of a sparse graph, the
  non-edges of a dense one) are visited, one Python step each.  Decoding
  finds the data bytes that are not ``?`` (sparse) or not ``~`` (dense)
  with ``bytes.find`` on a translated copy of the body, maps each minority
  bit position p to (u, v) through v = (1 + isqrt(8p + 1)) // 2, ORs the
  pairs into the rows and, for a dense graph, complements the rows at the
  end; padding bits are never read as pairs.  Encoding starts from an
  all-``?`` or all-``~`` body with clear padding bits and flips one bit
  per minority pair, read off the low v bits of each row v.
  :func:`complement_graph6` takes this route with the non-edges given
  as a list, so a dense graph is written without its rows.
* **Whole-buffer route**, for everything else.  Its Python-level loops are
  per column or per row, never per bit or per data byte.  The bit string
  is an ASCII ``b"0"``/``b"1"`` buffer with one character per bit.  Its
  six bit planes (every sixth character) map to and from the data bytes
  through ``bytes.translate`` tables and extended-slice copies; on encode
  the planes, weighted by those tables, are summed as big integers, which
  cannot carry because each byte's total stays below 127.  Decoding lays
  the triangle out as an n x n character matrix, mirrors it across the
  diagonal with strided slice assignment, and parses each row with
  ``int(row, 2)``.  Base-2 parsing and ``int.from_bytes``/``int.to_bytes``
  are exempt from Python's int/str digit limit, so that limit never needs
  changing.

The choice costs only C-level scans.  Encoding sums ``row.bit_count()``
and takes the minority route when at most 1% of the pairs are in the
minority.  Decoding compares ``body.count(b"?")`` with
``body.count(b"~")`` and takes it when at most 4% of the data bytes
differ from the majority byte (about 0.7% of the pairs, if the minority
bits are spread out).  Timed on uniform random graphs with n = 600, 2000
and 4000 (best of five, one process, Python 3.11), the minority route was
the faster one below a minority fraction of about 1-1.5% of the pairs for
encoding and about 1% (6-7% of the bytes) for decoding, so both
thresholds sit at or just below the crossover.  The n = 5148 q = 2
certificate has 0.044% non-edges (0.14-0.26% of its bytes, by vertex
order); the function graphs of the paper's construction and their
complements have at least 2.1% (11% of the bytes).
"""

from __future__ import annotations

from math import isqrt
from typing import Iterable, Iterator

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
# The minority routes run when at most 1/divisor of the pairs (encode) or
# of the data bytes (decode) are in the minority; see the module docstring.
_ENCODE_MINORITY_DIVISOR = 100
_DECODE_MINORITY_DIVISOR = 25


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
    # N(n) is one byte, or ~ and three bytes, or ~~ and six bytes
    start = 2 if data[:2] == b"~~" else 1 if data[:1] == b"~" else 0
    size = (1, 3, 6)[start]
    chunk = data[start : start + size]
    if len(chunk) != size:
        raise Graph6Error(f"truncated {start + size}-byte vertex-count header")
    n = 0
    for b in chunk:
        if not 63 <= b <= 126:
            raise Graph6Error(f"header byte {b} outside graph6 range")
        n = n << 6 | (b - 63)
    return n, data[start + size :]


def to_graph6(g: Graph) -> bytes:
    """Encode a graph as a graph6 byte string (no trailing newline)."""
    n = g.n
    nbits = n * (n - 1) // 2
    edges = g.edge_count()
    if min(edges, nbits - edges) * _ENCODE_MINORITY_DIVISOR <= nbits:
        dense = 2 * edges > nbits
        return _minority_line(n, dense, _minority_positions(g.rows, dense))
    return _encode_n(n) + _body_whole_buffer(g.rows)


def complement_graph6(n: int, edges: Iterable[tuple[int, int]]) -> bytes:
    """graph6 of the complement of the graph on n vertices whose edges are
    ``edges``, each a pair (u, v) with u < v listed once, without forming
    adjacency rows: the work is one step per listed edge."""
    return _minority_line(n, True, (v * (v - 1) // 2 + u for u, v in edges))


def _body_whole_buffer(rows) -> bytes:
    # Column v contributes bits (0,v), (1,v), ..., (v-1,v).  The low v bits
    # of row v hold exactly those, MSB-first after string reversal.
    bits = "".join(
        format(rows[v] & ((1 << v) - 1), f"0{v}b")[::-1] for v in range(1, len(rows))
    ).encode("ascii")
    bits += b"0" * (-len(bits) % 6)
    body = sum(
        int.from_bytes(bits[k::6].translate(_PLANE_WEIGHT[k]), "big") for k in range(6)
    )
    return body.to_bytes(len(bits) // 6, "big")


def _minority_positions(rows, dense: bool) -> Iterator[int]:
    # The bit position of every edge (or, dense, non-edge), read off the
    # low v bits of each row v.
    for v in range(1, len(rows)):
        mask = (1 << v) - 1
        low = rows[v] & mask
        if dense:
            low ^= mask
        base = v * (v - 1) // 2
        while low:
            bit = low & -low
            low ^= bit
            yield base + bit.bit_length() - 1


def _minority_line(n: int, dense: bool, positions: Iterable[int]) -> bytes:
    # Start from the line of the edgeless (all "?") or complete (all "~",
    # padding bits clear) graph, header included, and flip one bit per
    # position.  One buffer holds the whole line, so it is copied once.
    header = _encode_n(n)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    line = bytearray([126 if dense else 63]) * (len(header) + nbytes)
    line[: len(header)] = header
    if dense and nbytes:
        line[-1] -= (1 << (6 * nbytes - nbits)) - 1
    sign = -1 if dense else 1
    start = len(header)
    for pos in positions:
        line[start + pos // 6] += sign << (5 - pos % 6)
    return bytes(line)


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
    if body and (body[-1] - 63) & ((1 << (6 * expected - nbits)) - 1):
        raise Graph6Error("nonzero padding bits")
    zeros, ones = body.count(b"?"), body.count(b"~")
    if (expected - max(zeros, ones)) * _DECODE_MINORITY_DIVISOR <= expected:
        rows = _rows_minority(n, body, nbits, dense=ones > zeros)
    else:
        rows = _rows_whole_buffer(n, body)
    return Graph(n, rows)


def _rows_whole_buffer(n: int, body: bytes) -> list:
    bits = bytearray(6 * len(body))
    for k in range(6):
        bits[k::6] = body.translate(_PLANE_BIT[k])
    # Row v of the matrix is the binary numeral of rows[v]: bit (u,v) sits at
    # column n-1-u of row v and, mirrored, at column n-1-v of row u.
    matrix = bytearray(b"0") * (n * n)
    pos = 0
    for v in range(1, n):
        col = bits[pos : pos + v][::-1]
        matrix[(v + 1) * n - v : (v + 1) * n] = col
        matrix[v * n - 1 - v :: -n] = col
        pos += v
    return [int(matrix[v * n : (v + 1) * n], 2) for v in range(n)]


def _rows_minority(n: int, body: bytes, nbits: int, dense: bool) -> list:
    # Visit only the bytes that differ from the majority byte and OR their
    # minority bits into the rows; a dense graph is complemented at the end.
    # The translation turns those bytes into NULs, which bytes.find locates
    # faster than a regular expression scans for them.
    # Bit position pos = v(v-1)/2 + u gives v = (1 + isqrt(8 pos + 1)) // 2.
    rows = [0] * n
    flip = 63 if dense else 0
    marks = bytearray(256)
    marks[63 + flip] = 1
    marked = body.translate(marks)
    i = marked.find(0)
    while i >= 0:
        sextet = (body[i] - 63) ^ flip
        while sextet:
            top = sextet.bit_length() - 1
            sextet ^= 1 << top
            pos = 6 * i + 5 - top
            if pos >= nbits:  # a padding bit, flipped to 1 on a dense body
                break
            v = (1 + isqrt(8 * pos + 1)) >> 1
            u = pos - v * (v - 1) // 2
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        i = marked.find(0, i + 1)
    if dense:
        full = (1 << n) - 1
        rows = [row ^ full ^ (1 << v) for v, row in enumerate(rows)]
    return rows
