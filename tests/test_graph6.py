from random import Random

import networkx as nx
import pytest

from wellcovered import (
    Graph,
    Graph6Error,
    TailPermutation,
    build_function_graph,
    complement,
    complete,
    from_graph6,
    realize,
    to_graph6,
)
from wellcovered import graph6

from bruteforce import from_graph6_bitwise, graph6_header, random_graph, to_graph6_bitwise


def test_single_vertex():
    assert to_graph6(complete(1)) == b"@"
    assert from_graph6(b"@") == complete(1)


def test_empty_graph():
    g = Graph(0, [])
    assert from_graph6(to_graph6(g)) == g


def test_vertex_count_header_at_width_boundaries():
    # 1-byte header up to 62, 4 bytes up to 258047, 8 bytes up to _MAX_N
    for n, width in ((62, 1), (63, 4), (258047, 4), (258048, 8), (graph6._MAX_N, 8)):
        header = graph6._encode_n(n)
        assert len(header) == width, n
        assert graph6._decode_n(header + b"rest") == (n, b"rest")
    with pytest.raises(ValueError, match="cannot encode"):
        graph6._encode_n(graph6._MAX_N + 1)


def test_known_small_values():
    # 5-cycle, a standard reference value for the format
    c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert to_graph6(c5) == b"Dhc"
    assert from_graph6(b"Dhc") == c5


def test_roundtrip_random():
    rng = Random(5)
    for _ in range(60):
        g = random_graph(rng, rng.randint(0, 60))
        assert from_graph6(to_graph6(g)) == g


def test_roundtrip_large_n():
    # exercises the 4-byte vertex-count header (n >= 63)
    rng = Random(9)
    for n in (62, 63, 64, 200, 1000):
        g = random_graph(rng, n, p=0.05)
        encoded = to_graph6(g)
        assert from_graph6(encoded) == g


def test_matches_networkx():
    rng = Random(17)
    for _ in range(40):
        n = rng.randint(0, 40)
        g = random_graph(rng, n, p=0.4)
        reference = nx.empty_graph(n)
        reference.add_edges_from(g.edges())
        theirs = nx.to_graph6_bytes(reference, header=False).strip()
        assert to_graph6(g) == theirs
        assert from_graph6(theirs) == g


def test_header_prefix_and_whitespace():
    g = complete(4)
    line = b">>graph6<<" + to_graph6(g) + b"\n"
    assert from_graph6(line) == g
    assert from_graph6(to_graph6(g).decode("ascii")) == g


def test_malformed_inputs():
    with pytest.raises(Graph6Error):
        from_graph6(b"")
    with pytest.raises(Graph6Error):
        from_graph6(b"\x1f")  # header byte below 63
    with pytest.raises(Graph6Error):
        from_graph6(b"~A")  # truncated long header
    with pytest.raises(Graph6Error):
        from_graph6(b"D")  # n=5 but no data bytes
    with pytest.raises(Graph6Error):
        from_graph6(b"DQcQ")  # extra data byte
    with pytest.raises(Graph6Error):
        from_graph6(b"B" + bytes([126]))  # padding bits set for n=3
    with pytest.raises(Graph6Error):
        from_graph6(b"C" + bytes([30]))  # data byte out of range


def test_matches_bitwise_oracle():
    # n = 0..120 covers both header forms (n = 62, 63) and every padding
    # width: n(n-1)/2 mod 6 takes the values 0, 1, 3 and 4
    rng = Random(23)
    residues = set()
    for n in range(121):
        g = random_graph(rng, n, p=rng.random())
        encoded = to_graph6(g)
        assert encoded == to_graph6_bitwise(g)
        assert from_graph6(encoded) == g
        residues.add(n * (n - 1) // 2 % 6)
    assert residues == {0, 1, 3, 4}


@pytest.mark.parametrize("dense", [False, True], ids=["near-empty", "near-complete"])
def test_both_routes_match_bitwise_oracle(dense):
    # each route is called directly, whatever the selection rule would pick
    rng = Random(37)
    for n in range(121):
        g = random_graph(rng, n, p=0.004)
        if dense:
            g = complement(g)
        line = to_graph6_bitwise(g)
        header = graph6_header(n)
        body = line[len(header) :]
        nbits = n * (n - 1) // 2
        positions = graph6._minority_positions(g.rows, dense)
        assert graph6._minority_line(n, dense, positions) == line
        if dense:
            assert graph6.complement_graph6(n, complement(g).edges()) == line
        assert header + graph6._body_whole_buffer(g.rows) == line
        assert graph6._rows_minority(n, body, nbits, dense) == list(g.rows)
        assert graph6._rows_whole_buffer(n, body) == list(g.rows)
        assert to_graph6(g) == line
        assert from_graph6(line) == g


def refuse(*args, **kwargs):
    raise AssertionError("graph6 route taken that the selection rule excludes")


def test_minority_route_inputs_get_whole_buffer_error_messages(monkeypatch):
    # n = 101, 102, 107 have 2, 3 and 5 padding bits
    rng = Random(41)
    for n in (101, 102, 107):
        mid = to_graph6(random_graph(rng, n, p=0.5))
        near_complete = to_graph6(complement(random_graph(rng, n, p=0.002)))
        near_empty = to_graph6(random_graph(rng, n, p=0.002))
        pad = -(n * (n - 1) // 2) % 6
        set_padding = [
            line[:-1] + bytes([63 + ((line[-1] - 63) | 1 << (pad - 1))])
            for line in (mid, near_complete)
        ]
        bad_last_byte = [line[:-1] + b"\x7f" for line in (mid, near_empty)]
        expected = []
        for bad in (set_padding[0], bad_last_byte[0]):
            with pytest.raises(Graph6Error) as err:
                from_graph6(bad)
            expected.append(str(err.value))
        assert expected == ["nonzero padding bits", "data byte 127 outside graph6 range"]
        with monkeypatch.context() as patch:
            patch.setattr(graph6, "_rows_whole_buffer", refuse)
            assert from_graph6(near_complete) == from_graph6_bitwise(near_complete)
            assert from_graph6(near_empty) == from_graph6_bitwise(near_empty)
            for bad, message in zip((set_padding[1], bad_last_byte[1]), expected):
                with pytest.raises(Graph6Error) as err:
                    from_graph6(bad)
                assert str(err.value) == message


def test_route_selection(monkeypatch, q2_certificate):
    with monkeypatch.context() as patch:
        patch.setattr(graph6, "_body_whole_buffer", refuse)
        patch.setattr(graph6, "_rows_whole_buffer", refuse)
        assert from_graph6(to_graph6(q2_certificate)) == q2_certificate
    with monkeypatch.context() as patch:
        patch.setattr(graph6, "_minority_line", refuse)
        patch.setattr(graph6, "_rows_minority", refuse)
        # the function-grid triples of the benchmark
        for k, q, m in ((1, 3, 14), (1, 4, 6), (1, 5, 3), (2, 4, 4), (3, 5, 2)):
            g = build_function_graph(k, q, m)
            for h in (g, complement(g)):
                assert from_graph6(to_graph6(h)) == h


def test_decode_matches_bitwise_oracle_on_random_bodies():
    rng = Random(29)
    for n in range(121):
        nbits = n * (n - 1) // 2
        body = bytearray(rng.randrange(63, 127) for _ in range((nbits + 5) // 6))
        pad = -nbits % 6
        if pad:
            body[-1] = 63 + ((body[-1] - 63) >> pad << pad)
        line = graph6_header(n) + bytes(body)
        assert from_graph6(line) == from_graph6_bitwise(line)


def test_out_of_range_last_byte_of_large_body():
    line = bytearray(to_graph6(complete(1000)))
    for bad in (0, 62, 127, 255):
        line[-1] = bad
        with pytest.raises(Graph6Error, match=f"data byte {bad} "):
            from_graph6(bytes(line))
        with pytest.raises(ValueError):
            from_graph6_bitwise(bytes(line))


def test_set_padding_bit_for_each_padding_width():
    first_n = {}
    for n in range(2, 12):
        first_n.setdefault(-(n * (n - 1) // 2) % 6, n)
    assert sorted(first_n) == [0, 2, 3, 5]
    for width, n in first_n.items():
        line = to_graph6(complete(n))
        for bit in range(width):
            bad = line[:-1] + bytes([63 + ((line[-1] - 63) | 1 << bit)])
            with pytest.raises(Graph6Error, match="padding"):
                from_graph6(bad)
            with pytest.raises(ValueError):
                from_graph6_bitwise(bad)


def test_non_ascii_text_rejected():
    # "?" is byte 63, a valid all-zero sextet, so replacing non-ASCII
    # characters with it would decode "Déé" as an edgeless 5-vertex graph
    with pytest.raises(Graph6Error, match="ASCII"):
        from_graph6("Déé")
    with pytest.raises(Graph6Error, match="ASCII"):
        from_graph6(to_graph6(complete(4)).decode("ascii") + "\u00a0")


@pytest.fixture(scope="module")
def q2_certificate():
    # the n=5148 certificate of realize -q 2 --pi 1,2, with 13.2M edges
    return realize(TailPermutation.from_image_list(2, (1, 2))).graph


def test_roundtrip_q2_certificate(q2_certificate):
    g = q2_certificate
    assert g.n == 5148
    encoded = to_graph6(g)
    header = graph6_header(g.n)
    assert encoded.startswith(header)
    assert len(encoded) == len(header) + (g.n * (g.n - 1) // 2 + 5) // 6
    assert from_graph6(encoded) == g
    # the whole-buffer route, which the selection rule skips here, agrees
    body = encoded[len(header) :]
    assert graph6._body_whole_buffer(g.rows) == body
    assert graph6._rows_whole_buffer(g.n, body) == list(g.rows)
    # spot-check bit (u, v), at position v(v-1)/2 + u of the body
    rng = Random(31)
    for _ in range(2000):
        u, v = sorted(rng.sample(range(g.n), 2))
        pos = v * (v - 1) // 2 + u
        sextet = encoded[len(header) + pos // 6] - 63
        assert (sextet >> (5 - pos % 6) & 1) == g.has_edge(u, v)
