import hashlib
import json
import os
import re
import subprocess
import sys
from decimal import Decimal
from itertools import permutations
from pathlib import Path
from random import Random

import pytest

import wellcovered.certificate
import wellcovered.cli
import wellcovered.tailorder
from wellcovered import (
    Graph,
    TailPermutation,
    build_function_graph,
    complement,
    complete,
    from_graph6,
    materialize,
    realize,
    tail_indices,
    to_graph6,
)
from wellcovered.cli import main

from bruteforce import kneser, random_graph


def write_graph(tmp_path, name, g):
    path = tmp_path / name
    path.write_bytes(to_graph6(g) + b"\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as err:
        main(list(argv))
    captured = capsys.readouterr()
    return err.value.code, captured.err


# -- construct ----------------------------------------------------------------


def test_construct_to_file_with_sidecar(tmp_path, capsys):
    out = tmp_path / "h.g6"
    sidecar = tmp_path / "h.labels.json"
    code, _, _ = run(
        capsys, "construct", "-k", "1", "-q", "3", "-m", "2",
        "--out", str(out), "--labels", str(sidecar),
    )
    assert code == 0
    # golden line: vertex order is deterministic, so the encoding is too
    assert out.read_bytes() == b"K?r@`aihQsIg\n"
    g = from_graph6(out.read_bytes())
    assert g == build_function_graph(1, 3, 2)
    labels = json.loads(sidecar.read_text())
    assert len(labels) == 12
    assert labels[0] == [1, [1, 1]]


def test_construct_k0_label_sidecar(tmp_path, capsys):
    # k = 0: m disjoint copies of K_q, copy c is the value class c+1
    sidecar = tmp_path / "h.labels.json"
    code, _, _ = run(
        capsys, "construct", "-k", "0", "-q", "3", "-m", "2", "--labels", str(sidecar)
    )
    assert code == 0
    assert sidecar.read_text() == "[[1, [1]], [2, [1]], [3, [1]], [1, [2]], [2, [2]], [3, [2]]]"


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out-file"])
def test_construct_labels_write_failure_leaves_no_graph(tmp_path, capsys, to_file):
    # the sidecar is written first, so a failed write leaves no graph6
    # on stdout or in the --out file
    out = tmp_path / "ok.g6"
    argv = ["construct", "-k", "1", "-q", "3", "-m", "2",
            "--labels", str(tmp_path / "missing-dir" / "l.json")]
    code, stdout, err = run(capsys, *argv, *(["--out", str(out)] if to_file else []))
    assert code == 3
    assert stdout == ""
    assert "missing-dir" in err
    assert not out.exists()


def child_env():
    """Environment for a child interpreter that imports the copy of the
    package under test, installed or not."""
    src = str(Path(wellcovered.cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_console_script_entrypoint(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "wellcovered.cli", "construct", "-k", "0", "-q", "2", "-m", "1"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert result.returncode == 0
    assert from_graph6(result.stdout.strip()) == complete(2)


def test_construct_single_value_is_fast():
    # with m = 1 the graph is K_q however many k-subsets each side has
    result = subprocess.run(
        [sys.executable, "-m", "wellcovered.cli", "construct", "-k", "2", "-q", "120", "-m", "1"],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=5,
    )
    assert result.returncode == 0
    assert from_graph6(result.stdout.strip()) == complete(120)


@pytest.mark.parametrize(
    "argv",
    [
        # 11.7 kB of JSON: print itself hits the closed pipe
        ["realize", "-q", "9", "--pi", "5,6,7,8,9"],
        # one short line, still buffered when main returns
        ["construct", "-k", "0", "-q", "2", "-m", "1"],
    ],
    ids=["write-in-main", "flush-at-exit"],
)
def test_closed_stdout_exits_141_silently(argv):
    child = subprocess.Popen(
        [sys.executable, "-m", "wellcovered.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    child.stdout.close()  # the reader is gone before the child writes
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == 141
    assert err == b""


def test_construct_stdout(capsys):
    code, out, _ = run(capsys, "construct", "-k", "0", "-q", "3", "-m", "2")
    assert code == 0
    assert from_graph6(out.strip()) == build_function_graph(0, 3, 2)


def test_construct_budget_refusal(capsys):
    code, _, err = run(capsys, "construct", "-k", "1", "-q", "5", "-m", "100")
    assert code == 2
    assert "500000000" in err
    # the same parameters pass the budget math when raised
    code, _, err = run(
        capsys, "construct", "-k", "1", "-q", "3", "-m", "2", "--budget", "10"
    )
    assert code == 2


def test_construct_labels_bounded_by_budget(tmp_path, capsys):
    # (2,5,2) has 320 labels of C(4,2) = 6 values, 1,920 in all: within
    # q * budget at budget 384, over it at 383, where the graph still fits
    out, labels = tmp_path / "f.g6", tmp_path / "f.json"
    argv = ["construct", "-k", "2", "-q", "5", "-m", "2", "--out", str(out), "--labels", str(labels)]
    code, _, err = run(capsys, *argv, "--budget", "383")
    assert code == 2
    assert "320 labels of 6 values each, over q * budget = 1915 values" in err
    assert not out.exists() and not labels.exists()
    code, _, _ = run(capsys, *argv, "--budget", "384")
    assert code == 0
    assert len(json.loads(labels.read_text())) == 320 and out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        # 2^635745396 runs past the int-to-str digit limit, and 3^635745396
        # takes minutes to form
        (["construct", "-k", "10", "-q", "40", "-m", "2", "--labels", "{labels}"],
         "needs 40 * 2^635745396 vertices, over budget 200000"),
        (["construct", "-k", "10", "-q", "40", "-m", "3"],
         "needs 40 * 3^635745396 vertices, over budget 200000"),
        # the exponent C(19999, 10000) itself has about 6,000 digits
        (["construct", "-k", "10000", "-q", "20000", "-m", "2"],
         "needs 20000 * 2^2^19991 or more vertices"),
        # K_40 fits, but each of its labels would hold 635,745,396 values
        (["construct", "-k", "10", "-q", "40", "-m", "1", "--labels", "{labels}"],
         "--labels needs 40 labels of 635745396 values each"),
        # the plan's vertex count has about 4,750 digits
        (["realize", "-q", "12", "--pi", "12,11,10,9,8,7,6"],
         "plan needs 2^15769 or more vertices, over budget 200000"),
    ],
    ids=["construct-m2", "construct-m3", "construct-exponent", "construct-labels", "realize-q12"],
)
def test_huge_refusals_are_quick_and_short(tmp_path, argv, message):
    out, labels = tmp_path / "f.g6", tmp_path / "f.json"
    argv = [a.format(labels=labels) for a in argv] + ["--out", str(out)]
    result = subprocess.run(
        [sys.executable, "-m", "wellcovered.cli", *argv],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=10,
    )
    assert result.returncode == 2, result.stderr
    assert result.stdout == ""
    assert message in result.stderr and len(result.stderr) < 1000
    assert not out.exists() and not labels.exists()


# -- check ---------------------------------------------------------------------


def test_check_indpoly(tmp_path, capsys):
    path = write_graph(tmp_path, "k3.g6", complete(3))
    code, out, _ = run(capsys, "check", path, "--mode", "indpoly")
    assert code == 0
    assert json.loads(out) == ["1", "3"]


def test_check_wellcovered(tmp_path, capsys):
    path = write_graph(tmp_path, "c4.g6", Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    code, out, _ = run(capsys, "check", path, "--mode", "wellcovered")
    assert code == 0
    data = json.loads(out)
    assert data["is_well_covered"] is True and data["alpha"] == 2


def test_check_property_p(tmp_path, capsys):
    path = write_graph(tmp_path, "kneser.g6", kneser(8, 2))
    code, out, _ = run(
        capsys, "check", path, "--mode", "property-p", "-k", "2", "-q", "4", "-m", "3"
    )
    assert code == 0
    assert json.loads(out)["holds"] is True


def test_check_property_p_missing_params(tmp_path, capsys):
    path = write_graph(tmp_path, "k3.g6", complete(3))
    code, err = run_usage_error(capsys, "check", path, "--mode", "property-p")
    assert code == 4
    assert "-k" in err


def test_check_mt_on_non_well_covered(tmp_path, capsys):
    path = write_graph(tmp_path, "p3.g6", Graph.from_edges(3, [(0, 1), (1, 2)]))
    code, _, err = run(capsys, "check", path, "--mode", "mt")
    assert code == 3
    assert "well-covered" in err


def test_check_mt_holds(tmp_path, capsys):
    path = write_graph(tmp_path, "c4.g6", Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    code, out, _ = run(capsys, "check", path, "--mode", "mt")
    assert code == 0
    assert json.loads(out) == {"holds": True, "first_violation": None}


@pytest.mark.parametrize(
    "g, argv, expected",
    [
        # the complement K_1200 has one maximal clique, 1200 vertices deep
        (Graph(1200, [0] * 1200), ["--mode", "wellcovered"],
         {"is_well_covered": True, "alpha": 1200, "witness": None}),
        (Graph(1200, [0] * 1200), ["--mode", "mt"], {"holds": True, "first_violation": None}),
        (complete(1200), ["--mode", "property-p", "-k", "1", "-q", "1200", "-m", "1"],
         {"holds": True, "k": 1, "q": 1200, "m": 1, "violations": []}),
    ],
    ids=["wellcovered-edgeless", "mt-edgeless", "property-p-complete"],
)
def test_check_1200_vertex_clique(tmp_path, capsys, g, argv, expected):
    limit = sys.getrecursionlimit()
    path = write_graph(tmp_path, "g.g6", g)
    code, out, _ = run(capsys, "check", path, *argv)
    assert code == 0
    assert json.loads(out) == expected
    assert sys.getrecursionlimit() == limit


def test_check_wellcovered_hub_over_clique_and_matching(tmp_path):
    # K_1 v (K_100 u M_20): vertex 0 sees every other, 1..100 form a clique
    # and M_20 is the matching 101-102, ..., 139-140.  Its 100 * 2^20 + 1
    # maximal independent sets are never listed: each part's components are
    # walked once
    clique = [(u, v) for u in range(1, 101) for v in range(u + 1, 101)]
    matching = [(v, v + 1) for v in range(101, 141, 2)]
    g = Graph.from_edges(141, [(0, v) for v in range(1, 141)] + clique + matching)
    result = subprocess.run(
        [sys.executable, "-m", "wellcovered.cli", "check", write_graph(tmp_path, "h.g6", g),
         "--mode", "wellcovered"],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=10,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {
        "is_well_covered": False, "alpha": 21, "witness": [[0], [1, *range(101, 141, 2)]],
    }


def test_check_out_writes_file_not_stdout(tmp_path, capsys):
    path = write_graph(tmp_path, "c4.g6", Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    for fmt in ("json", "text"):
        code, expected, _ = run(capsys, "check", path, "--mode", "wellcovered", "--format", fmt)
        assert code == 0
        out_path = tmp_path / f"result.{fmt}"
        code, out, _ = run(
            capsys, "check", path, "--mode", "wellcovered", "--format", fmt,
            "--out", str(out_path),
        )
        assert code == 0
        assert out == ""
        assert out_path.read_text() == expected


def test_mcap_only_on_realize(tmp_path, capsys):
    path = write_graph(tmp_path, "k3.g6", complete(3))
    code, err = run_usage_error(capsys, "check", path, "--mode", "indpoly", "--mcap", "5")
    assert code == 4
    assert "--mcap" in err
    code, err = run_usage_error(
        capsys, "construct", "-k", "1", "-q", "3", "-m", "2", "--mcap", "5"
    )
    assert code == 4
    assert "--mcap" in err
    code, _, err = run(capsys, "realize", "-q", "3", "--pi", "3,2", "--mcap", "10")
    assert code == 2
    assert "cap 10" in err


def test_check_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.g6"
    path.write_bytes(b"\x01\x02garbage-with-invalid-length\n")
    code, _, err = run(capsys, "check", str(path), "--mode", "indpoly")
    assert code == 3

    missing = tmp_path / "nope.g6"
    code, _, err = run(capsys, "check", str(missing), "--mode", "indpoly")
    assert code == 3

    blank = tmp_path / "blank.g6"
    blank.write_bytes(b"\n  \n\n")
    code, out, err = run(capsys, "check", str(blank), "--mode", "indpoly")
    assert code == 3
    assert out == ""
    assert f"no graph6 line found in {blank}" in err


@pytest.mark.parametrize("data", [
    b"Dhc\r\nA_\r\n",  # CRLF
    b"\rDhc\rA_",  # bare CR
    b"\n  \n\t\r\nDhc\nA_\n",  # blank lines first
    b"\x0b\nDhc\n",  # a line of \x0b alone is blank
    b"\x0c\x0bDhc \nA_",  # whitespace around the line is stripped
    b"  >>graph6<<Dhc\r\n",
    b"\n\nDh\x0bc\nA_\n",  # bytes.splitlines does not cut at \x0b
    b"A_\x1cDhc\n",  # nor at \x1c
])
def test_read_graph_takes_the_first_line_that_is_not_blank(tmp_path, data):
    path = tmp_path / "g.g6"
    path.write_bytes(data)
    # the line choice of reading every line with bytes.splitlines
    line = next(line for line in data.splitlines() if line.strip())
    try:
        expected = from_graph6(line)
    except ValueError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            wellcovered.cli._read_graph(str(path), split=False)
    else:
        assert wellcovered.cli._read_graph(str(path), split=False) == expected


# -- realize ---------------------------------------------------------------------


def test_realize_q3_swap(capsys):
    code, out, _ = run(capsys, "realize", "-q", "3", "--pi", "3,2")
    assert code == 0
    data = json.loads(out)
    assert data["ordering_verified"] is True
    assert data["ordering"] == [3, 2]
    assert data["plan"]["components"][0]["copies"] == str(3 * 58**2)
    assert data["materialized"] is False


def test_realize_mcap_probes_the_cap(capsys):
    # the default run certifies at m = 58; any cap >= 58 must find it,
    # including caps the doubling steps jump over
    for cap in ("58", "99"):
        code, out, _ = run(capsys, "realize", "-q", "3", "--pi", "3,2", "--mcap", cap)
        assert code == 0, cap
        assert json.loads(out)["plan"]["components"][0]["m"] == 58
    code, _, err = run(capsys, "realize", "-q", "3", "--pi", "3,2", "--mcap", "57")
    assert code == 2
    assert "cap 57" in err


def test_realize_builds_one_plan(capsys, probes):
    # every m <= 57 is proven to fail, so the search starts at m = 58,
    # where its one probe certifies
    code, out, _ = run(capsys, "realize", "-q", "3", "--pi", "3,2")
    assert code == 0
    assert probes == [58]


def test_realize_checks_the_chain_once(capsys, monkeypatch):
    # the target checks its chain when it is built, and nothing after
    # reads the chain again; every module's binding of the check is spied
    calls = []
    real = wellcovered.certificate.check_ratio_chain

    def spy(q, a):
        calls.append(q)
        return real(q, a)

    for name, module in list(sys.modules.items()):
        if name.startswith("wellcovered") and hasattr(module, "check_ratio_chain"):
            monkeypatch.setattr(module, "check_ratio_chain", spy)
    code, _, _ = run(capsys, "realize", "-q", "3", "--pi", "3,2")
    assert code == 0
    assert calls == [3]


# each case breaks one internal invariant of the realize path from outside
# and names the message its check raises
BROKEN_INVARIANTS = {
    "integer copies": (
        "import wellcovered.certificate as c\n"
        "c.lcm = lambda *denominators: 1\n",
        "is not an integer",
    ),
    "target chain": (
        "import wellcovered.certificate as c\n"
        "from wellcovered.enumeration import ChainCheck\n"
        "c.check_ratio_chain = lambda q, a: ChainCheck(False, 2)\n",
        "chain violated at index 2",
    ),
}


@pytest.mark.parametrize("case", sorted(BROKEN_INVARIANTS))
def test_realize_invariants_hold_under_optimize(case):
    # python -O strips assert statements; these checks must still exit 1
    patch, message = BROKEN_INVARIANTS[case]
    script = patch + (
        "import sys\n"
        "from wellcovered.cli import main\n"
        "sys.exit(main(['realize', '-q', '3', '--pi', '3,2']))\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert result.returncode == 1, result.stderr
    assert result.stdout == ""
    assert "internal invariant failure" in result.stderr
    assert message in result.stderr


def test_realize_ordering_not_verified_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(
        wellcovered.tailorder.TailPermutation, "misordered", lambda self, count: (3, 2)
    )
    code, out, err = run(capsys, "realize", "-q", "3", "--pi", "3,2")
    assert code == 1
    assert json.loads(out)["ordering_verified"] is False
    assert "internal failure: ordering not verified on exact counts" in err


def test_realize_q4_symbolic(capsys):
    code, out, _ = run(capsys, "realize", "-q", "4", "--pi", "4,2,3")
    assert code == 0
    data = json.loads(out)
    assert data["ordering_verified"] is True and data["materialized"] is False


def test_realize_q2_with_graph_output(tmp_path, capsys, monkeypatch):
    # the certificate is encoded once, from its plan: no graph is formed
    # and to_graph6 is not called
    calls = []
    real = wellcovered.tailorder.plan_graph6

    def spy(plan, **kwargs):
        calls.append(plan.vertex_total())
        return real(plan, **kwargs)

    def refused(g, *args, **kwargs):
        calls.append("graph formed or encoded")

    monkeypatch.setattr(wellcovered.tailorder, "plan_graph6", spy)
    for module, name in ((wellcovered.cli, "to_graph6"), (wellcovered.tailorder, "to_graph6"),
                         (wellcovered.tailorder, "materialize"), (wellcovered.certificate, "join")):
        monkeypatch.setattr(module, name, refused)
    out_path = tmp_path / "g.g6"
    code, out, _ = run(
        capsys, "realize", "-q", "2", "--pi", "2,1", "--out", str(out_path)
    )
    assert code == 0
    assert calls == [1066]
    monkeypatch.undo()
    data = json.loads(out)
    assert data["materialized"] is True
    assert out_path.read_bytes() == data["graph6"].encode("ascii") + b"\n"
    plan = realize(TailPermutation.from_image_list(2, (2, 1))).plan
    assert data["graph6"] == to_graph6(materialize(plan)).decode("ascii")


def test_realize_out_over_budget_is_refused(tmp_path, capsys):
    # the q=3 swap certifies at m = 58 with 1840050 vertices, over the
    # default budget
    out_path = tmp_path / "g.g6"
    code, out, err = run(capsys, "realize", "-q", "3", "--pi", "3,2", "--out", str(out_path))
    assert code == 2
    assert out == ""
    assert "1840050" in err and "200000" in err
    assert not out_path.exists()


def test_realize_out_write_failure_prints_nothing(tmp_path, capsys):
    # the file is written before the report, so a failed write leaves
    # stdout empty
    out_path = tmp_path / "missing-dir" / "c.g6"
    code, out, err = run(capsys, "realize", "-q", "2", "--pi", "2,1", "--out", str(out_path))
    assert code == 3
    assert out == ""
    assert "missing-dir" in err
    assert not out_path.exists()


def test_realize_counts_past_int_str_digit_limit(capsys):
    # the q=12 plan has integers of about 4750 digits, past Python's
    # default int-to-str limit
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, "realize", "-q", "12", "--pi", "6,7,8,9,10,11,12")
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    data = json.loads(out)
    assert data["ordering_verified"] is True
    counts = [Decimal(c) for c in data["counts"]]
    assert max(len(c) for c in data["counts"]) > limit
    assert all(a < b for a, b in zip(counts, counts[1:]))


def realize_pin_cases():
    """Every tail permutation for q = 1..6 (41 of them), then identity,
    reversal and a rotation by one for each q = 7..13."""
    cases = [(q, p) for q in range(1, 7) for p in permutations(tail_indices(q))]
    for q in range(7, 14):
        s = tuple(tail_indices(q))
        cases += [(q, s), (q, s[::-1]), (q, s[1:] + s[:1])]
    return cases


# sha256 of the concatenated stdout of every case, in order, json then text
REALIZE_STDOUT_SHA256 = "51604c9e4050bcdcb59cc939ca398e5df7f062d5be083e7fcbc4bf3ab513d546"


def test_realize_stdout_pinned(capsys):
    # the q = 2 cases embed the materialized certificate as graph6
    digest = hashlib.sha256()
    cases = realize_pin_cases()
    assert len(cases) == 41 + 3 * 7
    for q, images in cases:
        for fmt in ("json", "text"):
            pi = ",".join(map(str, images))
            code, out, _ = run(capsys, "realize", "-q", str(q), "--pi", pi, "--format", fmt)
            assert code == 0, (q, images, fmt)
            digest.update(out.encode("ascii"))
    assert digest.hexdigest() == REALIZE_STDOUT_SHA256


def check_pin_graphs():
    """12 seeded random graphs on at most 11 vertices, the (1,3,2), (2,4,2)
    and (0,3,2) function graphs and their complements, and the complement
    of (1,3,14); each with its (k, q, m) when it is a function graph."""
    rng = Random(19)
    cases = [
        (random_graph(rng, rng.randint(1, 11), rng.choice((0.3, 0.5, 0.7))), None)
        for _ in range(12)
    ]
    for kqm in ((1, 3, 2), (2, 4, 2), (0, 3, 2)):
        g = build_function_graph(*kqm)
        cases += [(g, kqm), (complement(g), None)]
    cases.append((complement(build_function_graph(1, 3, 14)), None))
    return cases


# sha256 of the concatenated stdout of every check, in order, json then
# text, followed by the label sidecar of each construct
CHECK_STDOUT_SHA256 = "9e02ab5290d3485a94f46c5d127a70547ee4b9272cbc9bc9663a181e9b7e9fec"


def test_check_stdout_pinned(tmp_path, capsys):
    digest = hashlib.sha256()
    refused = 0
    for index, (g, kqm) in enumerate(check_pin_graphs()):
        path = write_graph(tmp_path, f"{index}.g6", g)
        modes = [["--mode", mode] for mode in ("wellcovered", "indpoly", "mt")]
        if kqm:
            k, q, m = map(str, kqm)
            modes.append(["--mode", "property-p", "-k", k, "-q", q, "-m", m])
        for mode in modes:
            for fmt in ("json", "text"):
                code, out, _ = run(capsys, "check", path, *mode, "--format", fmt)
                # mt refuses a graph that is not well-covered, printing nothing
                assert code in (0, 3), (index, mode, fmt)
                refused += code == 3
                digest.update(out.encode("ascii"))
    assert refused
    for k, q, m in ((0, 3, 2), (1, 3, 2), (2, 4, 2), (1, 4, 3), (3, 5, 2)):
        labels = tmp_path / f"labels-{k}-{q}-{m}.json"
        code, _, _ = run(capsys, "construct", "-k", str(k), "-q", str(q), "-m", str(m),
                         "--labels", str(labels))
        assert code == 0, (k, q, m)
        digest.update(labels.read_bytes())
    assert digest.hexdigest() == CHECK_STDOUT_SHA256


def test_realize_pi_json_map(capsys):
    # every spelling of the swap on {2, 3} prints what --pi 3,2 prints
    _, expected, _ = run(capsys, "realize", "-q", "3", "--pi", "3,2")
    assert json.loads(expected)["ordering"] == [3, 2]
    for pi in (" 3 , 2 ", "[3,2]", '["3","2"]', '{"2":3,"3":2}', '{"3":2,"2":3}'):
        code, out, _ = run(capsys, "realize", "-q", "3", "--pi", pi)
        assert code == 0, pi
        assert out == expected, pi


def test_realize_invalid_pi(capsys):
    code, err = run_usage_error(capsys, "realize", "-q", "3", "--pi", "2,2")
    assert code == 4
    assert "bijection" in err
    # ranks are integers: JSON floats and booleans are refused, not truncated
    for pi in ("[1.5, 2]", "[true, 2]", '{"1": 2.9, "2": 1}', "1.0,2"):
        code, err = run_usage_error(capsys, "realize", "-q", "2", "--pi", pi)
        assert code == 4, pi
        assert "wellcovered realize: error: invalid --pi: " in err, pi
    for pi in ("3,2,", '{"2":3}', '{"2":3,"02":2,"3":2}', '{"2":3,"2":2,"3":2}'):
        code, err = run_usage_error(capsys, "realize", "-q", "3", "--pi", pi)
        assert code == 4, pi
        assert "wellcovered realize: error: invalid --pi: " in err, pi
    assert "map keys [2, 2, 3] are not the tail set [2, 3]" in err  # the repeat shows


def test_realize_deeply_nested_pi(capsys):
    # the JSON decoder recurses once per level of nesting, so 5,000 levels
    # can pass the recursion limit; deep or not, the error stays short
    deep = "[" * 5000 + "]" * 5000
    for pi in (deep, '{"1": ' + deep + "}", "[" * 500 + "]" * 500):
        code, err = run_usage_error(capsys, "realize", "-q", "1", "--pi", pi)
        assert code == 4, pi[:10]
        assert "wellcovered realize: error: invalid --pi: " in err
        assert len(err.encode()) < 1000


def test_realize_wrong_image_count_at_huge_q(capsys):
    # the count is checked before the tail set is built or printed
    q = 10**14
    for pi in ("1", '{"1": 1}'):
        code, err = run_usage_error(capsys, "realize", "-q", str(q), "--pi", pi)
        assert code == 4, pi
        assert len(err.encode()) < 1000, pi
        assert (
            f"invalid --pi: expected {q // 2 + 1} images for the tail set "
            f"{{{q // 2}, ..., {q}}}, got 1"
        ) in err, pi


def test_realize_bad_q_is_a_q_error(capsys):
    code, err = run_usage_error(capsys, "realize", "-q", "0", "--pi", "1")
    assert code == 4
    assert "wellcovered realize: error: -q must be at least 1" in err


def test_usage_errors(capsys):
    code, _ = run_usage_error(capsys, "realize", "-q", "3")  # missing --pi
    assert code == 4
    code, _ = run_usage_error(capsys, "frobnicate")
    assert code == 4
    code, _ = run_usage_error(capsys, "construct", "-k", "1", "-q", "3", "-m", "2", "--budget", "-5")
    assert code == 4
    code, _ = run_usage_error(capsys, "realize", "-q", "3", "--pi", "3,2", "--mcap", "0")
    assert code == 4
    code, _ = run_usage_error(capsys, "realize", "-q", "3", "--pi", "3,2", "--seed", "1")
    assert code == 4
    # construct always writes graph6: only check and realize take --format
    code, err = run_usage_error(
        capsys, "construct", "-k", "1", "-q", "3", "-m", "2", "--format", "text"
    )
    assert code == 4
    assert "--format" in err


@pytest.mark.parametrize(
    "argv, command",
    [
        (["check", "{path}", "--mode", "property-p"], "check"),
        (["check", "{path}", "--mode", "indpoly", "--budget", "0"], "check"),
        (["construct", "-k", "1", "-q", "3", "-m", "2", "--budget", "-5"], "construct"),
        (["realize", "-q", "3", "--pi", "2,2"], "realize"),
        (["realize", "-q", "3", "--pi", "3,2", "--mcap", "0"], "realize"),
        # argparse's own "unrecognized arguments" errors
        (["construct", "-k", "1", "-q", "3", "-m", "2", "--format", "text"], "construct"),
        (["check", "{path}", "--mode", "indpoly", "--mcap", "5"], "check"),
        # (k, q, m) outside the function-graph domain
        (["construct", "-k", "1", "-q", "0", "-m", "2"], "construct"),
        (["construct", "-k", "3", "-q", "2", "-m", "2"], "construct"),
        (["construct", "-k", "0", "-q", "2", "-m", "0"], "construct"),
        (["check", "{path}", "--mode", "property-p", "-k", "2", "-q", "2", "-m", "1"], "check"),
        # -k/-q/-m belong to property-p alone
        (["check", "{path}", "--mode", "indpoly", "-k", "7", "-q", "1", "-m", "0"], "check"),
        (["check", "{path}", "--mode", "mt", "-k", "1"], "check"),
        (["check", "{path}", "--mode", "wellcovered", "-m", "2"], "check"),
    ],
    ids=[
        "property-p-params",
        "check-budget",
        "construct-budget",
        "realize-pi",
        "realize-mcap",
        "construct-format",
        "check-mcap",
        "construct-q",
        "construct-k",
        "construct-m",
        "property-p-k",
        "indpoly-params",
        "mt-k",
        "wellcovered-m",
    ],
)
def test_usage_errors_after_parsing_print_subcommand_usage(tmp_path, capsys, argv, command):
    path = write_graph(tmp_path, "k3.g6", complete(3))
    code, err = run_usage_error(capsys, *(a.format(path=path) for a in argv))
    assert code == 4
    assert err.splitlines()[0].startswith(f"usage: wellcovered {command} ")
    assert f"wellcovered {command}: error: " in err


def test_out_of_range_params_touch_no_file(tmp_path, capsys):
    # refused before the input is read or any output is written
    out, labels = tmp_path / "f.g6", tmp_path / "f.json"
    code, err = run_usage_error(
        capsys, "construct", "-k", "3", "-q", "2", "-m", "2",
        "--out", str(out), "--labels", str(labels),
    )
    assert code == 4 and "need 0 <= k < q, got k=3, q=2" in err
    assert not out.exists() and not labels.exists()
    code, err = run_usage_error(
        capsys, "check", str(tmp_path / "missing.g6"), "--mode", "property-p",
        "-k", "0", "-q", "2", "-m", "0",
    )
    assert code == 4 and "need m >= 1, got m=0" in err


def test_parser_built_once_per_process(tmp_path, capsys, monkeypatch):
    parsers = []
    real = wellcovered.cli._Parser.parse_known_args

    def spy(self, *args, **kwargs):
        if self.prog == "wellcovered":  # not the subcommand parsers it calls
            parsers.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(wellcovered.cli._Parser, "parse_known_args", spy)
    path = write_graph(tmp_path, "k3.g6", complete(3))
    code, out, _ = run(capsys, "check", path, "--mode", "indpoly")
    assert code == 0 and json.loads(out) == ["1", "3"]
    # a usage error on the reused parser still exits 4 with its message
    code, err = run_usage_error(capsys, "check", path, "--mode", "property-p")
    assert code == 4
    assert "--mode property-p requires -k, -q and -m" in err
    assert len(parsers) == 2 and parsers[0] is parsers[1]


def test_text_format(capsys):
    code, out, _ = run(capsys, "realize", "-q", "3", "--pi", "3,2", "--format", "text")
    assert code == 0
    assert "ordering_verified: True" in out
    assert "epsilon: 1/3" in out
