import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import wellcovered.certificate
import wellcovered.cli
import wellcovered.tailorder
from wellcovered import (
    Graph,
    build_function_graph,
    complete,
    from_graph6,
    to_graph6,
)
from wellcovered.cli import main

from bruteforce import kneser


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


def test_realize_builds_one_plan(capsys, monkeypatch):
    # the search probes m = 25, 50, 100, 75, ..., 58 without building a plan
    built = []
    real = wellcovered.certificate.plan_at_m

    def spy(target, m, eps):
        built.append(m)
        return real(target, m, eps)

    monkeypatch.setattr(wellcovered.certificate, "plan_at_m", spy)
    code, out, _ = run(capsys, "realize", "-q", "3", "--pi", "3,2")
    assert code == 0
    assert built == [58]


def test_realize_decomposes_once(capsys, monkeypatch):
    # build_plan hands its b-decomposition to plan_at_m instead of both
    # deriving it from the target
    calls = []
    real = wellcovered.certificate.b_decomposition

    def spy(target):
        calls.append(target.q)
        return real(target)

    monkeypatch.setattr(wellcovered.certificate, "b_decomposition", spy)
    code, _, _ = run(capsys, "realize", "-q", "3", "--pi", "3,2")
    assert code == 0
    assert calls == [3]


def test_realize_uncertified_plan_is_internal_failure(capsys, monkeypatch):
    real = wellcovered.certificate.plan_at_m
    monkeypatch.setattr(
        wellcovered.certificate, "plan_at_m", lambda target, m, eps: real(target, 1, eps)
    )
    code, out, err = run(capsys, "realize", "-q", "3", "--pi", "3,2")
    assert code == 1
    assert out == ""
    assert "internal invariant failure" in err


# each case breaks one internal invariant of the realize path from outside
# and names the message its check raises
BROKEN_INVARIANTS = {
    "final plan": (
        "import wellcovered.certificate as c\n"
        "real = c.plan_at_m\n"
        "c.plan_at_m = lambda target, m, eps: real(target, 1, eps)\n",
        "do not beat epsilon",
    ),
    "integer copies": (
        "import wellcovered.certificate as c\n"
        "c.lcm = lambda *denominators: 1\n",
        "is not an integer",
    ),
    "target chain": (
        "import wellcovered.tailorder as t\n"
        "from wellcovered.enumeration import ChainCheck\n"
        "t.check_binomial_chain = lambda target: ChainCheck(False, 2)\n",
        "violates the chain at 2",
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


def test_realize_q4_symbolic(capsys):
    code, out, _ = run(capsys, "realize", "-q", "4", "--pi", "4,2,3")
    assert code == 0
    data = json.loads(out)
    assert data["ordering_verified"] is True and data["materialized"] is False


def test_realize_q2_with_graph_output(tmp_path, capsys, monkeypatch):
    calls = []

    def spy(g):
        calls.append(g.n)
        return to_graph6(g)

    monkeypatch.setattr(wellcovered.cli, "to_graph6", spy)
    monkeypatch.setattr(wellcovered.tailorder, "to_graph6", spy)
    out_path = tmp_path / "g.g6"
    code, out, _ = run(
        capsys, "realize", "-q", "2", "--pi", "2,1", "--out", str(out_path)
    )
    assert code == 0
    assert calls == [1066]  # the certificate is encoded once
    data = json.loads(out)
    assert data["materialized"] is True
    assert out_path.read_bytes() == data["graph6"].encode("ascii") + b"\n"
    g = from_graph6(out_path.read_bytes())
    assert g.n == 1066
    assert data["graph6"] == to_graph6(g).decode("ascii")


def test_realize_out_over_budget_is_refused(tmp_path, capsys):
    # the q=3 swap certifies at m = 58 with 1840050 vertices, over the
    # default budget
    out_path = tmp_path / "g.g6"
    code, out, err = run(capsys, "realize", "-q", "3", "--pi", "3,2", "--out", str(out_path))
    assert code == 2
    assert out == ""
    assert "1840050" in err and "200000" in err
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


def test_realize_pi_json_map(capsys):
    code, out, _ = run(capsys, "realize", "-q", "3", "--pi", '{"2":3,"3":2}')
    assert code == 0
    assert json.loads(out)["ordering"] == [3, 2]


def test_realize_invalid_pi(capsys):
    code, err = run_usage_error(capsys, "realize", "-q", "3", "--pi", "2,2")
    assert code == 4
    assert "bijection" in err


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
    ],
    ids=["property-p-params", "check-budget", "construct-budget", "realize-pi", "realize-mcap"],
)
def test_usage_errors_after_parsing_print_subcommand_usage(tmp_path, capsys, argv, command):
    path = write_graph(tmp_path, "k3.g6", complete(3))
    code, err = run_usage_error(capsys, *(a.format(path=path) for a in argv))
    assert code == 4
    assert err.splitlines()[0].startswith(f"usage: wellcovered {command} ")
    assert f"wellcovered {command}: error: " in err


def test_parser_built_once_per_process(tmp_path, capsys, monkeypatch):
    parsers = []
    real = wellcovered.cli._Parser.parse_args

    def spy(self, *args, **kwargs):
        parsers.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(wellcovered.cli._Parser, "parse_args", spy)
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
