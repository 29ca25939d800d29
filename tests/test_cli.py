import argparse
import hashlib
import json
import os
import pickle
import re
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st
from list_routes import payload, report_to_json_obj
from test_mutations import STACKY_SOURCE_MUTANTS, mutant_of

from twoquadrics import cli, exactpoly, fano_even, fano_odd, motivic, stacky
from twoquadrics.exactpoly import (
    BiPoly,
    ConsistencyError,
    InexactDivisionError,
    LaurentPoly,
    UsageError,
)
from twoquadrics.fano_even import EvenFanoParams, euler_closed_form, fano_even_diamond
from twoquadrics.motivic import (
    VERIFIED,
    MotivicExpression,
    VerificationReport,
    verify_decomposition,
)
from twoquadrics.stacky import stacky_collection_length

G4K1_TEXT_ROWS = [
    [1],
    [0, 0],
    [0, 1, 0],
    [0, 0, 0, 0],
    [0, 0, 2, 0, 0],
    [0, 0, 4, 4, 0, 0],
    [0, 0, 0, 2, 0, 0, 0],
    [0, 0, 0, 4, 4, 0, 0, 0],
    [0, 0, 0, 0, 3, 0, 0, 0, 0],
    [0, 0, 0, 0, 4, 4, 0, 0, 0, 0],
    [0, 0, 0, 0, 6, 18, 6, 0, 0, 0, 0],
    [0, 0, 0, 0, 4, 4, 0, 0, 0, 0],
    [0, 0, 0, 0, 3, 0, 0, 0, 0],
    [0, 0, 0, 4, 4, 0, 0, 0],
    [0, 0, 0, 2, 0, 0, 0],
    [0, 0, 4, 4, 0, 0],
    [0, 0, 2, 0, 0],
    [0, 0, 0, 0],
    [0, 1, 0],
    [0, 0],
    [1],
]


def run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


SRC = str(Path(cli.__file__).resolve().parents[1])


def run_python(code):
    """Run `code` in a fresh interpreter that imports the package from
    this checkout; return its stdout."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def report_sort_key(report):
    """The former sort key of the collected sweep reports."""
    return (report.identity, report.params)


def collected_sweep_tasks(max_g, max_g_even, max_m, max_a, max_n):
    """The former sweep task list, in generation order, as (check target,
    parameters) pairs."""
    tasks = []
    for g in range(2, max_g + 1):
        tasks.append(("k0", (g,)))
        tasks.append(("bgmn", (g,)))
        for k in range(g - 1):
            tasks.append(("odd", (g, k)))
            tasks.append(("hochschild", (g, k)))
    for g in range(2, max_g_even + 1):
        for k in range(g - 1):
            tasks.append(("even", (g, k)))
    tasks.append(("gessel", (max_m, max_a)))
    tasks.append(("chu-vandermonde", (max_n,)))
    return tasks


def collected_sweep_output(ranges, fmt):
    """Oracle: the former sweep output, built from every report collected,
    sorted and then serialized as one document with every time 0."""
    reports = [cli.run_sweep_task(t)[0] for t in collected_sweep_tasks(*ranges)]
    reports.sort(key=report_sort_key)
    failed = sum(not r.verified for r in reports)
    if fmt == "json":
        return cli.canonical_json({
            "reports": [report_to_json_obj(r, 0) for r in reports],
            "summary": {"failed": failed, "total": len(reports), "verified": len(reports) - failed},
        })
    lines = [cli.report_to_text(r, 0) for r in reports]
    lines.append(f"verified {len(reports) - failed}/{len(reports)}")
    return "\n".join(lines) + "\n"


# integers of either sign, small and past 2^64
big_ints = st.integers(-5, 5) | st.integers(2**64, 2**200) | st.integers(-2**200, -2**64)
# text that holds quotes, backslashes and the keys the splice looks for
tricky_text = st.text() | st.lists(
    st.sampled_from(['"lhs":null', '"rhs":null', '"', "\\", "lhs", "rhs", ":", "null", "é"])
).map("".join)
laurent_sides = st.dictionaries(st.integers(-30, 30), big_ints, max_size=8).map(LaurentPoly)
sides = st.one_of(
    st.none(),
    big_ints,
    laurent_sides,
    st.dictionaries(
        st.tuples(st.integers(-9, 9), st.integers(-9, 9)), big_ints, max_size=8
    ).map(BiPoly),
    st.lists(st.tuples(st.integers(0, 12), laurent_sides), max_size=4).map(tuple),
)
observation_values = st.none() | big_ints | tricky_text | st.lists(st.integers(-3, 3))


@st.composite
def reports(draw):
    """Random (report, elapsed_ms) pairs, the time drawn on its own: rhs
    either is lhs or is drawn on its own, and the observations may hold
    "lhs"/"rhs" keys set to None."""
    lhs = draw(sides)
    rhs = lhs if draw(st.booleans()) else draw(sides)
    observations = draw(st.dictionaries(
        tricky_text | st.sampled_from(["lhs", "rhs"]), observation_values, max_size=4
    ))
    report = VerificationReport(
        identity=draw(tricky_text),
        params=draw(st.dictionaries(st.text(max_size=3), big_ints, max_size=3)),
        status=draw(st.sampled_from(["verified", "failed", "error"]) | tricky_text),
        lhs=lhs,
        rhs=rhs,
        effectivity=tuple(draw(st.lists(st.tuples(st.integers(0, 9), st.booleans())))),
        observations=observations,
    )
    return report, draw(st.integers(0, 10**6))


def zero_elapsed(out):
    out = re.sub(r'"elapsed_ms":\d+', '"elapsed_ms":0', out)
    return re.sub(r"\(\d+ ms\)", "(0 ms)", out)


class TestDiamondCommand:
    def test_sym_text(self, capsys):
        code, out = run(capsys, ["diamond", "sym", "--g", "4", "--n", "2"])
        assert code == 0
        rows = [line.split() for line in out.strip().splitlines()]
        assert rows == [["1"], ["4", "4"], ["6", "17", "6"], ["4", "4"], ["1"]]

    def test_fano_odd_text_matches_reference_diamond(self, capsys):
        code, out = run(capsys, ["diamond", "fano-odd", "--g", "4", "--k", "1"])
        assert code == 0
        rows = [[int(v) for v in line.split()] for line in out.strip().splitlines()]
        assert rows == G4K1_TEXT_ROWS

    def test_fano_even_json(self, capsys):
        code, out = run(
            capsys, ["diamond", "fano-even", "--g", "2", "--k", "0", "--format", "json"]
        )
        assert code == 0
        obj = json.loads(out)
        assert obj == {"dimension": 2, "hodge": [[1, 0, 0], [0, 6, 0], [0, 0, 1]]}

    def test_jac_json(self, capsys):
        code, out = run(capsys, ["diamond", "jac", "--g", "1", "--format", "json"])
        assert code == 0
        assert json.loads(out) == {"dimension": 1, "hodge": [[1, 1], [1, 1]]}

    def test_missing_flag_is_usage_error(self, capsys):
        assert cli.main(["diamond", "sym", "--g", "4"]) == 2

    def test_extra_flag_is_usage_error(self, capsys):
        assert cli.main(["diamond", "jac", "--g", "2", "--k", "1"]) == 2


class TestVerifyCommand:
    def test_odd_json(self, capsys):
        code, out = run(
            capsys, ["verify", "odd", "--g", "4", "--k", "1", "--format", "json"]
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["status"] == "verified"
        assert obj["identity"] == "hyperelliptic-decomposition"
        assert obj["params"] == {"g": 4, "k": 1}
        assert obj["lhs"] == obj["rhs"]
        assert [entry[0] for entry in obj["effectivity"]] == [0, 1, 2]

    def test_failed_odd_report_carries_both_sides(self, capsys, plant_kernel):
        # u^0 + u^6 in the j = 3 kernel of (g, k) = (3, 1): one more
        # wedge^0 H^1(-0) and its Serre dual on the Fano side only
        plant_kernel(3, {0: 1, 6: 1})
        code, out = run(capsys, ["verify", "odd", "--g", "3", "--k", "1", "--format", "json"])
        assert code == 1
        obj = json.loads(out)
        assert obj["status"] == "failed"
        assert obj["rhs"] == payload(MotivicExpression.decomposition(3, 1).e_polynomial())
        assert obj["lhs"] != obj["rhs"]

    def test_json_round_trip_is_byte_identical(self, capsys):
        _, out = run(
            capsys, ["verify", "odd", "--g", "3", "--k", "1", "--format", "json"]
        )
        assert cli.canonical_json(json.loads(out)) == out

    @pytest.mark.parametrize("g,k", [(g, k) for g in range(2, 17) for k in range(g - 1)])
    def test_spliced_shared_side_is_the_canonical_dump(self, g, k):
        # rhs is lhs only when the two sides' block vectors compare equal,
        # container types included
        report = verify_decomposition(g, k)
        assert report.verified and report.rhs is report.lhs
        assert cli.report_json(report, 0) == cli.canonical_json(report_to_json_obj(report, 0))

    def test_failed_report_is_the_canonical_dump(self, plant_kernel):
        plant_kernel(3, {0: 1, 6: 1})
        report = verify_decomposition(3, 1)
        assert report.status == "failed" and report.rhs is not report.lhs
        assert cli.report_json(report, 0) == cli.canonical_json(report_to_json_obj(report, 0))

    @given(reports())
    def test_report_json_is_the_canonical_dump(self, timed):
        assert cli.report_json(*timed) == cli.canonical_json(report_to_json_obj(*timed))

    @given(reports())
    def test_report_object_is_the_oracle_object(self, timed):
        expected = cli.canonical_json(report_to_json_obj(*timed))
        assert cli.canonical_json(cli.report_to_json_obj(*timed)) == expected

    @staticmethod
    def sorted_side_json(value):
        """Reference text of a side that sorts its terms itself, so an
        ordering bug shared by report_json and the payload oracle shows."""
        if isinstance(value, LaurentPoly):
            terms = [f'[{e},"{c}"]' for e, c in sorted(value._coeffs.items())]
        elif isinstance(value, BiPoly):
            terms = [f'[{p},{q},"{c}"]' for (p, q), c in sorted(value._coeffs.items())]
        elif isinstance(value, tuple):
            terms = [f"[{i},{TestVerifyCommand.sorted_side_json(p)}]" for i, p in value]
        else:
            return json.dumps(value if value is None else str(value))
        return "[" + ",".join(terms) + "]"

    @given(sides)
    def test_side_json_lists_terms_in_sorted_order(self, side):
        assert cli._side_json(side) == self.sorted_side_json(side)
        assert cli.canonical_json(payload(side)) == self.sorted_side_json(side) + "\n"

    def test_side_with_an_observation_keyed_rhs(self):
        side = LaurentPoly({-2: -(2**70), 3: 1})
        report = VerificationReport(
            identity='a "lhs":null b', params={"g": 2}, status='"rhs":null', lhs=side, rhs=side,
            observations={"rhs": None, "lhs": None},
        )
        assert cli.report_json(report, 0) == cli.canonical_json(report_to_json_obj(report, 0))

    def test_bgmn_past_the_recursion_limit(self, capsys):
        # the Gaussian binomials of g = 600 reach m = 599, too deep for a
        # Pascal fill that recursed once per m under the default limit
        code, out = run(capsys, ["verify", "bgmn", "--g", "600", "--format", "json"])
        assert code == 0
        assert json.loads(out)["status"] == "verified"

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "even", "--g", "3", "--k", "1"],
            ["verify", "k0", "--g", "4"],
            ["verify", "bgmn", "--g", "5"],
            ["verify", "hochschild", "--g", "3", "--k", "0"],
        ],
    )
    def test_targets_pass(self, capsys, argv):
        code, out = run(capsys, argv)
        assert code == 0
        assert out.startswith("PASS")

    def test_even_matches_dense_diamond_route(self, capsys):
        code, out = run(
            capsys, ["verify", "even", "--g", "30", "--k", "14", "--format", "json"]
        )
        assert code == 0
        body = json.loads(out)
        del body["elapsed_ms"]
        euler = fano_even_diamond(EvenFanoParams(30, 14)).euler()
        dense = report_to_json_obj(
            VerificationReport(
                identity="stacky-counts",
                params={"g": 30, "k": 14},
                status=VERIFIED,
                lhs=euler,
                rhs=euler_closed_form(30, 14),
                observations={"collection_length": str(stacky_collection_length(30, 14))},
            ),
            0,
        )
        del dense["elapsed_ms"]
        assert body == dense

    def test_even_small_output_unchanged(self, capsys):
        code, out = run(capsys, ["verify", "even", "--g", "3", "--k", "1", "--format", "json"])
        assert code == 0
        body = json.loads(out)
        del body["elapsed_ms"]
        assert body == {
            "effectivity": [],
            "identity": "stacky-counts",
            "lhs": "48",
            "observations": {"collection_length": "48"},
            "params": {"g": 3, "k": 1},
            "rhs": "48",
            "status": "verified",
        }
        code, out = run(capsys, ["verify", "even", "--g", "3", "--k", "1"])
        assert code == 0
        assert out.startswith("PASS stacky-counts g=3 k=1 (")
        assert len(out.splitlines()) == 1

    def test_domain_error_is_usage_error(self, capsys):
        assert cli.main(["verify", "odd", "--g", "1", "--k", "0"]) == 2

    def test_k_rejected_for_k0_target(self, capsys):
        assert cli.main(["verify", "k0", "--g", "3", "--k", "1"]) == 2


class TestIdentityCommand:
    def test_gessel(self, capsys):
        code, out = run(
            capsys, ["identity", "gessel", "--max-m", "6", "--max-a", "6", "--format", "json"]
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["status"] == "verified"
        assert obj["observations"]["failures"] == []
        assert obj["observations"]["instances"] == 7 * 4

    def test_chu_vandermonde(self, capsys):
        code, out = run(capsys, ["identity", "chu-vandermonde", "--max-n", "8"])
        assert code == 0
        assert out.startswith("PASS")

    @pytest.mark.parametrize(
        "argv",
        [
            ["identity", "gessel", "--max-a", "-6"],
            ["identity", "gessel", "--max-m", "-1"],
            ["identity", "gessel", "--max-a", "5"],
            ["identity", "chu-vandermonde", "--max-n", "-5"],
        ],
    )
    def test_bad_range_is_usage_error(self, capsys, argv):
        code, out = run(capsys, argv)
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["identity", "chu-vandermonde", "--max-n", "3", "--max-a", "7"], "--max-a"),
            (["identity", "chu-vandermonde", "--max-m", "2"], "--max-m"),
            (["identity", "gessel", "--max-n", "3", "--max-m", "1", "--max-a", "2"], "--max-n"),
            (["identity", "gessel", "--max-m", "2", "--max-a", "2", "--max-n", "-1"], "--max-n"),
        ],
    )
    def test_flag_of_the_other_suite_is_usage_error(self, capsys, argv, flag):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        value = argv[argv.index(flag) + 1]
        assert captured.err.endswith(f"error: unrecognized arguments: {flag} {value}\n")

    @pytest.mark.parametrize(
        "argv,params",
        [
            (["identity", "gessel", "--max-m", "2"], {"max_a": 60, "max_m": 2}),
            (["identity", "gessel", "--max-a", "4"], {"max_a": 4, "max_m": 30}),
            (["identity", "chu-vandermonde"], {"max_n": 40}),
        ],
    )
    def test_missing_bound_takes_its_default(self, capsys, argv, params):
        code, out = run(capsys, [*argv, "--format", "json"])
        assert code == 0
        assert json.loads(out)["params"] == params


def subcommand_choices(command):
    """The choices of the positional target of a subcommand."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in sub.choices[command]._actions if a.dest in ("target", "name"))


# target -> the flags it requires; every other flag of its subcommand is refused
VERIFY_REQUIRED = {
    "odd": ("g", "k"), "even": ("g", "k"), "k0": ("g",), "bgmn": ("g",), "hochschild": ("g", "k"),
}
DIAMOND_REQUIRED = {
    "fano-odd": ("g", "k"), "fano-even": ("g", "k"), "sym": ("g", "n"), "jac": ("g",),
}
FLAG_VALUES = {"g": "3", "k": "1", "n": "2"}


def flag_cases():
    """(argv, message) for each required flag left out and each other flag
    of the subcommand given, for every verify and diamond target."""
    cases = []
    for command, required, flags in (
        ("verify", VERIFY_REQUIRED, ("g", "k")),
        ("diamond", DIAMOND_REQUIRED, ("g", "k", "n")),
    ):
        for target, names in required.items():
            for flag in flags:
                if flag in names:
                    given = [f for f in names if f != flag]
                    message = f"the following arguments are required: --{flag}"
                else:
                    given = [*names, flag]
                    message = f"unrecognized arguments: --{flag} {FLAG_VALUES[flag]}"
                argv = [command, target, *(x for f in given for x in (f"--{f}", FLAG_VALUES[f]))]
                cases.append(pytest.param(argv, message, id=" ".join(argv)))
    return cases


class TestChecksTable:
    def test_choices_are_the_table_keys(self):
        verify, identity = subcommand_choices("verify"), subcommand_choices("identity")
        assert sorted([*verify, *identity]) == sorted(cli.CHECKS)
        assert set(verify) == set(VERIFY_REQUIRED)
        assert set(identity) == {"gessel", "chu-vandermonde"}
        assert set(subcommand_choices("diamond")) == set(cli.DIAMONDS) == set(DIAMOND_REQUIRED)

    @pytest.mark.parametrize("argv,message", flag_cases())
    def test_flags_of_the_target(self, capsys, argv, message):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"twoquadrics: error: {message}\n"

    # check target -> (the cli function its check calls, and the identity
    # and params of its reports over the ranges of ERROR_ARGS)
    PLANTED = {
        "odd": ("verify_decomposition", "hyperelliptic-decomposition",
                [{"g": 2, "k": 0}, {"g": 3, "k": 0}, {"g": 3, "k": 1}]),
        "even": ("stacky_counts_report", "stacky-counts",
                 [{"g": 2, "k": 0}, {"g": 3, "k": 0}, {"g": 3, "k": 1}]),
        "k0": ("verify_k0_identity", "k0-identity", [{"g": 2}, {"g": 3}]),
        "bgmn": ("verify_bgmn_crosscheck", "bgmn-crosscheck", [{"g": 2}, {"g": 3}]),
        "hochschild": ("verify_hochschild", "hochschild-decomposition",
                       [{"g": 2, "k": 0}, {"g": 3, "k": 0}, {"g": 3, "k": 1}]),
        "gessel": ("gessel_suite_report", "gessel-identity", [{"max_a": 2, "max_m": 1}]),
        "chu-vandermonde": ("chu_vandermonde_suite_report", "chu-vandermonde", [{"max_n": 2}]),
    }
    ERROR_ARGS = [
        "sweep", "--max-g", "3", "--max-g-even", "3", "--max-m", "1", "--max-a", "2",
        "--max-n", "2", "--format", "json",
    ]

    def test_every_check_is_planted(self):
        assert set(self.PLANTED) == set(cli.CHECKS)

    @pytest.mark.parametrize("target", sorted(PLANTED))
    def test_planted_error_in_a_sweep(self, capsys, monkeypatch, target):
        attr, identity, params = self.PLANTED[target]

        def broken(*args):
            raise ConsistencyError("planted inconsistency")

        monkeypatch.setattr(cli, attr, broken)
        assert cli.main(self.ERROR_ARGS) == 3
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        errored = [r for r in doc["reports"] if r["status"] != "verified"]
        assert [(r["identity"], r["params"], r["status"], r["observations"]) for r in errored] == [
            (identity, p, "error", {"error": "planted inconsistency"}) for p in params
        ]
        assert doc["summary"] == {"failed": len(params), "total": 15, "verified": 15 - len(params)}
        assert captured.err == "".join(
            f"twoquadrics: internal error: {identity} "
            + " ".join(f"{k}={v}" for k, v in sorted(p.items()))
            + ": planted inconsistency\n"
            for p in params
        )

    def test_library_reports_carry_no_time(self):
        for report in (verify_decomposition(3, 1), stacky.gessel_suite_report(2, 2)):
            assert "elapsed_ms" not in report._FIELDS
            assert not hasattr(report, "elapsed_ms")

    @pytest.mark.parametrize(
        "name,args,build",
        [("odd", (3, 1), verify_decomposition), ("gessel", (2, 2), stacky.gessel_suite_report)],
    )
    def test_runner_returns_the_time_beside_the_builders_report(self, name, args, build):
        report, elapsed_ms = cli.run_check(name, args)
        assert type(elapsed_ms) is int and elapsed_ms >= 0
        assert report == build(*args)


def sub_parsers(parser):
    """name -> parser of each choice of the sub-parsers of `parser`."""
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def table_rows():
    """(command, target, flags) for every CHECKS and DIAMONDS row."""
    rows = [("diamond", target, names) for target, (names, _) in cli.DIAMONDS.items()]
    for target, check in cli.CHECKS.items():
        command = "verify" if target in subcommand_choices("verify") else "identity"
        rows.append((command, target, check.params))
    return rows


class TestParserFromTables:
    """Each target's sub-parser takes exactly the flags of its table row,
    with the defaults of cli.FLAGS; the sweep takes every defaulted flag."""

    @pytest.mark.parametrize("argv", [
        ["verify", "odd", "--g", "x", "--k", "1"], ["verify", "nope"],
        ["sweep", "--jobs", "2", "--g", "3"], [], ["diamond", "jac"],
        ["verify", "k0", "--g", "3", "--k", "1"],
        ["verify", "--format", "json", "odd", "--g", "3", "--k", "1"],
        ["verify", "odd", "--g", "4", "--k", "1", "--form", "json"], ["sweep", "--max", "3"],
    ], ids=lambda argv: " ".join(argv) or "no command")
    def test_grammar_error_is_one_line(self, capsys, argv):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("twoquadrics: error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command,target,flags", table_rows())
    def test_help_lists_the_row_flags(self, capsys, command, target, flags):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([command, target, "--help"])
        assert exit_info.value.code == 0
        listed = set(re.findall(r"(?<![\w-])--[a-z-]+", capsys.readouterr().out))
        options = {"--" + flag.replace("_", "-") for flag in flags}
        assert listed == options | {"--help", "--format", "--output"}

    def test_defaults_are_the_table_defaults(self):
        commands = sub_parsers(cli.build_parser())
        parsers = [commands["sweep"]]
        for command in ("diamond", "verify", "identity"):
            parsers.extend(sub_parsers(commands[command]).values())
        seen = set()
        for parser in parsers:
            for action in parser._actions:
                if action.dest in cli.FLAGS:
                    default = cli.FLAGS[action.dest][0]
                    assert (action.default, action.required) == (default, default is None)
                    seen.add(action.dest)
        assert seen == set(cli.FLAGS)
        ranges = {flag for flag, (default, _) in cli.FLAGS.items() if default is not None}
        sweep = {a.dest for a in commands["sweep"]._actions if a.dest in cli.FLAGS}
        assert sweep == ranges == {"max_g", "max_g_even", "max_m", "max_a", "max_n"}


class TestFailedTextReport:
    """A report that is not verified lists every observation in text, one
    line each in key order; verified text and JSON are unchanged."""

    def test_failed_stacky_count_names_the_count(self, capsys, monkeypatch):
        monkeypatch.setattr(stacky, "stacky_collection_length", lambda g, k: 49)
        code, out = run(capsys, ["verify", "even", "--g", "3", "--k", "1"])
        assert code == 1
        assert zero_elapsed(out) == (
            "FAIL stacky-counts g=3 k=1 (0 ms)\n"
            "  lhs: 48\n"
            "  rhs: 48\n"
            "  collection_length: 49\n"
        )

    def test_failed_suite_lists_its_failures(self, capsys, monkeypatch):
        check = stacky.gessel_identity_check
        monkeypatch.setattr(
            stacky, "gessel_identity_check", lambda m, a: (m, a) != (1, 2) and check(m, a)
        )
        code, out = run(capsys, ["identity", "gessel", "--max-m", "2", "--max-a", "2"])
        assert code == 1
        assert zero_elapsed(out) == (
            "FAIL gessel-identity max_a=2 max_m=2 (0 ms)\n"
            "  lhs: -\n"
            "  rhs: -\n"
            "  failures: [[1, 2]]\n"
            "  instances: 6\n"
        )
        argv = ["identity", "gessel", "--max-m", "2", "--max-a", "2", "--format", "json"]
        code, out = run(capsys, argv)
        assert code == 1
        assert zero_elapsed(out) == (
            '{"effectivity":[],"elapsed_ms":0,"identity":"gessel-identity","lhs":null,'
            '"observations":{"failures":[[1,2]],"instances":6},"params":{"max_a":2,"max_m":2},'
            '"rhs":null,"status":"failed"}\n'
        )

    def test_failed_hochschild_is_written_in_t(self, capsys, monkeypatch):
        at_one = motivic.multiplicity_at_one
        monkeypatch.setattr(
            motivic, "multiplicity_at_one", lambda g, k, i: at_one(g, k, i) + (i == 0)
        )
        code, out = run(capsys, ["verify", "hochschild", "--g", "3", "--k", "0"])
        assert code == 1
        assert zero_elapsed(out) == (
            "FAIL hochschild-decomposition g=3 k=0 (0 ms)\n"
            "  lhs: 3*t^-1 + 6 + 3*t\n"
            "  rhs: 3*t^-1 + 7 + 3*t\n"
        )

    def test_failed_bgmn_is_written_in_l(self, capsys, monkeypatch):
        bgmn = motivic.bgmn_multiplicity
        monkeypatch.setattr(
            motivic, "bgmn_multiplicity", lambda g, i: bgmn(g, i) + LaurentPoly({0: 1})
        )
        code, out = run(capsys, ["verify", "bgmn", "--g", "3"])
        assert code == 1
        assert zero_elapsed(out) == (
            "FAIL bgmn-crosscheck g=3 (0 ms)\n"
            "  lhs: [0] 1 + L^6; [1] L + L^4; [2] L^2\n"
            "  rhs: [0] 2 + L^6; [1] 1 + L + L^4; [2] 1 + L^2\n"
        )

    def test_failed_sweep_reports_keep_their_side_variables(self, capsys, monkeypatch):
        at_one, bgmn = motivic.multiplicity_at_one, motivic.bgmn_multiplicity
        monkeypatch.setattr(
            motivic, "multiplicity_at_one", lambda g, k, i: at_one(g, k, i) + (i == 0)
        )
        monkeypatch.setattr(
            motivic, "bgmn_multiplicity", lambda g, i: bgmn(g, i) + LaurentPoly({0: 1})
        )
        argv = ["sweep", "--max-g", "3", "--max-g-even", "2", "--max-m", "0", "--max-a", "0",
                "--max-n", "0", "--format", "text"]
        code, out = run(capsys, argv)
        assert code == 1
        out = zero_elapsed(out)
        assert (
            "FAIL hochschild-decomposition g=3 k=0 (0 ms)\n"
            "  lhs: 3*t^-1 + 6 + 3*t\n"
            "  rhs: 3*t^-1 + 7 + 3*t\n"
        ) in out
        assert (
            "FAIL bgmn-crosscheck g=3 (0 ms)\n"
            "  lhs: [0] 1 + L^6; [1] L + L^4; [2] L^2\n"
            "  rhs: [0] 2 + L^6; [1] 1 + L + L^4; [2] 1 + L^2\n"
        ) in out
        assert out.endswith("verified 8/13\n")

    def test_failed_decomposition_lists_its_spans(self, capsys, plant_kernel):
        plant_kernel(3, {0: 1, 6: 1})
        code, out = run(capsys, ["verify", "odd", "--g", "3", "--k", "1"])
        assert code == 1
        lines = out.splitlines()
        assert [line.split(":")[0] for line in lines[1:]] == [
            "  lhs", "  rhs", "  multiplicity_spans",
        ]
        spans = tuple((i, base, top) for i, base, top in json.loads(lines[-1].split(": ", 1)[1]))
        assert verify_decomposition(3, 1).observations == (("multiplicity_spans", spans),)


class TestSweepCommand:
    ARGS = [
        "--max-g", "4", "--max-g-even", "4",
        "--max-m", "4", "--max-a", "4", "--max-n", "5",
    ]

    def test_small_sweep_passes(self, capsys):
        code, out = run(capsys, ["sweep", *self.ARGS, "--format", "json"])
        assert code == 0
        obj = json.loads(out)
        assert obj["summary"]["failed"] == 0
        assert obj["summary"]["total"] == obj["summary"]["verified"] == 26

    def test_text_rows_sorted(self, capsys):
        code, out = run(capsys, ["sweep", *self.ARGS])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "verified 26/26"
        assert lines[:-1] == sorted(lines[:-1])

    @pytest.mark.parametrize(
        "flag,value",
        [("--max-m", "-1"), ("--max-a", "-2"), ("--max-a", "3"), ("--max-n", "-5")],
    )
    def test_bad_suite_range_is_usage_error(self, capsys, flag, value):
        argv = ["sweep", "--max-g", "2", "--max-g-even", "2", flag, value]
        code, out = run(capsys, argv)
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["identity", "gessel", "--max-a", "5"], "max_a = 5: need max_a even"),
            (["identity", "gessel", "--max-m", "-1"], "max_m = -1: need max_m >= 0"),
            (["identity", "chu-vandermonde", "--max-n", "-1"], "max_n = -1: need max_n >= 0"),
            (["sweep", "--max-g", "1"], "max_g = 1: need max_g >= 2"),
            (["sweep", "--max-g-even", "1"], "max_g_even = 1: need max_g_even >= 2"),
            (["sweep", "--max-a", "-2"], "max_a = -2: need max_a >= 0"),
            (["sweep", "--jobs", "0"], "jobs = 0: need jobs >= 1"),
            (["verify", "odd", "--g", "1", "--k", "0"], "g = 1: need g >= 2"),
        ],
    )
    def test_bad_input_is_one_line_from_the_library_rule(self, capsys, argv, message):
        # the library function that owns an input checks it; the CLI
        # prints its ValueError, writes nothing and exits 2
        for fmt in ("text", "json"):
            assert cli.main([*argv, "--format", fmt]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"twoquadrics: error: {message}\n"

    def test_worker_count_is_clamped(self, monkeypatch):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        assert cli.worker_count(10**9, 10**6) == 4
        assert cli.worker_count(10**9, 3) == 3
        assert cli.worker_count(2, 10**6) == 2
        assert cli.worker_count(1, 10**6) == 1
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        assert cli.worker_count(10**9, 10**6) == 1

    def test_parallel_output_identical(self, capsys):
        _, serial = run(capsys, ["sweep", *self.ARGS, "--format", "json"])
        _, parallel = run(capsys, ["sweep", *self.ARGS, "--format", "json", "--jobs", "2"])
        serial_obj, parallel_obj = json.loads(serial), json.loads(parallel)
        for report in (*serial_obj["reports"], *parallel_obj["reports"]):
            report["elapsed_ms"] = 0
        assert serial_obj == parallel_obj

    RANGES = (4, 4, 4, 4, 5)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_streamed_output_matches_collected_document(self, capsys, fmt, jobs):
        code, out = run(capsys, ["sweep", *self.ARGS, "--format", fmt, "--jobs", jobs])
        assert code == 0
        assert zero_elapsed(out) == collected_sweep_output(self.RANGES, fmt)

    @pytest.mark.parametrize("ranges", [(4, 4, 4, 4, 5), (7, 2, 0, 0, 0), (2, 9, 3, 2, 1)])
    def test_tasks_are_in_output_order(self, ranges):
        keys = []
        for name, args in cli.sweep_tasks(*ranges):
            check = cli.CHECKS[name]
            assert len(args) == len(check.params)
            keys.append((check.identity, tuple(sorted(zip(check.params, args)))))
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        assert sorted(cli.sweep_tasks(*ranges)) == sorted(collected_sweep_tasks(*ranges))

    def test_failure_forces_exit_code_one(self, capsys, monkeypatch):
        def broken(g, k):
            return VerificationReport(
                identity="hyperelliptic-decomposition",
                params={"g": g, "k": k},
                status="failed",
                lhs=None,
                rhs=None,
            )

        monkeypatch.setattr(cli, "verify_decomposition", broken)
        code, out = run(capsys, ["sweep", *self.ARGS])
        assert code == 1
        assert "FAIL hyperelliptic-decomposition" in out
        assert "verified 20/26" in out


class TestInternalErrors:
    """An inconsistency inside the library, or any error the CLI does not
    classify, is exit 3 with one stderr line, not a traceback, not a
    failed identity (1) and not a usage error (2)."""

    @pytest.mark.parametrize(
        "target,argv",
        [
            ("fano_even_betti_numbers", ["verify", "even", "--g", "3", "--k", "1"]),
        ],
    )
    def test_exit_code_three(self, capsys, monkeypatch, target, argv):
        def broken(*args):
            raise ConsistencyError("planted inconsistency")

        monkeypatch.setattr(stacky, target, broken)
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "twoquadrics: internal error: planted inconsistency\n"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_sweep_keeps_other_reports(self, capsys, monkeypatch, jobs):
        argv = ["sweep", *TestSweepCommand.ARGS, "--format", "json", "--jobs", jobs]
        _, clean = run(capsys, argv)
        verify_decomposition = cli.verify_decomposition

        def broken(g, k):
            if (g, k) == (3, 1):
                raise ConsistencyError("planted inconsistency")
            return verify_decomposition(g, k)

        monkeypatch.setattr(cli, "verify_decomposition", broken)
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err == (
            "twoquadrics: internal error: hyperelliptic-decomposition g=3 k=1: "
            "planted inconsistency\n"
        )
        doc, want = json.loads(captured.out), json.loads(clean)
        assert doc["summary"] == {"failed": 1, "total": 26, "verified": 25}
        errored = [r for r in doc["reports"] if r["status"] != "verified"]
        assert [(r["identity"], r["params"], r["status"], r["observations"]) for r in errored] == [
            (
                "hyperelliptic-decomposition",
                {"g": 3, "k": 1},
                "error",
                {"error": "planted inconsistency"},
            )
        ]
        for report in (*doc["reports"], *want["reports"]):
            del report["elapsed_ms"]
        assert [r for r in doc["reports"] if r not in errored] == [
            r for r in want["reports"] if r["params"] != {"g": 3, "k": 1}
            or r["identity"] != "hyperelliptic-decomposition"
        ]

    @staticmethod
    def plant_count_m_minus_1(monkeypatch):
        # the mutation table's "count m-1" of stacky_collection_length:
        # at i = k+1 it asks math.comb for C(n, -1), a ValueError of a
        # value the library computed, at every (g, k)
        function, old, new, _ = STACKY_SOURCE_MUTANTS["count m-1"]
        monkeypatch.setattr(stacky, function.__name__, mutant_of(function, old, new))

    def test_a_library_value_error_is_internal_not_bad_input(self, capsys, monkeypatch):
        self.plant_count_m_minus_1(monkeypatch)
        assert cli.main(["verify", "even", "--g", "2", "--k", "0"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "twoquadrics: internal error: ValueError: k must be a non-negative integer\n"
        )

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_a_library_value_error_in_a_sweep_is_an_error_report(self, capsys, monkeypatch, jobs):
        argv = ["sweep", "--max-g", "2", "--max-g-even", "3", "--max-m", "0", "--max-a", "0",
                "--max-n", "0", "--format", "json", "--jobs", jobs]
        _, clean = run(capsys, argv)
        self.plant_count_m_minus_1(monkeypatch)
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        message = "ValueError: k must be a non-negative integer"
        broken = [{"g": 2, "k": 0}, {"g": 3, "k": 0}, {"g": 3, "k": 1}]
        assert captured.err == "".join(
            f"twoquadrics: internal error: stacky-counts g={p['g']} k={p['k']}: {message}\n"
            for p in broken
        )
        doc, want = json.loads(captured.out), json.loads(clean)
        assert doc["summary"] == {"failed": 3, "total": 9, "verified": 6}
        errored = [r for r in doc["reports"] if r["status"] != "verified"]
        assert [(r["identity"], r["params"], r["status"], r["observations"]) for r in errored] == [
            ("stacky-counts", p, "error", {"error": message}) for p in broken
        ]
        for report in (*doc["reports"], *want["reports"]):
            del report["elapsed_ms"]
        assert [r for r in doc["reports"] if r not in errored] == [
            r for r in want["reports"] if r["identity"] != "stacky-counts"
        ]

    def test_sweep_error_report_keeps_the_time_to_the_error(self, monkeypatch):
        def broken(g, k):
            time.sleep(0.05)
            raise ConsistencyError("planted inconsistency")

        monkeypatch.setattr(cli, "verify_hochschild", broken)
        report, elapsed_ms = cli.run_sweep_task(("hochschild", (3, 1)))
        assert report.status == "error"
        assert report.params == (("g", 3), ("k", 1))
        assert elapsed_ms >= 50

    def test_single_check_lets_the_internal_error_through(self, monkeypatch):
        def broken(g):
            raise InexactDivisionError("planted inconsistency")

        monkeypatch.setattr(cli, "verify_k0_identity", broken)
        with pytest.raises(InexactDivisionError, match="^planted inconsistency$"):
            cli.run_check("k0", (3,))

    def test_sweep_error_text_report(self, capsys, monkeypatch):
        def broken(g, k):
            raise ConsistencyError("planted inconsistency")

        monkeypatch.setattr(cli, "verify_hochschild", broken)
        code, out = run(capsys, ["sweep", *TestSweepCommand.ARGS])
        assert code == 3
        lines = out.splitlines()
        assert any(line.startswith("ERROR hochschild-decomposition g=2 k=0 (") for line in lines)
        assert "  error: planted inconsistency" in lines
        assert lines[-1] == "verified 20/26"

    def test_non_palindromic_even_diamond_is_internal(self, capsys, monkeypatch):
        # (g, k) = (3, 1) has dimension 4
        monkeypatch.setattr(fano_even, "fano_even_betti_numbers", lambda params: (1, 1, 2, 1, 2))
        assert cli.main(["diamond", "fano-even", "--g", "3", "--k", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "twoquadrics: internal error: Serre duality fails: h^{0,0} = 1 but h^{4,4} = 2\n"
        )

    def test_unbalanced_odd_diamond_is_internal(self, capsys, plant_kernel):
        # (g, k) = (3, 1) has dimension 6; an extra u^6 in the j = g kernel
        # is one more block (r, t) = (0, 6), which fits, but two copies of
        # wedge^0 H^1(-6) against one of its Serre dual wedge^0 H^1(-0)
        plant_kernel(3, {6: 1})
        assert cli.main(["diamond", "fano-odd", "--g", "3", "--k", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "twoquadrics: internal error: Serre duality fails: wedge^0 H^1(0) = 1 "
            "but wedge^0 H^1(-6) = 2\n"
        )

    @pytest.mark.parametrize("j,kernel,message", [
        (3, (0, (-4, 1, 2, 1, 2, 1, -4)),
         "wedge^0 H^1(0) = -4 is not a non-negative integer"),
        (3, (0, (2, 1, 2, 1, 2, 1, 1)),
         "Serre duality fails: wedge^0 H^1(0) = 2 but wedge^0 H^1(-6) = 1"),
        (3, (1, (1,)),  # uncentred
         "Serre duality fails: wedge^0 H^1(-1) = 1 but wedge^0 H^1(-5) = 0"),
        (1, (-3, (1, 0, 0, 1)),
         "wedge^2 H^1(1)..wedge^2 H^1(-2) does not fit in wedge^2 H^1(0)..wedge^2 H^1(-4)"),
    ], ids=["negative", "asymmetric", "uncentred", "unfitting"])
    def test_corrupted_odd_block_is_internal(
        self, capsys, monkeypatch, fresh_odd_caches, j, kernel, message
    ):
        # the kernel of j in u = q^2, as gauss_sum would return it, read
        # forwards from the twist r(g-k-1) = 3-j
        original = fano_odd.kernel_coefficients
        monkeypatch.setattr(
            fano_odd, "kernel_coefficients", lambda a, b: kernel if b == j else original(a, b)
        )
        assert cli.main(["verify", "odd", "--g", "3", "--k", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"twoquadrics: internal error: {message}\n"

    @pytest.mark.parametrize("edit,message", [
        (lambda c: c + [0, 1], "b_{0}..b_{12} does not fit in b_{0}..b_{8}"),
        (lambda c: [-1] + c[1:], "b_{0} = -1 is not a non-negative integer"),
        (lambda c: [2] + c[1:], "Serre duality fails: b_{0} = 2 but b_{8} = 1"),
    ], ids=["unfitting", "negative", "asymmetric"])
    def test_corrupted_betti_vector_is_internal(self, capsys, monkeypatch, edit, message):
        # (g, k) = (3, 1) has dimension 4; the sum of its blocks is planted,
        # each block summed alone is not, so no block runs past d
        gauss_sum = fano_even.gauss_sum

        def planted(groups):
            low, coeffs = gauss_sum(groups)
            return (low, edit(coeffs)) if len(groups) > 1 else (low, coeffs)

        monkeypatch.setattr(fano_even, "gauss_sum", planted)
        assert cli.main(["diamond", "fano-even", "--g", "3", "--k", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"twoquadrics: internal error: {message}\n"

    def test_unclassified_error_is_internal(self, capsys, monkeypatch):
        # any error the CLI does not classify is exit 3, named by its type,
        # not a traceback and not the exit 1 of a failed identity
        def broken(g):
            raise TypeError("planted fault")

        monkeypatch.setattr(cli, "verify_k0_identity", broken)
        assert cli.main(["verify", "k0", "--g", "3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "twoquadrics: internal error: TypeError: planted fault\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_a_side_no_writer_knows_is_internal_in_both_formats(self, capsys, monkeypatch, fmt):
        # a failed report whose side is a float: the text writer refuses it
        # as the JSON writer does, with the same message
        monkeypatch.setattr(stacky, "euler_closed_form", lambda g, k: 47.5)
        argv = ["verify", "even", "--g", "3", "--k", "1", "--format", fmt]
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "twoquadrics: internal error: TypeError: cannot serialize float\n"

    def test_killed_sweep_worker_is_internal(self, capsys, monkeypatch):
        # a worker that dies breaks the pool; the sweep stops with exit 3
        def killed(g, k):
            os._exit(1)

        monkeypatch.setattr(cli, "verify_hochschild", killed)
        assert cli.main(["sweep", *TestSweepCommand.ARGS, "--jobs", "2"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("twoquadrics: internal error: BrokenProcessPool: ")
        assert err.count("\n") == 1

    def test_inexact_kernel_step_is_internal(self, capsys, monkeypatch, fresh_odd_caches):
        # no kernel divides any more; an inexact division planted in the
        # kernel's route is reported by its type, as any unclassified error
        def inexact(groups):
            raise InexactDivisionError("polynomial division by 1 - q^6 is not exact")

        monkeypatch.setattr(fano_odd, "gauss_sum", inexact)
        assert cli.main(["verify", "odd", "--g", "4", "--k", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "twoquadrics: internal error: InexactDivisionError: "
            "polynomial division by 1 - q^6 is not exact\n"
        )


class TestFrozenReports:
    """Every report the sweep runs is a value down to its leaves: params
    and observations are (key, value) pairs with no list or dict in them,
    and the JSON written from them is the bytes it always was."""

    RANGES = (3, 3, 2, 2, 3)  # one instance or more of every CHECKS target
    # sha256 of the report_json(report, 0) of each sweep report in task
    # order and then of the planted error report, recorded while params
    # and observations were still dicts
    DIGEST = "46bf1bfc20228b4b3436278864d78738d5599b555698f007337594c99204b6b3"
    ERROR_JSON = (
        '{"effectivity":[],"elapsed_ms":0,"identity":"hochschild-decomposition","lhs":null,'
        '"observations":{"error":"planted inconsistency"},"params":{"g":3,"k":1},'
        '"rhs":null,"status":"error"}\n'
    )

    @staticmethod
    def sweep_reports():
        return [cli.run_sweep_task(task)[0] for task in cli.sweep_tasks(*TestFrozenReports.RANGES)]

    @staticmethod
    def error_report(monkeypatch):
        def broken(g, k):
            raise ConsistencyError("planted inconsistency")

        with monkeypatch.context() as patch:
            patch.setattr(cli, "verify_hochschild", broken)
            return cli.run_sweep_task(("hochschild", (3, 1)))[0]

    @staticmethod
    def frozen(value) -> bool:
        if isinstance(value, (list, dict, set)):
            return False
        return not isinstance(value, tuple) or all(map(TestFrozenReports.frozen, value))

    def test_every_target_is_covered(self):
        targets = {name for name, _ in cli.sweep_tasks(*self.RANGES)}
        assert targets == set(cli.CHECKS)

    def test_reports_are_frozen_hashable_values(self, monkeypatch):
        first = [*self.sweep_reports(), self.error_report(monkeypatch)]
        second = [*self.sweep_reports(), self.error_report(monkeypatch)]
        assert first[-1].status == "error"
        for report, again in zip(first, second, strict=True):
            for pairs in (report.params, report.observations):
                assert self.frozen(pairs), report
                assert [key for key, _ in pairs] == sorted(dict(pairs)), report
                with pytest.raises(TypeError):
                    pairs[0] = ("g", 9)
            assert report == again and hash(report) == hash(again), report
            assert pickle.loads(pickle.dumps(report)) == report

    def test_json_is_unchanged(self, monkeypatch):
        reports = [*self.sweep_reports(), self.error_report(monkeypatch)]
        data = "".join(cli.report_json(report, 0) for report in reports).encode()
        assert hashlib.sha256(data).hexdigest() == self.DIGEST
        assert cli.report_json(reports[-1], 0) == self.ERROR_JSON

    def test_a_pickled_report_writes_the_same_json(self):
        for report in self.sweep_reports():
            copy = pickle.loads(pickle.dumps(report))
            assert cli.report_json(copy, 0) == cli.report_json(report, 0)
            assert cli.report_to_text(copy, 0) == cli.report_to_text(report, 0)

    def test_assigning_into_params_raises(self):
        report = verify_decomposition(3, 1)
        with pytest.raises(TypeError):
            report.params["g"] = 9
        assert hash(report) == hash(verify_decomposition(3, 1))
        assert '"params":{"g":3,"k":1}' in cli.report_json(report, 0)


class TestWidthFailures:
    """A Gaussian binomial that does not fit the digit width gauss_sum
    picked for it is a fault in the library, exit 3 and reported as
    itself, not a usage error.  packed_width is planted to give 64 bits
    whatever the bound: C(n, m) >= 2^63 then no longer fits."""

    def test_verify_exits_three(self, capsys, monkeypatch, cold_caches):
        monkeypatch.setattr(exactpoly, "packed_width", lambda bound: 64)
        assert cli.main(["verify", "odd", "--g", "60", "--k", "29"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "twoquadrics: internal error: [91, 30]_q does not fit digits of width 64\n"
        )

    def test_sweep_writes_every_report(self, capsys, monkeypatch, cold_caches, tmp_path):
        # the stacky counts of g = 48 reach C(71, 25) > 2^63; below that,
        # a bound past 2^63 with every C(n, m) inside it lets some sums
        # overflow unseen, and the Betti guards report those as errors
        argv = ["sweep", "--max-g", "2", "--max-g-even", "48", "--max-m", "0", "--max-a", "0",
                "--max-n", "0", "--format", "json", "--output"]
        assert cli.main([*argv, str(tmp_path / "clean.json")]) == 0
        monkeypatch.setattr(exactpoly, "packed_width", lambda bound: 64)
        assert cli.main([*argv, str(tmp_path / "narrow.json")]) == 3
        capsys.readouterr()
        clean, narrow = (
            json.loads((tmp_path / name).read_text())["reports"]
            for name in ("clean.json", "narrow.json")
        )
        for report in (*clean, *narrow):
            del report["elapsed_ms"]
        assert [(r["identity"], r["params"]) for r in narrow] == [
            (r["identity"], r["params"]) for r in clean
        ]
        assert all(r == c or r["status"] == "error" for r, c in zip(narrow, clean))
        assert [r for r in narrow if r["status"] == "verified"]
        assert [
            (r["params"], r["observations"]["error"])
            for r in narrow
            if "does not fit" in r["observations"].get("error", "")
        ] == [
            ({"g": 48, "k": k}, f"[{95 - k}, {k + 1}]_q does not fit digits of width 64")
            for k in range(24, 28)
        ]


class TestOutputFile:
    def test_an_unwritable_output_is_a_usage_error(self, tmp_path):
        # the one exit-2 type carries the output's errors too
        with pytest.raises(UsageError, match=r"^cannot write .*: Is a directory$"):
            with cli._output(str(tmp_path)):
                pytest.fail("a directory was accepted as the output")

    def test_atomic_output(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code = cli.main(
            ["verify", "bgmn", "--g", "3", "--format", "json", "--output", str(target)]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        obj = json.loads(target.read_text())
        assert obj["status"] == "verified"
        leftovers = [p for p in tmp_path.iterdir() if p.name != "report.json"]
        assert leftovers == []

    def test_output_file_gets_the_umask_mode(self, capsys, tmp_path):
        target = tmp_path / "report.txt"
        old = os.umask(0o022)
        try:
            assert cli.main(["verify", "bgmn", "--g", "3", "--output", str(target)]) == 0
        finally:
            os.umask(old)
        assert stat.S_IMODE(target.stat().st_mode) == 0o644

    @pytest.fixture
    def no_checks(self, monkeypatch):
        def must_not_run(g, k):
            pytest.fail("the check ran although the output cannot be written")

        monkeypatch.setattr(cli, "verify_decomposition", must_not_run)

    @pytest.mark.parametrize("argv", [
        ["verify", "odd", "--g", "4", "--k", "1"],
        ["sweep", *TestSweepCommand.ARGS, "--format", "json"],
    ], ids=["verify", "sweep"])
    def test_unwritable_output_is_usage_error_before_any_work(
        self, capsys, no_checks, tmp_path, argv
    ):
        target = tmp_path / "missing" / "x.json"
        assert cli.main([*argv, "--output", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"twoquadrics: error: cannot write {target}: No such file or directory\n"
        )

    @pytest.mark.parametrize("argv", [
        ["verify", "odd", "--g", "4", "--k", "1"],
        ["sweep", *TestSweepCommand.ARGS, "--format", "json"],
    ], ids=["verify", "sweep"])
    def test_directory_output_is_usage_error_before_any_work(
        self, capsys, no_checks, tmp_path, argv
    ):
        # a temporary file would be made beside the target, in tmp_path
        target = tmp_path / "out"
        target.mkdir()
        assert cli.main([*argv, "--output", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"twoquadrics: error: cannot write {target}: Is a directory\n"
        assert list(tmp_path.iterdir()) == [target]
        assert list(target.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["verify", "odd", "--g", "4", "--k", "1"],
        ["sweep", *TestSweepCommand.ARGS, "--format", "json"],
    ], ids=["verify", "sweep"])
    def test_empty_output_is_usage_error_before_any_work(
        self, capsys, monkeypatch, no_checks, tmp_path, argv
    ):
        # the temporary file of an empty path would be made in the parent
        # of the working directory, here tmp_path
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert cli.main([*argv, "--output", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "twoquadrics: error: cannot write '': No such file or directory\n"
        assert list(tmp_path.iterdir()) == [work]
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["verify", "odd", "--g", "4", "--k", "1"],
        ["sweep", *TestSweepCommand.ARGS, "--format", "json"],
    ], ids=["verify", "sweep"])
    def test_named_pipe_output_is_refused_and_kept(self, capsys, no_checks, tmp_path, argv):
        # a rename would replace the pipe with a regular file, and its
        # reader would get nothing
        target = tmp_path / "fifo"
        os.mkfifo(target)
        assert cli.main([*argv, "--output", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"twoquadrics: error: cannot write {target}: not a regular file\n"
        assert stat.S_ISFIFO(os.lstat(target).st_mode)
        assert list(tmp_path.iterdir()) == [target]

    def test_link_to_a_named_pipe_is_refused(self, capsys, no_checks, tmp_path):
        os.mkfifo(tmp_path / "fifo")
        link = tmp_path / "link"
        os.symlink("fifo", link)
        assert cli.main(["verify", "odd", "--g", "4", "--k", "1", "--output", str(link)]) == 2
        assert capsys.readouterr().err.endswith(": not a regular file\n")
        assert os.readlink(link) == "fifo" and stat.S_ISFIFO(os.stat(link).st_mode)

    def test_symlink_output_writes_its_target(self, capsys, tmp_path):
        (tmp_path / "data").mkdir()
        real = tmp_path / "data" / "report.json"
        real.write_text("stale\n")
        link = tmp_path / "link.json"
        os.symlink(os.path.join("data", "report.json"), link)
        argv = ["verify", "bgmn", "--g", "3", "--format", "json", "--output", str(link)]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == ""
        assert os.readlink(link) == os.path.join("data", "report.json")
        assert json.loads(real.read_text())["status"] == "verified"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "link.json"]
        assert [p.name for p in real.parent.iterdir()] == ["report.json"]

    def test_error_mid_sweep_leaves_no_file(self, capsys, monkeypatch, tmp_path):
        # an exception inside a task is an error report; one outside the
        # tasks stops the sweep, here a report whose side no writer knows
        verify_hochschild = cli.verify_hochschild

        def broken(g, k):
            report = verify_hochschild(g, k)
            if (g, k) == (4, 1):
                return VerificationReport(report.identity, dict(report.params), "failed", 47.5, 0)
            return report

        monkeypatch.setattr(cli, "verify_hochschild", broken)
        target = tmp_path / "sweep.json"
        argv = ["sweep", *TestSweepCommand.ARGS, "--format", "json", "--output", str(target)]
        assert cli.main(argv) == 3
        assert list(tmp_path.iterdir()) == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "twoquadrics: internal error: TypeError: cannot serialize float\n"


class TestClosedStdout:
    def test_closed_pipe_is_usage_error(self):
        # the default JSON sweep is larger than a pipe's buffer, so it is
        # still writing when the reader goes
        argv = [sys.executable, "-m", "twoquadrics.cli", "sweep", "--format", "json"]
        env = dict(os.environ, PYTHONPATH=SRC)
        with subprocess.Popen(
            argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        ) as proc:
            assert proc.stdout.read1().startswith(b'{"reports":[')
            proc.stdout.close()
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=300)
        assert err == "twoquadrics: error: cannot write stdout: Broken pipe\n"
        assert code == 2


def run_closed_stderr(code):
    """Run `code` in a fresh interpreter whose stderr is a pipe with its
    read end closed and whose stdout is discarded; return its exit code."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
            stdout=subprocess.DEVNULL, stderr=write_end, timeout=300,
        )
    finally:
        os.close(write_end)
    return proc.returncode


# a verify odd whose check hits an internal inconsistency
PLANTED_INCONSISTENCY = (
    "def broken(g, k):\n"
    "    raise cli.ConsistencyError('planted inconsistency')\n"
    "cli.verify_decomposition = broken\n"
)


class TestClosedStderr:
    """An error line that cannot be written to stderr leaves the exit code
    as it is with stderr open: 2 for a usage or output error, 3 for an
    internal error."""

    @pytest.mark.parametrize("argv", [
        ["verify", "odd", "--g", "1", "--k", "0"],
        ["identity", "gessel", "--max-a", "5"],
    ])
    def test_usage_error_exits_two(self, argv):
        code = f"import sys, twoquadrics.cli as cli; sys.exit(cli.main({argv!r}))"
        assert run_closed_stderr(code) == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "odd", "--g", "4", "--k", "1"],
        ["sweep", *TestSweepCommand.ARGS],
    ], ids=["verify", "sweep"])
    def test_internal_error_exits_three(self, argv):
        # the sweep writes one error line per broken task, then its reports
        code = (
            "import sys, twoquadrics.cli as cli\n"
            + PLANTED_INCONSISTENCY
            + f"sys.exit(cli.main({argv!r}))\n"
        )
        assert run_closed_stderr(code) == 3

    def test_sweep_into_a_closed_shared_pipe_exits_two(self):
        # `sweep --format json 2>&1 | head -c 10`: stdout and stderr are one
        # pipe, so the line that reports the closed stdout cannot be written
        argv = [sys.executable, "-m", "twoquadrics.cli", "sweep", "--format", "json"]
        env = dict(os.environ, PYTHONPATH=SRC)
        with subprocess.Popen(
            argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT
        ) as proc:
            assert proc.stdout.read(10) == b'{"reports"'
            proc.stdout.close()
            code = proc.wait(timeout=300)
        assert code == 2


class TestResources:
    def test_parser_does_not_import_the_process_pool(self):
        out = run_python(
            "import sys; import twoquadrics.cli as cli; cli.build_parser(); "
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
        )
        assert out == "[]\n"

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
    def test_sweep_memory_is_set_by_the_largest_instance(self, tmp_path):
        # the collected sweep peaked at 248 MB over these ranges.  The
        # child reads its own high-water mark: the ru_maxrss of a child
        # starts at the resident size of the parent that forked it
        argv = [
            "sweep", "--max-g", "24", "--max-g-even", "2", "--max-m", "0", "--max-a", "0",
            "--max-n", "0", "--format", "json", "--output", str(tmp_path / "s.json"),
        ]
        out = run_python(
            "import twoquadrics.cli as cli\n"
            f"code = cli.main({argv!r})\n"
            "status = open('/proc/self/status').read()\n"
            "hwm = next(l for l in status.splitlines() if l.startswith('VmHWM:'))\n"
            "print(code, hwm.split()[1])\n"
        )
        code, peak_kb = map(int, out.split())
        assert code == 0
        assert json.loads((tmp_path / "s.json").read_text())["summary"]["failed"] == 0
        assert peak_kb < 64 * 1024
