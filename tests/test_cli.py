import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bdfkalc import cli
from bdfkalc.cli import (
    COMMANDS,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VALIDATION,
    EXIT_WINDOW,
    SpecError,
    parse_spec,
)
from bdfkalc.modules import RingValidationError
from bdfkalc.homology import (
    ChainComplexError,
    KoszulTensorComplex,
    euler_profile,
    homology_profile,
)

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args, spec=None, tmp_path=None):
    argv = [sys.executable, "-m", "bdfkalc"]
    if spec is not None:
        path = tmp_path / "job.json"
        path.write_text(json.dumps(spec))
        argv += ["--spec", str(path)]
    argv += list(args)
    return subprocess.run(argv, capture_output=True, text=True)


MINIMAL = {
    "ring": {"columns": [1, 1]},
    "module": {"node": "quotient", "gens": [[[1, 1], [2, 1]]]},
    "window": [[[1, 3], [2, 3]]],
}


class TestParseSpec:
    def test_minimal_spec_parses(self):
        job = parse_spec(json.dumps(MINIMAL), command="kseries")
        assert job.command == "kseries"
        assert len(job.ring.variables) == 2

    def test_zero_coefficient_degree_is_a_parse_error(self):
        bad = dict(MINIMAL, window=[[[1, 0]]])
        with pytest.raises(SpecError) as info:
            parse_spec(json.dumps(bad), command="kseries")
        assert any("zero coefficient" in message for _, message in info.value.errors)

    def test_unknown_command_named_in_error(self):
        with pytest.raises(SpecError) as info:
            parse_spec(json.dumps(MINIMAL), command=None)
        assert any("None" in message for _, message in info.value.errors)
        bad = dict(MINIMAL, command="frobnicate")
        with pytest.raises(SpecError) as info:
            parse_spec(json.dumps(bad))
        assert any("frobnicate" in message for _, message in info.value.errors)

    def test_every_error_is_positioned(self):
        bad = {
            "ring": {"columns": [1, -1]},
            "module": {"node": "mystery"},
            "window": [],
        }
        with pytest.raises(SpecError) as info:
            parse_spec(json.dumps(bad), command="kseries")
        assert {where for where, _ in info.value.errors} >= {"ring.columns", "window"}


class TestExitCodes:
    def test_parse_error(self, tmp_path):
        bad = dict(MINIMAL, module={"node": "quotient", "gens": [[[1, 0]]]})
        result = run_cli("--command", "kseries", spec=bad, tmp_path=tmp_path)
        assert result.returncode == EXIT_PARSE
        record = json.loads(result.stderr)
        assert record["error"]["kind"] == "parse"
        assert record["error"]["details"]

    def test_validation_error_for_unpointed_ring(self, tmp_path):
        bad = {
            "ring": {"variables": [{"id": "a", "degree": [[1, 1], [2, -1]]}]},
            "module": {"node": "free", "shifts": [[]]},
            "window": [[[1, 2]]],
        }
        result = run_cli("--command", "hilbert", spec=bad, tmp_path=tmp_path)
        assert result.returncode == EXIT_VALIDATION
        assert json.loads(result.stderr)["error"]["kind"] == "validation"

    def test_undecodable_job_file_is_an_io_error(self, tmp_path):
        path = tmp_path / "job.json"
        path.write_bytes(b'{"ring": \xff}')
        result = run_cli("--spec", str(path), "--command", "hilbert")
        assert result.returncode == EXIT_PARSE
        assert json.loads(result.stderr)["error"]["kind"] == "io"
        argv = [sys.executable, "-m", "bdfkalc", "--spec", "-", "--command", "hilbert"]
        piped = subprocess.run(argv, input=path.read_bytes(), capture_output=True)
        assert piped.returncode == EXIT_PARSE
        assert json.loads(piped.stderr)["error"]["kind"] == "io"

    def test_nesting_too_deep_for_the_json_reader_is_a_parse_error(self, tmp_path):
        depth = 100_000
        shift = '{"node": "shift", "by": [], "module": '
        module = shift * depth + '{"node": "free", "shifts": [[]]}' + "}" * depth
        path = tmp_path / "job.json"
        path.write_text('{"ring": {"columns": [1]}, "window": [[[1, 1]]], "module": ' + module + "}")
        result = run_cli("--spec", str(path), "--command", "hilbert")
        assert result.returncode == EXIT_PARSE
        assert json.loads(result.stderr)["error"]["kind"] == "parse"

    def test_hundreds_of_nested_shifts_compute_like_the_bare_module(self, tmp_path):
        # each node's hash is stored at construction, so a cache key hashes one level deep,
        # and two equal but distinct trees compare without recursion
        free = {"node": "free", "shifts": [[]]}
        nested = free
        for _ in range(500):
            nested = {"node": "shift", "by": [], "module": nested}
        bare = run_cli("--command", "hilbert", spec=dict(MINIMAL, module=free), tmp_path=tmp_path)
        deep = run_cli("--command", "hilbert", spec=dict(MINIMAL, module=nested), tmp_path=tmp_path)
        assert (deep.returncode, deep.stderr) == (EXIT_OK, "")
        assert deep.stdout == bare.stdout
        bare = run_cli("--command", "serre", spec=dict(MINIMAL, module=free, module2=free), tmp_path=tmp_path)
        deep = run_cli("--command", "serre", spec=dict(MINIMAL, module=nested, module2=nested), tmp_path=tmp_path)
        assert (deep.returncode, deep.stderr) == (EXIT_OK, "")
        deep, bare = json.loads(deep.stdout), json.loads(bare.stdout)
        assert deep["coeffs"] == bare["coeffs"]
        assert deep["matches_tensor_product"] is bare["matches_tensor_product"] is True

    def test_nesting_too_deep_for_the_module_parser_is_a_parse_error_at_its_field(self, tmp_path):
        # 984 shifts pass the JSON reader but not the recursive module parser;
        # one level less, and the deepest sums the parser takes, still compute.
        # The job text is written directly: json.dumps would recurse as deep.
        free = {"node": "free", "shifts": [[]]}
        bare = run_cli("--command", "hilbert", spec=dict(MINIMAL, module=free), tmp_path=tmp_path)
        path = tmp_path / "deep.json"

        def run_nested(opening, closing, depth):
            module = opening * depth + json.dumps(free) + closing * depth
            text = json.dumps(dict(MINIMAL, module=None)).replace("null", module)
            path.write_text(text)
            return run_cli("--spec", str(path), "--command", "hilbert")

        shift = ('{"node": "shift", "by": [], "module": ', "}")
        deep = run_nested(*shift, 984)
        assert deep.returncode == EXIT_PARSE
        record = json.loads(deep.stderr)["error"]
        assert record["kind"] == "parse"
        assert record["details"] == [{"where": "module", "message": "nested too deeply to parse"}]
        for deep in (run_nested(*shift, 983), run_nested('{"node": "sum", "parts": [', "]}", 491)):
            assert (deep.returncode, deep.stderr) == (EXIT_OK, "")
            assert deep.stdout == bare.stdout

    def test_every_command_computes_the_deepest_modules_the_parser_takes(self, tmp_path):
        # 983 shifts and 491 sums are the deepest the module parser takes; no command
        # reads a tree deeper than that, so each prints what the bare module prints
        free = {"node": "free", "shifts": [[]]}
        spec = dict(MINIMAL, module=free, module2=free, degree=[[1, 1], [2, 1]])
        bare = {command: run_cli("--command", command, spec=spec, tmp_path=tmp_path) for command in COMMANDS if command != "invert"}
        path = tmp_path / "deep.json"
        trees = [
            ('{"node": "shift", "by": [], "module": ', "}", "shift(", ", 0)", 983),
            ('{"node": "sum", "parts": [', "]}", "sum(", ")", 491),
        ]
        for opening, closing, printed_opening, printed_closing, depth in trees:
            nested = opening * depth + json.dumps(free) + closing * depth
            path.write_text(json.dumps(dict(spec, module=None, module2=None)).replace("null", nested))
            printed = printed_opening * depth + "free(0)" + printed_closing * depth
            for command, expected in bare.items():
                assert expected.returncode == EXIT_OK, command
                deep = run_cli("--spec", str(path), "--command", command)
                assert (deep.returncode, deep.stderr) == (EXIT_OK, ""), (command, depth)
                if command == "serre":
                    # the provenance prints the module tree itself
                    provenance = f"serre({printed}, {printed})"
                    assert json.loads(deep.stdout) == dict(json.loads(expected.stdout), provenance=provenance), depth
                else:
                    assert deep.stdout == expected.stdout, (command, depth)

    def test_a_ring_of_3000_variables_computes(self, tmp_path):
        # the monomial enumeration walks one branch per variable on a stack, not the call stack,
        # and the graded-lex key reads a monomial's entries, not a tuple as wide as the ring
        spec = {"ring": {"columns": [3000]}, "module": {"node": "free", "shifts": [[]]}, "window": [[[1, 1]]]}
        started = time.perf_counter()
        result = run_cli("--command", "hilbert", spec=spec, tmp_path=tmp_path)
        elapsed = time.perf_counter() - started
        assert (result.returncode, result.stderr) == (EXIT_OK, "")
        assert json.loads(result.stdout)["coeffs"] == [[[], 1], [[[1, 1]], 3000]]
        assert elapsed < 1.0, f"{elapsed:.2f} s end to end"

    def test_the_kseries_of_a_ring_of_3000_variables_is_one(self, tmp_path):
        # the ring's inverse is built only on the reach of the window, e1: 1 - 3000 t^e1;
        # the whole product cost 4.5 million degree additions and about 20 s
        spec = {"ring": {"columns": [3000]}, "module": {"node": "free", "shifts": [[]]}, "window": [[[1, 1]]]}
        started = time.perf_counter()
        result = run_cli("--command", "kseries", spec=spec, tmp_path=tmp_path)
        elapsed = time.perf_counter() - started
        assert (result.returncode, result.stderr) == (EXIT_OK, "")
        assert json.loads(result.stdout)["coeffs"] == [[[], 1]]
        assert elapsed < 1.0, f"{elapsed:.2f} s end to end"

    def test_window_error_for_out_of_window_degree(self, tmp_path):
        spec = dict(MINIMAL, degree=[[1, 9]])
        result = run_cli("--command", "torsion-dim", spec=spec, tmp_path=tmp_path)
        assert result.returncode == EXIT_WINDOW
        assert json.loads(result.stderr)["error"]["kind"] == "window"

    def test_success_is_zero(self, tmp_path):
        result = run_cli("--command", "kseries", spec=MINIMAL, tmp_path=tmp_path)
        assert result.returncode == 0
        assert result.stdout.endswith("\n")

    def test_success_leaves_stderr_empty(self):
        # stderr carries error records only, whatever the environment sets
        result = subprocess.run(
            [sys.executable, "-m", "bdfkalc", "--spec", str(GOLDEN / "betti_xy.json"), "--command", "betti"],
            capture_output=True,
            text=True,
            env=dict(os.environ, BDFKALC_LOG="debug"),
        )
        assert (result.returncode, result.stderr) == (EXIT_OK, "")


class TestCommands:
    def test_kseries_output(self, tmp_path):
        result = run_cli("--command", "kseries", spec=MINIMAL, tmp_path=tmp_path)
        payload = json.loads(result.stdout)
        assert payload["coeffs"] == [[[], 1], [[[1, 1], [2, 1]], -1]]

    def test_invert_geometric(self, tmp_path):
        spec = {
            "ring": {"columns": [1]},
            "series": [[[], 1], [[[1, 1]], -1]],
            "window": [[[1, 4]]],
        }
        result = run_cli("--command", "invert", spec=spec, tmp_path=tmp_path)
        payload = json.loads(result.stdout)
        assert [c for _, c in payload["coeffs"]] == [1, 1, 1, 1, 1]

    def test_invert_at_ceiling_60_60_within_a_second(self, tmp_path):
        # 1/((1 - x)(1 - y)) is 1 in every degree; each coefficient reads three smaller ones,
        # where walking every degree's downset took about 28 s end to end
        spec = {
            "ring": {"columns": [1, 1]},
            "series": [[[], 1], [[[1, 1]], -1], [[[2, 1]], -1], [[[1, 1], [2, 1]], 1]],
            "window": [[[1, 60], [2, 60]]],
        }
        started = time.perf_counter()
        result = run_cli("--command", "invert", spec=spec, tmp_path=tmp_path)
        elapsed = time.perf_counter() - started
        assert (result.returncode, result.stderr) == (EXIT_OK, "")
        coeffs = json.loads(result.stdout)["coeffs"]
        assert len(coeffs) == 61 * 61 and {c for _, c in coeffs} == {1}
        assert elapsed < 1.0, f"{elapsed:.2f} s end to end"

    def test_invert_rejects_bad_constant_term(self, tmp_path):
        spec = {
            "ring": {"columns": [1]},
            "series": [[[], 2]],
            "window": [[[1, 4]]],
        }
        result = run_cli("--command", "invert", spec=spec, tmp_path=tmp_path)
        assert result.returncode == EXIT_VALIDATION

    def test_torsion_dim_payload(self, tmp_path):
        spec = dict(MINIMAL, degree=[[1, 1], [2, 1]])
        result = run_cli("--command", "torsion-dim", spec=spec, tmp_path=tmp_path)
        payload = json.loads(result.stdout)
        assert payload["torsion_dimension"] == 1
        assert payload["projective_dimension"] == 1

    def test_euler_check_rows_balance(self, tmp_path):
        result = run_cli("--command", "euler-check", spec=MINIMAL, tmp_path=tmp_path)
        payload = json.loads(result.stdout)
        assert payload["equal"] is True
        assert all(terms == homology for _, terms, homology in payload["rows"])

    def test_table_output_smoke(self, tmp_path):
        result = run_cli(
            "--command", "betti", "--output", "table", spec=MINIMAL, tmp_path=tmp_path
        )
        assert "beta" in result.stdout

    def test_prime_field_flag(self, tmp_path):
        plain = run_cli("--command", "betti", spec=MINIMAL, tmp_path=tmp_path)
        mod2 = run_cli("--command", "betti", "--char", "2", spec=MINIMAL, tmp_path=tmp_path)
        assert plain.returncode == mod2.returncode == 0
        assert plain.stdout == mod2.stdout  # this table is characteristic-free

    def test_serre_accepts_a_shifted_left_factor(self, tmp_path):
        quotient = {"node": "quotient", "gens": [[[1, 1]]]}
        spec = dict(
            MINIMAL,
            module={"node": "shift", "module": quotient, "by": [[2, 1]]},
            module2=MINIMAL["module"],
        )
        result = run_cli("--command", "serre", spec=spec, tmp_path=tmp_path)
        assert result.returncode == EXIT_OK
        assert '"matches_tensor_product":true' in result.stdout

    def test_serre_accepts_a_nonlinear_left_factor(self, tmp_path):
        # R/(x1*x2) with itself: (1 - t^(e1+e2))^2
        spec = dict(MINIMAL, module2=MINIMAL["module"])
        result = run_cli("--command", "serre", spec=spec, tmp_path=tmp_path)
        assert (result.returncode, result.stderr) == (EXIT_OK, "")
        payload = json.loads(result.stdout)
        assert payload["coeffs"] == [[[], 1], [[[1, 1], [2, 1]], -2], [[[1, 2], [2, 2]], 1]]
        assert payload["matches_tensor_product"] is True

    def test_composite_characteristic_rejected(self, tmp_path):
        result = run_cli("--command", "betti", "--char", "6", spec=MINIMAL, tmp_path=tmp_path)
        assert result.returncode == EXIT_VALIDATION


def run_main(capsys, tmp_path, spec, *args):
    """Run the CLI in process; returns the exit code and the error record, if any."""
    path = tmp_path / "job.json"
    path.write_text(json.dumps(spec))
    code = cli.main(["--spec", str(path), *args])
    err = capsys.readouterr().err
    return code, (json.loads(err)["error"] if err else None)


# every command succeeds on this job in characteristic 0
EVERY_COMMAND = {
    "ring": {"columns": [1, 1]},
    "module": {"node": "quotient", "gens": [[[1, 1]]]},
    "module2": {"node": "quotient", "gens": [[[2, 1]]]},
    "series": [[[], 1], [[[1, 1]], -1]],
    "degree": [[1, 1], [2, 1]],
    "window": [[[1, 2], [2, 2]]],
}


class TestCharacteristic:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_valid_characteristics_run(self, command, capsys, tmp_path):
        for char in ("0", "3", "32003"):
            code, error = run_main(capsys, tmp_path, EVERY_COMMAND, "--command", command, "--char", char)
            assert (code, error) == (EXIT_OK, None), (command, char)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_bad_characteristic_rejected_by_every_command(self, command, capsys, tmp_path):
        for char in ("4", "1", "-3"):
            code, error = run_main(capsys, tmp_path, EVERY_COMMAND, "--command", command, "--char", char)
            assert code == EXIT_VALIDATION, (command, char)
            assert error == {"kind": "validation", "message": f"characteristic must be 0 or a prime, got {char}"}


class TestErrorKinds:
    """Exit code and error kind for each way a job can fail."""

    def test_missing_spec_file_is_io(self, capsys, tmp_path):
        code = cli.main(["--spec", str(tmp_path / "absent.json"), "--command", "kseries"])
        assert code == EXIT_PARSE
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "io"

    def test_unreduced_generators_are_a_parse_error(self, capsys, tmp_path):
        spec = dict(MINIMAL, module={"node": "ideal", "gens": [[[1, 1]], [[1, 1], [2, 1]]]})
        code, error = run_main(capsys, tmp_path, spec, "--command", "kseries")
        assert (code, error["kind"]) == (EXIT_PARSE, "parse")

    def test_chain_complex_error_is_validation(self, monkeypatch, capsys, tmp_path):
        def fail(*args, **kwargs):
            raise ChainComplexError("raised on purpose")

        monkeypatch.setattr(cli, "kseries", fail)
        code, error = run_main(capsys, tmp_path, MINIMAL, "--command", "kseries")
        assert (code, error["kind"]) == (EXIT_VALIDATION, "validation")

    @pytest.mark.parametrize("exc", [ValueError, KeyError])
    def test_library_bug_is_internal(self, exc, monkeypatch, capsys, tmp_path):
        def fail(*args, **kwargs):
            raise exc("raised on purpose")

        monkeypatch.setattr(cli, "kseries", fail)
        code, error = run_main(capsys, tmp_path, MINIMAL, "--command", "kseries")
        assert (code, error["kind"]) == (EXIT_INTERNAL, "internal")
        assert exc.__name__ in error["message"]



def variables_ring(*pairs) -> dict:
    return {"variables": [{"id": name, "degree": deg} for name, deg in pairs]}


# a ring the library refuses, and its validation message
INVALID_RINGS = [
    (variables_ring(("x", [[1, 1]]), ("y", [])), "variable y has degree 0; the ring would not be connected"),
    (
        variables_ring(("x", [[1, 1]]), ("y", [[1, 1], [2, -1]])),
        "variable y has degree e1-e2 outside the nonnegative orthant",
    ),
    (variables_ring(("x", [[1, 1]]), ("x", [[2, 1]])), "variable name x appears 2 times"),
    (
        variables_ring(("x", []), ("y", [[2, -1]]), ("x", [[2, 1]]), ("y", [[1, 1]])),
        "variable x has degree 0; the ring would not be connected; "
        "variable y has degree -e2 outside the nonnegative orthant; "
        "variable name x appears 2 times; variable name y appears 2 times",
    ),
]


class TestInvalidRing:
    """A ring that is not pointed and connected is a validation error, under every command."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_the_ring_alone_is_reported_byte_for_byte(self, command, capsys, tmp_path):
        for ring, message in INVALID_RINGS:
            path = tmp_path / "job.json"
            path.write_text(json.dumps(dict(EVERY_COMMAND, ring=ring)))
            code = cli.main(["--spec", str(path), "--command", command])
            captured = capsys.readouterr()
            assert (code, captured.out) == (EXIT_VALIDATION, ""), (command, message)
            assert captured.err == json.dumps({"error": {"kind": "validation", "message": message}}) + "\n"

    @pytest.mark.parametrize("ring, message", INVALID_RINGS)
    def test_with_a_malformed_field_the_ring_is_reported(self, ring, message, capsys, tmp_path):
        """The parser builds the ring, and a ring that cannot be built stops the parse.

        So a malformed field read before the ring (the window) or after it
        (a module) is not reported, and neither is a missing field.
        """
        module = {"node": "quotient", "gens": [[[9, 1]]]}
        for spec in (dict(EVERY_COMMAND, window=[]), dict(EVERY_COMMAND, module=module), {"ring": ring}):
            code, error = run_main(capsys, tmp_path, dict(spec, ring=ring), "--command", "kseries")
            assert (code, error) == (EXIT_VALIDATION, {"kind": "validation", "message": message}), spec
            with pytest.raises(RingValidationError, match=message):
                parse_spec(json.dumps(dict(spec, ring=ring)), command="kseries")

    @pytest.mark.parametrize("ring, message", INVALID_RINGS)
    def test_with_a_bad_characteristic_the_ring_is_reported(self, ring, message, capsys, tmp_path):
        """The ring is refused while the job is parsed, before ``run_job`` checks the characteristic."""
        spec = dict(EVERY_COMMAND, ring=ring)
        code, error = run_main(capsys, tmp_path, spec, "--command", "betti", "--char", "4")
        assert (code, error) == (EXIT_VALIDATION, {"kind": "validation", "message": message})

# A degree or generator the parser rejects, and a word of the rule it breaks.
BAD_DEGREES = [
    ({"1": 1}, "list"),
    ([[1, 1, 1]], "pair"),
    ([[1, True]], "integers"),
    ([[0, 1]], "strictly increasing"),
    ([[2, 1], [1, 1]], "strictly increasing"),
    ([[1, 0]], "zero coefficient"),
]
BAD_GENERATORS = [
    ({"1": 1}, "list"),
    ([[1]], "pair"),
    ([[True, 1]], "integers"),
    ([[0, 1]], "strictly increasing"),
    ([[2, 1], [2, 1]], "strictly increasing"),
    ([[1, 0]], "positive"),
    ([[1, -2]], "positive"),
    ([[3, 1]], "exceeds"),
]
# each field path, and a job that is valid except for that field
DEGREE_FIELDS = {
    "window[0]": lambda bad: dict(MINIMAL, window=[bad]),
    "ring.variables[0].degree": lambda bad: dict(
        MINIMAL, ring={"variables": [{"id": "x", "degree": bad}, {"id": "y", "degree": [[2, 1]]}]}
    ),
    "series[0].degree": lambda bad: dict(MINIMAL, series=[[bad, 1]]),
}
REJECTED_PAIRS = [
    pytest.param(field, build(bad), rule, id=f"{field}-{cli._compact(bad)}")
    for field, build in DEGREE_FIELDS.items()
    for bad, rule in BAD_DEGREES
] + [
    pytest.param(
        "module.gens[0]",
        dict(MINIMAL, module={"node": "quotient", "gens": [bad]}),
        rule,
        id=f"module.gens[0]-{cli._compact(bad)}",
    )
    for bad, rule in BAD_GENERATORS
]


class TestRejectedPairs:
    """Every malformed degree or generator is a positioned parse error naming its rule."""

    @pytest.mark.parametrize("field, spec, rule", REJECTED_PAIRS)
    def test_positioned_parse_error(self, field, spec, rule, capsys, tmp_path):
        with pytest.raises(SpecError) as info:
            parse_spec(json.dumps(spec), command="kseries")
        found = [message for where, message in info.value.errors if where.startswith(field)]
        assert len(found) == 1 and rule in found[0], info.value.errors
        code, error = run_main(capsys, tmp_path, spec, "--command", "kseries")
        assert (code, error["kind"]) == (EXIT_PARSE, "parse")
        assert any(detail["where"].startswith(field) for detail in error["details"])


# a command, a job that is valid except for one field, the place of its one error and a word of its rule
NO_MODULE = {"ring": MINIMAL["ring"], "window": MINIMAL["window"]}
MALFORMED_FIELDS = [
    ("euler-check", dict(MINIMAL, module={"node": "mystery"}), "module", "unknown"),
    ("euler-check", dict(MINIMAL, ring={"columns": [1, -1]}, sequence=[1]), "ring.columns", "nonnegative"),
    ("serre", dict(MINIMAL, module2={"node": "mystery"}), "module2", "unknown"),
    ("invert", dict(MINIMAL, series="1 - t"), "series", "list"),
    # series items
    ("invert", dict(MINIMAL, series=[[[], 1, 2]]), "series[0]", "pair"),
    ("invert", dict(MINIMAL, series=[[[], 1.5]]), "series[0]", "integer"),
    ("invert", dict(MINIMAL, series=[[[], True]]), "series[0]", "integer"),
    ("invert", dict(MINIMAL, series=[[[[1, -1]], 1]]), "series[0]", "orthant"),
    ("invert", dict(MINIMAL, series=[[[], 1], [[], 2]]), "series[1]", "duplicate"),
    # the sequence rule
    ("koszul-verify", dict(MINIMAL, sequence=[0]), "sequence", "positions"),
    ("koszul-verify", dict(MINIMAL, sequence=[3]), "sequence", "positions"),
    ("koszul-verify", dict(MINIMAL, sequence=[True]), "sequence", "positions"),
    ("koszul-verify", dict(MINIMAL, sequence="1"), "sequence", "positions"),
    # each command's required field
    ("hilbert", NO_MODULE, "module", "requires"),
    ("kseries", NO_MODULE, "module", "requires"),
    ("betti", NO_MODULE, "module", "requires"),
    ("euler-check", NO_MODULE, "module", "requires"),
    ("torsion-dim", dict(NO_MODULE, degree=[]), "module", "requires"),
    ("torsion-dim", MINIMAL, "degree", "requires"),
    ("serre", MINIMAL, "module", "requires"),
    ("serre", dict(NO_MODULE, module2=MINIMAL["module"]), "module", "requires"),
    ("invert", MINIMAL, "series", "requires"),
    # the window and the ring
    ("kseries", {"ring": MINIMAL["ring"], "module": MINIMAL["module"]}, "window", "required"),
    ("kseries", dict(MINIMAL, window=[]), "window", "nonempty"),
    ("kseries", dict(MINIMAL, window={"1": 1}), "window", "nonempty"),
    ("kseries", {"module": MINIMAL["module"], "window": MINIMAL["window"]}, "ring", "required"),
    ("kseries", dict(MINIMAL, ring=[1, 1]), "ring", "object"),
    ("kseries", dict(MINIMAL, ring={"columns": [1, 1], "variables": []}), "ring", "exactly"),
    ("kseries", dict(MINIMAL, ring={}), "ring", "exactly"),
    ("kseries", dict(MINIMAL, ring={"variables": "xy"}), "ring.variables", "list"),
    # ring variables
    ("kseries", dict(MINIMAL, ring={"variables": [{"degree": [[1, 1]]}]}), "ring.variables[0]", "needs"),
    ("kseries", dict(MINIMAL, ring={"variables": [{"id": "x"}]}), "ring.variables[0]", "needs"),
    ("kseries", dict(MINIMAL, ring={"variables": ["x"]}), "ring.variables[0]", "needs"),
    ("kseries", dict(MINIMAL, ring={"variables": [{"id": 1, "degree": [[1, 1]]}]}), "ring.variables[0]", "string"),
    # module nodes
    ("kseries", dict(MINIMAL, module=[]), "module", "object"),
    ("kseries", dict(MINIMAL, module={"node": "free", "shifts": "x"}), "module.shifts", "list"),
    ("kseries", dict(MINIMAL, module={"node": "free"}), "module.shifts", "list"),
    ("kseries", dict(MINIMAL, module={"node": "sum", "parts": None}), "module.parts", "list"),
    ("kseries", dict(MINIMAL, module={"node": "ideal", "gens": {}}), "module.gens", "list"),
    ("kseries", dict(MINIMAL, module={"node": "quotient"}), "module.gens", "list"),
    ("kseries", dict(MINIMAL, module={"node": "ideal", "gens": [[[1, 1]], [[1, 1], [2, 1]]]}), "module.gens", "reduced"),
    (
        "kseries",
        dict(MINIMAL, module={"node": "sum", "parts": [{"node": "free", "shifts": [[]]}, {"node": 1}]}),
        "module.parts[1]",
        "unknown",
    ),
    ("kseries", dict(MINIMAL, module={"node": "shift", "by": [], "module": {}}), "module.module", "object"),
    ("kseries", dict(MINIMAL, module={"node": "shift", "module": MINIMAL["module"]}), "module.by", "list"),
]


# a job that parses for kseries and whose fields lean on no other field, and its top-level fields
FIELD_PROOF_JOB = {"ring": {"columns": [1, 1]}, "module": {"node": "free", "shifts": [[]]}, "window": MINIMAL["window"]}
JOB_FIELDS = ("window", "ring", "module", "module2", "series", "sequence", "degree")
JOB_WORDS = st.sampled_from(
    ["node", "free", "shift", "sum", "ideal", "quotient", "shifts", "by", "module", "parts", "gens", "columns",
     "variables", "id", "degree"]
)
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | JOB_WORDS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(JOB_WORDS, inner, max_size=3),
    max_leaves=12,
)


class TestOneErrorPerProblem:
    """A malformed field is reported once, at that field, and nowhere else."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(JOB_FIELDS), JUNK)
    @example("window", [[[1, 0]], [[1, 0]]])
    @example("series", [[1], [[], True]])
    @example("module", {"node": "shift", "module": {"node": "mystery"}, "by": "x"})
    @example("ring", {"variables": [{"id": "free", "degree": []}]})
    def test_any_one_broken_field_gives_at_most_one_error_there(self, field, junk):
        try:
            parse_spec(json.dumps(dict(FIELD_PROOF_JOB, **{field: junk})), command="kseries")
        except SpecError as exc:
            assert [where.partition(".")[0].partition("[")[0] for where, _ in exc.errors] == [field], exc.errors
        except RingValidationError:
            assert field == "ring"  # a ring of well-formed but invalid variables is refused as it is built

    @pytest.mark.parametrize(
        "command, spec, field, rule",
        # ids in pytest's own form, without the rule word
        [pytest.param(*row, id=f"{row[0]}-spec{k}-{row[2]}") for k, row in enumerate(MALFORMED_FIELDS)],
    )
    def test_exactly_one_error_at_its_field(self, command, spec, field, rule):
        with pytest.raises(SpecError) as info:
            parse_spec(json.dumps(spec), command=command)
        assert [where for where, _ in info.value.errors] == [field], info.value.errors
        assert rule in info.value.errors[0][1], info.value.errors


def stdout_of(spec: dict, command: str) -> str:
    return cli.run_job(parse_spec(json.dumps(spec), command=command))


def written_out(columns: list[int]) -> dict:
    """The variables ring that the ring {"columns": columns} stands for."""
    return {
        "variables": [
            {"id": f"x[{i},{j}]", "degree": [[j, 1]]}
            for j, height in enumerate(columns, start=1)
            for i in range(1, height + 1)
        ]
    }


def sparse(vector) -> list:
    """A dense integer vector as [index, value] pairs."""
    return [[k, v] for k, v in enumerate(vector, start=1) if v]


@st.composite
def column_jobs(draw):
    """Columns, plus a module and a window whose ceiling may leave whole columns out."""
    columns = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3).filter(any))
    width, num_vars = len(columns), sum(columns)
    ceiling = draw(st.lists(st.integers(0, 2), min_size=width, max_size=width))
    if draw(st.booleans()):
        shift = st.lists(st.integers(-1, 1), min_size=width, max_size=width)
        module = {"node": "free", "shifts": [sparse(h) for h in draw(st.lists(shift, min_size=1, max_size=2))]}
    else:
        exponent = st.tuples(*[st.integers(0, 2)] * num_vars).filter(any)
        found = draw(st.lists(exponent, min_size=1, max_size=3, unique=True))
        # keep the minimal exponents, so the generators divide no one another
        gens = [e for e in found if not any(o != e and all(map(int.__le__, o, e)) for o in found)]
        module = {"node": "quotient", "gens": [sparse(e) for e in gens]}
    return columns, {"module": module, "window": [sparse(ceiling)]}


class TestColumnRing:
    """A column ring is its written-out variables ring, whatever the window."""

    SERIES_COMMANDS = ("hilbert", "kseries", "betti")

    def assert_same_as_written_out(self, columns, job):
        for command in self.SERIES_COMMANDS:
            by_columns = stdout_of(dict(job, ring={"columns": columns}), command)
            assert by_columns == stdout_of(dict(job, ring=written_out(columns)), command), command

    @pytest.mark.parametrize(
        "columns, job",
        [
            # x[1,2] lies outside the window; position 2 is still x[1,2], and 3 is x[1,3]
            ([1, 1, 1], {"module": {"node": "quotient", "gens": [[[2, 1]]]}, "window": [[[1, 1], [3, 1]]]}),
            ([1, 1, 1], {"module": {"node": "quotient", "gens": [[[3, 1]]]}, "window": [[[1, 1], [3, 1]]]}),
            # under a negative shift, x[1,2] reaches back into the window
            ([1, 1], {"module": {"node": "free", "shifts": [[[2, -1]]]}, "window": [[[1, 1]]]}),
        ],
    )
    def test_column_left_out_of_the_window(self, columns, job):
        self.assert_same_as_written_out(columns, job)

    @settings(max_examples=100, deadline=None)
    @given(column_jobs())
    def test_any_window(self, case):
        self.assert_same_as_written_out(*case)


SEQUENCE_JOB = {
    "ring": {"columns": [1, 1]},
    "module": {"node": "quotient", "gens": [[[1, 1]]]},
    "window": [[[1, 2], [2, 2]]],
}


class TestSequenceField:
    """``sequence`` is read as the set it names; only its absence means all variables."""

    def test_empty_sequence_is_the_module_alone(self):
        job = parse_spec(json.dumps(dict(SEQUENCE_JOB, sequence=[])), command="koszul-verify")
        complex_ = KoszulTensorComplex.of(job.module, job.ring, ())
        profile = homology_profile(complex_, job.window)
        assert json.loads(cli.run_job(job))["homology"] == [[g.to_json(), list(dims)] for g, dims in profile]
        job = parse_spec(json.dumps(dict(SEQUENCE_JOB, sequence=[])), command="euler-check")
        rows = json.loads(cli.run_job(job))["rows"]
        assert rows == [[g.to_json(), terms, homology] for g, terms, homology in euler_profile(complex_, job.window)]

    @pytest.mark.parametrize("command", ["koszul-verify", "euler-check"])
    def test_repeats_and_order_do_not_matter(self, command):
        canonical = stdout_of(dict(SEQUENCE_JOB, sequence=[1, 2]), command)
        assert stdout_of(dict(SEQUENCE_JOB, sequence=[2, 1, 2]), command) == canonical
        assert stdout_of(SEQUENCE_JOB, command) == canonical


class TestGolden:
    cases = [
        ("betti_xy.json", "kseries", "json", "kseries_xy.json.golden"),
        ("betti_xy.json", "betti", "json", "betti_xy.json.golden"),
        ("betti_xy.json", "betti", "csv", "betti_xy.csv.golden"),
        ("serre_xz.json", "serre", "json", "serre_xz.json.golden"),
        ("koszul_m3.json", "koszul-verify", "json", "koszul_m3.json.golden"),
        ("betti_xy.json", "hilbert", "json", "hilbert_xy.json.golden"),
        ("betti_xy.json", "hilbert", "csv", "hilbert_xy.csv.golden"),
        ("betti_xy.json", "hilbert", "table", "hilbert_xy.table.golden"),
        ("betti_xy.json", "kseries", "csv", "kseries_xy.csv.golden"),
        ("betti_xy.json", "kseries", "table", "kseries_xy.table.golden"),
        ("invert_xy.json", "invert", "json", "invert_xy.json.golden"),
        ("invert_xy.json", "invert", "csv", "invert_xy.csv.golden"),
        ("invert_xy.json", "invert", "table", "invert_xy.table.golden"),
        ("betti_xy.json", "betti", "table", "betti_xy.table.golden"),
        ("torsion_xy.json", "torsion-dim", "json", "torsion_xy.json.golden"),
        ("torsion_xy.json", "torsion-dim", "csv", "torsion_xy.csv.golden"),
        ("torsion_xy.json", "torsion-dim", "table", "torsion_xy.table.golden"),
        ("serre_xz.json", "serre", "csv", "serre_xz.csv.golden"),
        ("serre_xz.json", "serre", "table", "serre_xz.table.golden"),
        ("koszul_m3.json", "koszul-verify", "csv", "koszul_m3.csv.golden"),
        ("koszul_m3.json", "koszul-verify", "table", "koszul_m3.table.golden"),
        ("betti_xy.json", "euler-check", "json", "euler_xy.json.golden"),
        ("betti_xy.json", "euler-check", "csv", "euler_xy.csv.golden"),
        ("betti_xy.json", "euler-check", "table", "euler_xy.table.golden"),
        # a module that vanishes on its window: empty series, table and profile
        ("zero_window.json", "hilbert", "table", "hilbert_zero.table.golden"),
        ("zero_window.json", "betti", "table", "betti_zero.table.golden"),
        ("zero_window.json", "koszul-verify", "table", "koszul_zero.table.golden"),
    ]

    @pytest.mark.parametrize("spec,command,output,golden", cases)
    def test_byte_identical_across_runs_and_threads(self, spec, command, output, golden):
        expected = (GOLDEN / golden).read_bytes()
        for threads in ("1", "2"):
            result = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "bdfkalc",
                    "--spec",
                    str(GOLDEN / spec),
                    "--command",
                    command,
                    "--output",
                    output,
                    "--threads",
                    threads,
                ],
                capture_output=True,
            )
            assert result.returncode == 0, result.stderr
            assert result.stdout == expected
