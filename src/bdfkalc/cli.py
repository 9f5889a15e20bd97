"""Batch front end: parse a JSON job, run one computation, emit results.

One job per invocation.  Output is deterministic for identical jobs
(stable ordering everywhere, no timestamps), so results can be used as
golden files.  Exit codes: 0 success, 2 parse error, 3 validation error,
4 window error, 1 anything else; failures print a structured error
record to stderr.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

from .degrees import Degree, Window, WindowError
from .grothendieck import class_of, product, serre_product
from .homology import (
    ChainComplexError,
    KoszulTensorComplex,
    betti_table,
    euler_profile,
    homology_profile,
    torsion_dimension,
)
from .linalg import CharacteristicError, check_characteristic
from .modules import (
    DirectSum,
    FreeModule,
    ModuleExpr,
    Monomial,
    MonomialIdeal,
    MonomialQuotient,
    RING_MODULE,
    RingSpec,
    RingValidationError,
    ShiftedModule,
    hilbert,
    kseries,
    monomial,
)
from .series import NotInvertibleError, QSeries, invert, truncate
from .values import Record

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_WINDOW = 4

COMMANDS = (
    "hilbert",
    "kseries",
    "betti",
    "torsion-dim",
    "serre",
    "koszul-verify",
    "invert",
    "euler-check",
)


class SpecError(Exception):
    """Parse failure; carries one positioned problem for each malformed field."""

    def __init__(self, errors: list[tuple[str, str]]):
        self.errors = errors
        super().__init__("; ".join(f"{where}: {message}" for where, message in errors))


class JobSpec(Record):
    """One parsed job; unlike the library's values its fields may be reassigned."""

    _fields = ("command", "ring", "window", "module", "module2", "series_terms", "sequence", "degree", "output",
               "characteristic")
    __hash__ = None

    def __init__(self, command: str, ring: RingSpec, window: Window, module: ModuleExpr | None = None,
                 module2: ModuleExpr | None = None, series_terms: dict[Degree, int] | None = None,
                 sequence: tuple[int, ...] | None = None, degree: Degree | None = None,
                 output: str = "json", characteristic: int = 0) -> None:
        self._set(command, ring, window, module, module2, series_terms, sequence, degree, output, characteristic)


class _Broken(Exception):
    """The first rule a job field breaks, as ``(where, message)``."""


def _each(data, where: str, message: str, parse, *args) -> list:
    """``parse(item, where[k], *args)`` for each item of ``data``, which must be a list (else ``message``)."""
    if not isinstance(data, list):
        raise _Broken(where, message)
    items = []
    for k, item in enumerate(data):  # a loop, not a comprehension: one frame fewer per level of nesting
        items.append(parse(item, f"{where}[{k}]", *args))
    return items


def _pair(data, where: str, fields: str) -> tuple[int, int]:
    if not isinstance(data, list) or len(data) != 2 or any(type(x) is not int for x in data):
        raise _Broken(where, f"expected a [{fields}] pair of integers")
    return tuple(data)


def _parse_pairs(build, data, where: str, what: str, fields: str):
    """``build`` applied to a list of [int, int] pairs.

    Only the shape is checked here; the pairs' own rules (index order, sign)
    are checked by ``build``, whose ValueError is reported at ``where``.
    """
    pairs = _each(data, where, f"{what} must be a list of [{fields}] pairs", _pair, fields)
    try:
        return build(tuple(pairs))
    except ValueError as exc:
        raise _Broken(where, str(exc)) from exc


def _parse_degree(data, where: str) -> Degree:
    return _parse_pairs(Degree, data, where, "degree", "index, coefficient")


def _parse_exponents(data, where: str, num_vars: int) -> Monomial:
    gen = _parse_pairs(monomial, data, where, "generator", "position, exponent")
    if gen.max_index() > num_vars:
        raise _Broken(where, f"position {gen.max_index()} exceeds the {num_vars} ring variables")
    return gen


def _parse_window(data, where: str) -> Window:
    message = "a nonempty list of ceiling degrees is required"
    if not data:
        raise _Broken(where, message)
    return Window.of(_each(data, where, message, _parse_degree))


def _parse_variable(data, where: str) -> tuple[str, Degree]:
    if not isinstance(data, dict) or "id" not in data or "degree" not in data:
        raise _Broken(where, "variable needs 'id' and 'degree'")
    if not isinstance(data["id"], str):
        raise _Broken(where, "variable id must be a string")
    return data["id"], _parse_degree(data["degree"], f"{where}.degree")


def _parse_ring(data, where: str) -> RingSpec:
    if not isinstance(data, dict):
        raise _Broken(where, "ring must be an object")
    if ("columns" in data) == ("variables" in data):
        raise _Broken(where, "ring needs exactly one of 'columns' or 'variables'")
    if "variables" in data:
        return RingSpec.of(_each(data["variables"], f"{where}.variables", "must be a list", _parse_variable))
    columns = data["columns"]
    if not isinstance(columns, list) or any(isinstance(c, bool) or not isinstance(c, int) or c < 0 for c in columns):
        raise _Broken(f"{where}.columns", "column sizes must be nonnegative integers")
    return RingSpec.matrix_ring(columns)


def _parse_module(data, where: str, ring: RingSpec) -> ModuleExpr:
    if not isinstance(data, dict) or "node" not in data:
        raise _Broken(where, "module must be an object with a 'node' tag")
    tag = data["node"]
    if tag == "free":
        message = "free module needs a list of shift degrees"
        return FreeModule.of(_each(data.get("shifts"), f"{where}.shifts", message, _parse_degree))
    if tag == "shift":
        return ShiftedModule(_parse_module(data.get("module"), f"{where}.module", ring),
                             _parse_degree(data.get("by"), f"{where}.by"))
    if tag == "sum":
        parts = _each(data.get("parts"), f"{where}.parts", "sum needs a list of parts", _parse_module, ring)
        return DirectSum.of(parts)
    if tag in ("ideal", "quotient"):
        message = f"{tag} needs a list of generators"
        gens = _each(data.get("gens"), f"{where}.gens", message, _parse_exponents, len(ring.variables))
        try:
            return (MonomialIdeal.of if tag == "ideal" else MonomialQuotient.of)(gens)
        except ValueError as exc:
            raise _Broken(f"{where}.gens", str(exc)) from exc
    raise _Broken(where, f"unknown module node tag {tag!r}")


def _parse_series(data, where: str) -> dict[Degree, int]:
    terms: dict[Degree, int] = {}

    def term(item, spot: str) -> None:
        if not isinstance(item, list) or len(item) != 2:
            raise _Broken(spot, "expected a [degree, coefficient] pair")
        deg, coeff = _parse_degree(item[0], f"{spot}.degree"), item[1]
        if isinstance(coeff, bool) or not isinstance(coeff, int):
            raise _Broken(spot, "coefficient must be an integer")
        if not deg.is_nonnegative():
            raise _Broken(spot, "series terms must lie in the nonnegative orthant")
        if deg in terms:
            raise _Broken(spot, f"duplicate term at degree {deg}")
        terms[deg] = coeff

    _each(data, where, "series must be a list of [degree, coefficient] pairs", term)
    return terms


def _parse_sequence(data, where: str, num_vars: float) -> tuple[int, ...]:
    if not isinstance(data, list) or any(
        isinstance(x, bool) or not isinstance(x, int) or not 1 <= x <= num_vars for x in data
    ):
        raise _Broken(where, "sequence must list valid 1-based variable positions")
    return tuple(data)


def parse_spec(
    text: str,
    command: str | None = None,
    output: str = "json",
    characteristic: int = 0,
    threads: int | None = None,
) -> JobSpec:
    """Parse and fully validate a job file.

    Raises SpecError with one error for each malformed field, at the first
    rule that field breaks.  A well-formed ring that ``RingSpec`` refuses
    raises its RingValidationError as it is built, which ends the parse.
    ``threads`` is accepted for compatibility and ignored: every job runs
    on one thread.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError([(f"line {exc.lineno} column {exc.colno}", exc.msg)]) from exc
    except RecursionError as exc:
        raise SpecError([("$", "job spec is nested too deeply to parse")]) from exc
    if not isinstance(data, dict):
        raise SpecError([("$", "job spec must be a JSON object")])

    errors: list[tuple[str, str]] = []
    fields: dict = {}

    def read(name: str, parse, *args) -> None:
        try:
            fields[name] = parse(data.get(name), name, *args)
        except _Broken as exc:
            errors.append(exc.args)
        except RecursionError:
            errors.append((name, "nested too deeply to parse"))

    chosen = command or data.get("command")
    if chosen not in COMMANDS:
        errors.append(("command", f"unknown command {chosen!r}; choose from {', '.join(COMMANDS)}"))
    read("window", _parse_window)
    if "ring" in data:
        read("ring", _parse_ring)
    else:
        errors.append(("ring", "a ring is required"))
    # a ring that failed to parse has its own error: no module is read, and it bounds no position
    for name in ("module", "module2"):
        if name in data and "ring" in fields:
            read(name, _parse_module, fields["ring"])
    if "series" in data:
        read("series", _parse_series)
    if "sequence" in data:
        read("sequence", _parse_sequence, len(fields["ring"].variables) if "ring" in fields else float("inf"))
    if "degree" in data:
        read("degree", _parse_degree)

    # command-specific arity: a field that is present but malformed has its own error
    if chosen in ("hilbert", "kseries", "betti", "torsion-dim", "euler-check") and "module" not in data:
        errors.append(("module", f"{chosen} requires a module"))
    if chosen == "torsion-dim" and "degree" not in data:
        errors.append(("degree", "torsion-dim requires a target degree"))
    if chosen == "serre" and not ("module" in data and "module2" in data):
        errors.append(("module", "serre requires both 'module' and 'module2'"))
    if chosen == "invert" and "series" not in data:
        errors.append(("series", "invert requires a series"))

    if errors:
        raise SpecError(errors)

    return JobSpec(
        command=chosen,
        ring=fields["ring"],
        window=fields["window"],
        module=fields.get("module"),
        module2=fields.get("module2"),
        series_terms=fields.get("series"),
        sequence=fields.get("sequence"),
        degree=fields.get("degree"),
        output=output,
        characteristic=characteristic,
    )


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _compact(value) -> str:
    """A JSON value as one csv cell."""
    return json.dumps(value, separators=(",", ":"))


def _render(
    output: str,
    payload: dict,
    csv_header: list[str],
    csv_rows: list[list],
    table_lines: list[str],
) -> str:
    """A job's result in the chosen format: one JSON record, csv rows or table lines."""
    if output == "json":
        return _dump_json(payload)
    if output == "csv":
        import csv  # only csv output needs it; leave it out of every other job's start-up

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(csv_header)
        writer.writerows(csv_rows)
        return buffer.getvalue()
    return "".join(line + "\n" for line in table_lines)


def _series_view(series, extra: dict | None = None) -> tuple:
    """The ``_render`` arguments after ``output`` for a windowed series."""
    payload = series.to_json()
    payload.update(extra or {})
    lines = [f"{'degree':<18} coefficient"]
    lines += [f"{str(g):<18} {c}" for g, c in series.terms]
    if not series.terms:
        lines.append("(zero on this window)")
    rows = [[_compact(g.to_json()), c] for g, c in series.terms]
    return payload, ["degree", "coefficient"], rows, lines


def run_job(job: JobSpec) -> str:
    check_characteristic(job.characteristic)
    command, output = job.command, job.output

    if command == "hilbert":
        return _render(output, *_series_view(hilbert(job.module, job.ring, job.window)))

    if command == "kseries":
        return _render(output, *_series_view(kseries(job.module, job.ring, job.window)))

    if command == "invert":
        inverse = invert(QSeries.from_terms(job.series_terms))
        return _render(output, *_series_view(truncate(inverse, job.window)))

    if command == "betti":
        table = betti_table(job.module, job.ring, job.window, job.characteristic)
        rows = [[i, g.to_json(), value] for i, g, value in table.entries]
        return _render(
            output,
            {"rows": rows},
            ["i", "degree", "beta"],
            [[i, _compact(g), value] for i, g, value in rows],
            str(table).splitlines(),
        )

    if command == "torsion-dim":
        value = torsion_dimension(
            job.module, job.ring, job.degree, job.window, job.characteristic
        )
        return _render(
            output,
            {
                "degree": job.degree.to_json(),
                "torsion_dimension": value,
                "projective_dimension": value,
            },
            ["degree", "torsion_dimension", "projective_dimension"],
            [[_compact(job.degree.to_json()), value, value]],
            [f"torsion dimension at {job.degree} = {value} (= projective dimension)"],
        )

    if command == "serre":
        left = serre_product(
            job.module, job.module2, job.ring, job.window, job.characteristic
        )
        right = product(
            class_of(job.module, job.ring, job.window),
            class_of(job.module2, job.ring, job.window),
        )
        matches = left == right
        extra = {"provenance": left.provenance, "matches_tensor_product": matches}
        payload, header, rows, lines = _series_view(left.series, extra)
        return _render(
            output, payload, header, rows, lines + [f"matches tensor product: {matches}"]
        )

    if command == "koszul-verify":
        module = job.module if job.module is not None else RING_MODULE
        complex_ = KoszulTensorComplex.of(module, job.ring, job.sequence)
        profile = homology_profile(complex_, job.window, job.characteristic)
        exact_positive = all(all(h == 0 for h in dims[1:]) for _, dims in profile)
        return _render(
            output,
            {
                "homology": [[g.to_json(), list(dims)] for g, dims in profile],
                "exact_in_positive_indices": exact_positive,
            },
            ["degree", "i", "dimension"],
            [[_compact(g.to_json()), i, h] for g, dims in profile for i, h in enumerate(dims)],
            [f"{'degree':<18} homology dimensions"]
            + [f"{str(g):<18} {list(dims)}" for g, dims in profile]
            + [f"exact in positive indices: {exact_positive}"],
        )

    if command == "euler-check":
        complex_ = KoszulTensorComplex.of(job.module, job.ring, job.sequence)
        rows = euler_profile(complex_, job.window, job.characteristic)
        equal = all(terms == homology for _, terms, homology in rows)
        return _render(
            output,
            {
                "rows": [[g.to_json(), terms, homology] for g, terms, homology in rows],
                "equal": equal,
            },
            ["degree", "terms", "homology"],
            [[_compact(g.to_json()), terms, homology] for g, terms, homology in rows],
            [f"{'degree':<18} {'terms':>8} {'homology':>10}"]
            + [f"{str(g):<18} {terms:>8} {homology:>10}" for g, terms, homology in rows]
            + [f"equal: {equal}"],
        )

    raise ValueError(f"unhandled command {command!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bdfkalc",
        description="Exact multigraded series, Koszul homology, Betti tables, "
        "and Grothendieck-ring K-series on finite degree windows.",
    )
    parser.add_argument("--spec", required=True, help="path to the JSON job file ('-' for stdin)")
    parser.add_argument("--command", choices=COMMANDS, help="overrides the job file's command")
    parser.add_argument("--output", choices=("json", "csv", "table"), default="json")
    parser.add_argument("--threads", type=int, default=None, help="ignored; every job runs on one thread")
    parser.add_argument("--char", type=int, default=0, help="coefficient field characteristic: 0 or a prime")
    return parser


def _emit_error(kind: str, message: str, details=None) -> None:
    record = {"error": {"kind": kind, "message": message}}
    if details:
        record["error"]["details"] = details
    sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.spec == "-":
            text = sys.stdin.buffer.read().decode("utf-8")
        else:
            with open(args.spec, "r", encoding="utf-8") as handle:
                text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        _emit_error("io", str(exc))
        return EXIT_PARSE
    try:
        job = parse_spec(
            text,
            command=args.command,
            output=args.output,
            characteristic=args.char,
        )
        sys.stdout.write(run_job(job))
        return EXIT_OK
    except SpecError as exc:
        _emit_error(
            "parse",
            "job spec is invalid",
            details=[{"where": where, "message": message} for where, message in exc.errors],
        )
        return EXIT_PARSE
    except (
        RingValidationError,
        NotInvertibleError,
        ChainComplexError,
        CharacteristicError,
    ) as exc:
        _emit_error("validation", str(exc))
        return EXIT_VALIDATION
    except WindowError as exc:
        _emit_error("window", str(exc))
        return EXIT_WINDOW
    except Exception as exc:
        _emit_error("internal", f"{type(exc).__name__}: {exc}")
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
