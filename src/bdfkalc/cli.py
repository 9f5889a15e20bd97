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
from .grothendieck import (
    UnsupportedResolutionError,
    class_of,
    product,
    serre_product,
)
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
    require_valid,
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
    """Parse failure; carries every positioned problem found."""

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


def _parse_pairs(build, data, what: str, fields: str, where: str, errors: list):
    """``build`` applied to a list of [int, int] pairs, or None with a positioned error.

    Only the shape is checked here; the pairs' own rules (index order, sign)
    are checked by ``build``, whose ValueError is reported at ``where``.
    """
    if not isinstance(data, list):
        errors.append((where, f"{what} must be a list of [{fields}] pairs"))
        return None
    for k, pair in enumerate(data):
        if not isinstance(pair, list) or len(pair) != 2 or any(type(x) is not int for x in pair):
            errors.append((f"{where}[{k}]", f"expected a [{fields}] pair of integers"))
            return None
    try:
        return build(tuple(map(tuple, data)))
    except ValueError as exc:
        errors.append((where, str(exc)))
        return None


def _parse_degree(data, where: str, errors: list) -> Degree | None:
    return _parse_pairs(Degree, data, "degree", "index, coefficient", where, errors)


def _parse_exponents(data, num_vars: int, where: str, errors: list) -> Monomial | None:
    gen = _parse_pairs(monomial, data, "generator", "position, exponent", where, errors)
    top = gen.max_index() if gen is not None else 0
    if top > num_vars:
        errors.append((where, f"position {top} exceeds the {num_vars} ring variables"))
        return None
    return gen


def _parse_ring(data, where: str, errors: list) -> RingSpec | None:
    if not isinstance(data, dict):
        errors.append((where, "ring must be an object"))
        return None
    if ("columns" in data) == ("variables" in data):
        errors.append((where, "ring needs exactly one of 'columns' or 'variables'"))
        return None
    if "columns" in data:
        columns = data["columns"]
        if not isinstance(columns, list) or any(
            isinstance(c, bool) or not isinstance(c, int) or c < 0 for c in columns
        ):
            errors.append((f"{where}.columns", "column sizes must be nonnegative integers"))
            return None
        return RingSpec.matrix_ring(columns)
    variables = data["variables"]
    if not isinstance(variables, list):
        errors.append((f"{where}.variables", "must be a list"))
        return None
    pairs = []
    for k, item in enumerate(variables):
        spot = f"{where}.variables[{k}]"
        if not isinstance(item, dict) or "id" not in item or "degree" not in item:
            errors.append((spot, "variable needs 'id' and 'degree'"))
            return None
        if not isinstance(item["id"], str):
            errors.append((spot, "variable id must be a string"))
            return None
        deg = _parse_degree(item["degree"], f"{spot}.degree", errors)
        if deg is None:
            return None
        pairs.append((item["id"], deg))
    return RingSpec.of(pairs)


def _parse_module(data, ring: RingSpec, where: str, errors: list) -> ModuleExpr | None:
    if not isinstance(data, dict) or "node" not in data:
        errors.append((where, "module must be an object with a 'node' tag"))
        return None
    tag = data["node"]
    num_vars = len(ring.variables)
    if tag == "free":
        shifts = []
        raw = data.get("shifts")
        if not isinstance(raw, list):
            errors.append((f"{where}.shifts", "free module needs a list of shift degrees"))
            return None
        for k, item in enumerate(raw):
            deg = _parse_degree(item, f"{where}.shifts[{k}]", errors)
            if deg is None:
                return None
            shifts.append(deg)
        return FreeModule.of(shifts)
    if tag == "shift":
        inner = _parse_module(data.get("module"), ring, f"{where}.module", errors)
        by = _parse_degree(data.get("by"), f"{where}.by", errors)
        if inner is None or by is None:
            return None
        return ShiftedModule(inner, by)
    if tag == "sum":
        raw = data.get("parts")
        if not isinstance(raw, list):
            errors.append((f"{where}.parts", "sum needs a list of parts"))
            return None
        parts = []
        for k, item in enumerate(raw):
            part = _parse_module(item, ring, f"{where}.parts[{k}]", errors)
            if part is None:
                return None
            parts.append(part)
        return DirectSum.of(parts)
    if tag in ("ideal", "quotient"):
        raw = data.get("gens")
        if not isinstance(raw, list):
            errors.append((f"{where}.gens", f"{tag} needs a list of generators"))
            return None
        gens = []
        for k, item in enumerate(raw):
            gen = _parse_exponents(item, num_vars, f"{where}.gens[{k}]", errors)
            if gen is None:
                return None
            gens.append(gen)
        builder = MonomialIdeal.of if tag == "ideal" else MonomialQuotient.of
        try:
            return builder(gens)
        except ValueError as exc:
            errors.append((f"{where}.gens", str(exc)))
            return None
    errors.append((where, f"unknown module node tag {tag!r}"))
    return None


def parse_spec(
    text: str,
    command: str | None = None,
    output: str = "json",
    characteristic: int = 0,
    threads: int | None = None,
) -> JobSpec:
    """Parse and fully validate a job file; raises SpecError listing every problem.

    ``threads`` is accepted for compatibility and ignored: every job runs on one thread.
    """
    errors: list[tuple[str, str]] = []
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError([(f"line {exc.lineno} column {exc.colno}", exc.msg)]) from exc
    except RecursionError as exc:
        raise SpecError([("$", "job spec is nested too deeply to parse")]) from exc
    if not isinstance(data, dict):
        raise SpecError([("$", "job spec must be a JSON object")])

    chosen = command or data.get("command")
    if chosen not in COMMANDS:
        errors.append(("command", f"unknown command {chosen!r}; choose from {', '.join(COMMANDS)}"))

    window = None
    raw_window = data.get("window")
    if not isinstance(raw_window, list) or not raw_window:
        errors.append(("window", "a nonempty list of ceiling degrees is required"))
    else:
        ceiling = []
        for k, item in enumerate(raw_window):
            deg = _parse_degree(item, f"window[{k}]", errors)
            if deg is not None:
                ceiling.append(deg)
        if len(ceiling) == len(raw_window):
            window = Window.of(ceiling)

    ring = None
    if "ring" not in data:
        errors.append(("ring", "a ring is required"))
    else:
        ring = _parse_ring(data["ring"], "ring", errors)

    module = module2 = None
    if ring is not None and "module" in data:
        module = _parse_module(data["module"], ring, "module", errors)
    if ring is not None and "module2" in data:
        module2 = _parse_module(data["module2"], ring, "module2", errors)

    series_terms = None
    if "series" in data:
        raw = data["series"]
        if not isinstance(raw, list):
            errors.append(("series", "series must be a list of [degree, coefficient] pairs"))
        else:
            series_terms = {}
            for k, item in enumerate(raw):
                spot = f"series[{k}]"
                if not isinstance(item, list) or len(item) != 2:
                    errors.append((spot, "expected a [degree, coefficient] pair"))
                    continue
                deg = _parse_degree(item[0], f"{spot}.degree", errors)
                coeff = item[1]
                if isinstance(coeff, bool) or not isinstance(coeff, int):
                    errors.append((spot, "coefficient must be an integer"))
                    continue
                if deg is None:
                    continue
                if not deg.is_nonnegative():
                    errors.append((spot, "series terms must lie in the nonnegative orthant"))
                    continue
                if deg in series_terms:
                    errors.append((spot, f"duplicate term at degree {deg}"))
                    continue
                series_terms[deg] = coeff

    sequence = None
    if "sequence" in data:
        raw = data["sequence"]
        # a ring that failed to parse has its own error, so it bounds no position
        if not isinstance(raw, list) or any(
            isinstance(x, bool)
            or not isinstance(x, int)
            or x < 1
            or (ring is not None and x > len(ring.variables))
            for x in raw
        ):
            errors.append(("sequence", "sequence must list valid 1-based variable positions"))
        else:
            sequence = tuple(raw)

    target_degree = None
    if "degree" in data:
        target_degree = _parse_degree(data["degree"], "degree", errors)

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
        ring=ring,
        window=window,
        module=module,
        module2=module2,
        series_terms=series_terms,
        sequence=sequence,
        degree=target_degree,
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
    require_valid(job.ring)
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
        rows = [[i, g.to_json(), value] for i, g, value in table.rows()]
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
        UnsupportedResolutionError,
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
