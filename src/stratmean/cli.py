"""Command-line front end: dataset ingestion, analysis commands, reports.

Commands
--------
moments    combined design moments of a dataset
estimate   point estimates from observed combined sample means
mse        first-order MSE/bias/PRE at given (or optimal) constants
optimize   ``mse`` with k1/k2 at their MSE-optimal values; it has no
           ``--k1``/``--k2`` flags
table      ``mse`` on ``--data``; ``--paper-layout`` puts both embedded
           designs side by side in the original column layout, and takes
           no data, format, estimator or constant flags
simulate   Monte Carlo agreement report: draws from a ``microdata-csv``
           file's own units, or from a population synthesized to match
           the design's stratum moments

Each command is one path from flags to report: ``build_parser`` holds every
flag and default, the handler that the subcommand names with ``set_defaults``
reads the parsed ``Namespace`` and builds rows, and ``_write_report`` renders
them.  ``mse``, ``optimize`` and ``table`` share one handler.

Datasets are either embedded ids (``paper-1``, ``paper-2``) or files:
``summary-json`` (top-level ``{label?, known_mean_x?, strata: [...]}`` with
per-stratum ``{index?, N, n, mean_y, mean_x, var_y, var_x, cov_xy | rho}``;
any other key is rejected) or
``microdata-csv`` (header ``stratum,y,x``; per-stratum sample sizes in a
``<file>.n.json`` sidecar mapping stratum label to n).  The data rows of a
CSV are read by one ``numpy.loadtxt`` call, which alone decides whether the
file is accepted; rows are then grouped by stratum with a stable sort, so
each stratum keeps file order.  Only a file that ``loadtxt`` rejected is
scanned again line by line, to name the first bad line in the error.

Every failure prints one ``error:<code>: message`` line on stderr.  Exit
codes: 0 ok, 2 usage (a bad or missing flag, a numeric flag that is not a
finite number, an unknown or empty ``--estimators`` list, a partial set
of constants such as ``--p`` without ``--a``/``--b``, or an ``--out`` that
cannot be written), 3 data (an input that cannot be read included),
4 computation (a population too large to allocate included), 5 failed
strict verdict.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import os
import re
import sys
import warnings
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import montecarlo
from .datasets import EMBEDDED, get_dataset
from .design import (
    DesignSummary,
    Microdata,
    MicrodataStratum,
    aggregate_moments,
    as_count,
    design_from_microdata,
    StratumSummary,
)
from .errors import (
    ParseError, SchemaError, StratmeanError, UnknownDataset, UsageError, ValidationError
)
from .estimators import EstimatorKind, EstimatorSpec, estimate as estimate_point
from .mse import analyze, default_table_specs, efficiency_table, resolve_spec

# ---------------------------------------------------------------------------
# ingestion


def _finite(value) -> float:
    """A JSON number as a float; strings, booleans, NaN, infinities and
    overflow (a float literal such as 1e999 or an integer beyond 2**1024)
    are rejected."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if abs(value) <= sys.float_info.max:  # exact for ints; false for NaN
            return float(value)
    raise ValueError(f"expected a finite number, got {value!r}")


def _json_int(text: str) -> int | float:
    """A JSON integer; past int()'s digit limit, a float (inf) to reject."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _count(value) -> int:
    """A JSON count as an int, by the design's count rule (``as_count``)."""
    try:
        return as_count(value, "count")
    except ValidationError:
        raise ValueError(f"expected an integer count, got {value!r}") from None


#: The keys a summary-json document may hold, at the top level and per stratum.
_DOC_KEYS = {"label", "known_mean_x", "strata"}
_STRATUM_KEYS = {"index", "N", "n", "mean_y", "mean_x", "var_y", "var_x", "cov_xy", "rho"}


def _unique_keys(pairs: list[tuple]) -> dict:
    """A ``json`` ``object_pairs_hook``: the pairs as a dict, or KeyError on
    a key given twice, of which ``json`` alone keeps the last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise KeyError(key)
        obj[key] = value
    return obj


def _unreadable(path: str | Path, exc: OSError | RecursionError) -> ParseError:
    """The ParseError for a file that cannot be opened, or a JSON document
    nested too deeply for ``json`` to parse."""
    if isinstance(exc, FileNotFoundError):
        return ParseError(f"{path}: file not found")
    if isinstance(exc, RecursionError):
        return ParseError(f"{path}: nested too deeply")
    return ParseError(f"{path}: {exc.strerror or exc}")


def _summary_from_json(path: str) -> DesignSummary:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh, parse_int=_json_int, object_pairs_hook=_unique_keys)
    except (OSError, RecursionError) as exc:
        raise _unreadable(path, exc) from None
    except KeyError as exc:
        raise SchemaError(f"{path}: field {exc.args[0]!r} given twice") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from None
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not UTF-8 text") from None
    if not isinstance(payload, dict) or not isinstance(payload.get("strata"), list):
        raise SchemaError(f"{path}: top level must be an object with a 'strata' list")
    unknown = sorted(payload.keys() - _DOC_KEYS)
    if unknown:
        raise SchemaError(f"{path}: top level: unknown field {', '.join(unknown)}")
    strata = []
    for pos, row in enumerate(payload["strata"], start=1):
        if not isinstance(row, dict):
            raise SchemaError(f"{path}: stratum {pos} is not an object")
        unknown = sorted(row.keys() - _STRATUM_KEYS)
        if unknown:
            raise SchemaError(f"{path}: stratum {pos}: unknown field {', '.join(unknown)}")
        if ("cov_xy" in row) == ("rho" in row):
            raise SchemaError(f"{path}: stratum {pos} needs exactly one of cov_xy or rho")
        try:
            common = dict(
                index=_count(row.get("index", pos)),
                N=_count(row["N"]),
                n=_count(row["n"]),
                mean_y=_finite(row["mean_y"]),
                mean_x=_finite(row["mean_x"]),
                var_y=_finite(row["var_y"]),
                var_x=_finite(row["var_x"]),
            )
            if "rho" in row:
                stratum = StratumSummary.from_correlation(
                    rho=_finite(row["rho"]), **common
                )
            else:
                stratum = StratumSummary(cov_xy=_finite(row["cov_xy"]), **common)
        except KeyError as exc:
            raise SchemaError(f"{path}: stratum {pos} missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{path}: stratum {pos}: {exc}") from None
        strata.append(stratum)
    known = payload.get("known_mean_x")
    if known is not None:
        try:
            known = _finite(known)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{path}: known_mean_x: {exc}") from None
    return DesignSummary(
        tuple(strata), known_mean_x=known, label=str(payload.get("label", Path(path).stem))
    )


#: One data row of a ``microdata-csv`` file.
_CSV_ROW = np.dtype([("s", np.int64), ("y", float), ("x", float)])

# The cell syntax numpy's loadtxt accepts: ASCII digits, no underscores,
# whitespace around the cell.  The scan uses it to name the bad line of a
# file loadtxt rejected; sidecar labels must match _LABEL as well.
_LABEL = re.compile(r"\s*[+-]?[0-9]+\s*")
_NUMBER = re.compile(
    r"\s*[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf|infinity|nan)\s*",
    re.IGNORECASE,
)


def _open_csv(path: str):
    """The CSV as text for ``csv.reader``.

    Bytes that are not UTF-8 read as U+FFFD, which no cell accepts, so the
    scan names their line.
    """
    try:
        return open(path, newline="", encoding="utf-8", errors="replace")
    except OSError as exc:
        raise _unreadable(path, exc) from None


def _microdata_from_csv(path: str) -> tuple[Microdata, dict[int, int]]:
    """The units of a ``microdata-csv`` file and its sidecar's sample sizes."""
    sidecar = Path(f"{path}.n.json")
    if not sidecar.exists():
        raise SchemaError(f"{sidecar}: sample-size sidecar not found")
    try:
        sizes_raw = json.loads(sidecar.read_text("utf-8"), object_pairs_hook=_unique_keys)
        if not all(_LABEL.fullmatch(k) for k in sizes_raw):
            raise ValueError("labels take the CSV's integer syntax")
        # two labels that parse to one integer, such as 1 and 01, are one stratum
        sizes = _unique_keys([(int(k), _count(v)) for k, v in sizes_raw.items()])
    except (OSError, RecursionError) as exc:
        raise _unreadable(sidecar, exc) from None
    except KeyError as exc:
        raise SchemaError(f"{sidecar}: stratum {exc.args[0]} given twice") from None
    except (json.JSONDecodeError, TypeError, ValueError, AttributeError):
        raise SchemaError(
            f"{sidecar}: must map stratum label to sample size"
        ) from None
    with _open_csv(path) as fh:
        header = next(csv.reader(fh), None)
    if header is None or [h.strip() for h in header] != ["stratum", "y", "x"]:
        raise SchemaError(f"{path}: header must be 'stratum,y,x'")
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            # numpy deprecated, then removed, reading a float cell such as
            # 1.5 into an integer column; while deprecated it only warns
            warnings.simplefilter("error", DeprecationWarning)
            rows = np.loadtxt(
                path, dtype=_CSV_ROW, delimiter=",", comments=None, quotechar='"',
                skiprows=1, ndmin=1, encoding="utf-8",
            )
    except ValueError as exc:
        _raise_bad_line(path, exc)
    if rows.size == 0:
        raise ParseError(f"{path}: no data rows")
    # a stable sort keeps file order within each stratum, so the stratum
    # sums run over the values in the order the file gives them
    order = np.argsort(rows["s"], kind="stable")
    labels, starts = np.unique(rows["s"][order], return_index=True)
    strata = tuple(
        MicrodataStratum(int(label), rows["y"][members], rows["x"][members])
        for label, members in zip(labels, np.split(order, starts[1:]))
    )
    return Microdata(strata, label=Path(path).stem), sizes


def _raise_bad_line(path: str, reason: Exception) -> NoReturn:
    """Raise the line-numbered ParseError for a CSV that loadtxt rejected.

    It runs only after ``np.loadtxt`` has refused the file and never
    returns: it names the first data line that breaks the accepted syntax,
    or, when it finds none, reports loadtxt's own message.
    """
    with _open_csv(path) as fh:
        reader = csv.reader(fh)
        try:
            next(reader, None)  # the header, checked already
            for row in reader:
                problem = _row_problem(row)
                if problem:
                    raise ParseError(f"{path}: line {reader.line_num}: {problem}")
        except csv.Error as exc:
            raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None
    raise ParseError(f"{path}: {reason}")


def _row_problem(row: list[str]) -> str | None:
    """Why one CSV record is not a data row, or None if it is one (or blank)."""
    if not row:
        return None
    if len(row) != 3:
        return f"expected 3 fields, got {len(row)}"
    label, y, x = row
    if not _LABEL.fullmatch(label) or not -(2**63) <= int(label) < 2**63:
        return f"stratum label {label!r} is not a 64-bit integer"
    for name, cell in (("y", y), ("x", x)):
        if not _NUMBER.fullmatch(cell):
            return f"{name} value {cell!r} is not a number"
    return None


def ingest(source: str, fmt: str | None = None) -> DesignSummary:
    """Resolve a dataset id or file into a validated design.

    ``fmt`` is ``summary-json`` (the default) or ``microdata-csv``.
    """
    if source in EMBEDDED:
        return get_dataset(source)
    if not Path(source).exists():
        known = ", ".join(sorted(EMBEDDED))
        raise UnknownDataset(
            f"{source!r} is neither an embedded dataset id ({known}) nor an existing file"
        )
    if fmt in (None, "summary-json"):
        return _summary_from_json(source)
    if fmt == "microdata-csv":
        return design_from_microdata(*_microdata_from_csv(source))
    raise SchemaError(f"unknown input format {fmt!r}")


# ---------------------------------------------------------------------------
# output


def _round6(value: float) -> float:
    return float(f"{value:.6g}")


class Emitter:
    """Renders row-oriented reports as text, csv, or json."""

    def __init__(self, output_format: str, full_precision: bool):
        self.format = output_format
        self.full = full_precision

    def _cell(self, value) -> str:
        if value is None:
            return ""
        if isinstance(value, float):
            return repr(value) if self.full else f"{value:.6g}"
        return str(value)

    def _json_value(self, value):
        if isinstance(value, float) and not self.full:
            return _round6(value)
        return value

    def render(self, rows: list[dict], header_lines: list[str] | None = None) -> str:
        fields = list(rows[0].keys()) if rows else []
        if self.format == "json":
            payload: dict = {"rows": [
                {k: self._json_value(v) for k, v in row.items()} for row in rows
            ]}
            if header_lines:
                payload["notes"] = header_lines
            return json.dumps(payload, indent=2) + "\n"
        if self.format == "csv":
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(fields)
            for row in rows:
                writer.writerow([self._cell(v) for v in row.values()])
            return buf.getvalue()
        # text
        table = [[self._cell(v) for v in row.values()] for row in rows]
        widths = [
            max(len(name), *(len(r[i]) for r in table)) if table else len(name)
            for i, name in enumerate(fields)
        ]
        lines = list(header_lines or [])
        lines.append("  ".join(n.ljust(w) for n, w in zip(fields, widths)).rstrip())
        for r in table:
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
        return "\n".join(lines) + "\n"


def _check_out(path: str | None) -> None:
    """Refuse an ``--out`` that cannot be written before any work is done:
    its parent must be an existing directory and it must not be one."""
    if path is None:
        return
    target = Path(path)
    if target.is_dir():
        code = errno.EISDIR
    elif not target.parent.exists():
        code = errno.ENOENT
    elif not target.parent.is_dir():
        code = errno.ENOTDIR
    else:
        return
    raise UsageError(f"--out {path}: {os.strerror(code)}")


def _write_report(
    args: argparse.Namespace, rows: list[dict], header_lines: list[str] | None = None
) -> None:
    """Render ``rows`` in the requested format to ``--out`` or stdout."""
    content = Emitter(args.output_format, args.full_precision).render(rows, header_lines)
    if args.out:
        try:
            Path(args.out).write_text(content, encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"--out {args.out}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(content)


# ---------------------------------------------------------------------------
# command implementations


def _specs(args: argparse.Namespace) -> list[EstimatorSpec]:
    """One spec per ``--estimators`` kind (default: the nine table rows),
    carrying the given constants among the kind's ``constant_names``.  The
    constants that a selected kind takes from one group come all together
    or not at all."""
    kinds = args.estimators or list(EstimatorKind)
    for group in (("p", "a", "b"), ("k1", "k2")):
        users = [kind.value for kind in kinds if group[0] in kind.constant_names]
        given = [getattr(args, name) is not None for name in group]
        if users and any(given) and not all(given):
            flags = ", ".join(f"--{name}" for name in group)
            raise UsageError(f"{', '.join(users)}: give all of {flags}, or none for the default")
    return [
        EstimatorSpec(kind, **{name: getattr(args, name) for name in kind.constant_names})
        for kind in kinds
    ]


def _constant_columns(constants: dict[str, float]) -> dict:
    """The k1, k2, w, p, a, b report columns; empty where a kind has none."""
    return {name: constants.get(name) for name in ("k1", "k2", "w", "p", "a", "b")}


def _result_row(result) -> dict:
    return {
        "estimator": result.label,
        "mse": result.mse,
        "pre": result.pre,
        **_constant_columns(result.constants),
        "bias": result.bias,
    }


def _cmd_moments(args: argparse.Namespace) -> int:
    design = ingest(args.data, args.format)
    m = aggregate_moments(design)
    rows = [
        {
            "label": design.label,
            "N": design.N,
            "n": design.n,
            "mean_y": m.mean_y,
            "mean_x": m.mean_x,
            "ratio": m.ratio,
            "var_ybar": m.var_ybar,
            "var_xbar": m.var_xbar,
            "cov_xybar": m.cov_xybar,
        }
    ]
    _write_report(args, rows)
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    design = ingest(args.data, args.format)
    m = aggregate_moments(design)
    rows = []
    for spec in _specs(args):
        resolved = resolve_spec(spec, m)
        value = estimate_point(resolved, args.ybar_st, args.xbar_st, m.mean_x)
        rows.append(
            {
                "estimator": resolved.label,
                "estimate": value,
                **_constant_columns(resolved.constants()),
            }
        )
    _write_report(args, rows)
    return 0


#: Flags that ``table --paper-layout`` would otherwise ignore; each defaults
#: to None so that giving it at all is seen.
_NOT_IN_PAPER_LAYOUT = ("data", "format", "estimators", "w", "p", "a", "b", "k1", "k2")


def _cmd_mse(args: argparse.Namespace) -> int:
    """``mse``, ``optimize`` and ``table``: one MSE/PRE row per estimator.

    ``optimize`` has no k1/k2 flags, so its duals resolve to the optimum.
    """
    if args.command == "table" and args.paper_layout:
        given = [f"--{name}" for name in _NOT_IN_PAPER_LAYOUT if getattr(args, name) is not None]
        if given:
            raise UsageError(f"--paper-layout fixes the data and estimators; drop {', '.join(given)}")
        _write_report(args, *_paper_layout())
        return 0
    if args.command == "table" and not args.data:
        raise UsageError("table requires --data unless --paper-layout is given")
    design = ingest(args.data, args.format)
    m = aggregate_moments(design)
    _write_report(args, [_result_row(analyze(spec, m)) for spec in _specs(args)])
    return 0


def _paper_layout() -> tuple[list[dict], list[str]]:
    """Rows and notes of ``table --paper-layout``."""
    results = {
        name: efficiency_table(ingest(name), default_table_specs())
        for name in ("paper-1", "paper-2")
    }
    rows = []
    # the source table's Data-1 column carries the orchard-survey values
    # and Data-2 the cane-juice values; reproduced here for side-by-side
    # checking against the original layout
    for r1, r2 in zip(results["paper-2"], results["paper-1"]):
        rows.append(
            {
                "estimator": r1.label,
                "mse_data1": r1.mse,
                "pre_data1": r1.pre,
                "mse_data2": r2.mse,
                "pre_data2": r2.pre,
            }
        )
    notes = [
        "# layout note: Data-1 columns hold paper-2 results and Data-2",
        "# columns hold paper-1 results, matching the original table.",
    ]
    return rows, notes


#: Largest relative gap between ``known_mean_x`` and sum W_h mean_x_h that
#: ``simulate`` accepts; paper-1's published rounding is 7.1e-5.
_KNOWN_MEAN_X_RTOL = 1e-3


def _population(args: argparse.Namespace) -> tuple[Microdata, dict[int, int] | tuple[int, ...]]:
    """The population ``simulate`` draws from, and its sample sizes.

    A ``microdata-csv`` file is its own population.  Any other design gets
    one synthesized, from ``--seed``, to match its stratum moments.  Its
    auxiliary mean is then sum W_h mean_x_h, so a ``known_mean_x`` further
    from that than ``_KNOWN_MEAN_X_RTOL`` is refused, not silently dropped.
    """
    if args.format == "microdata-csv" and args.data not in EMBEDDED and Path(args.data).exists():
        return _microdata_from_csv(args.data)
    design = ingest(args.data, args.format)
    known = design.known_mean_x
    if known is not None:
        strata_mean_x = sum(w * s.mean_x for s, w in zip(design.strata, design.weights))
        if abs(known - strata_mean_x) > _KNOWN_MEAN_X_RTOL * abs(strata_mean_x):
            raise ValidationError(
                f"known_mean_x {known!r} differs from the strata's sum of W_h * mean_x_h, "
                f"{strata_mean_x!r}, by more than {_KNOWN_MEAN_X_RTOL:g} relative; simulate "
                "synthesizes its population from the stratum means and cannot use it"
            )
    return montecarlo.synthesize_population(design, seed=args.seed), design.sample_sizes


def _cmd_simulate(args: argparse.Namespace) -> int:
    pop, sample_sizes = _population(args)
    report = montecarlo.replicate(
        pop, sample_sizes, _specs(args), reps=args.reps, seed=args.seed
    )
    rows = []
    for r in report.rows:
        rows.append(
            {
                "estimator": r.label,
                **_constant_columns(r.constants),
                "reps": r.reps,
                "valid": r.valid,
                "errors": ";".join(f"{k}:{v}" for k, v in sorted(r.error_counts.items())),
                "empirical_mean": r.empirical_mean,
                "empirical_bias": r.empirical_bias,
                "empirical_mse": r.empirical_mse,
                "se_mse": r.se_mse,
                "theoretical_bias": r.theoretical_bias,
                "theoretical_mse": r.theoretical_mse,
                "verdict": r.verdict,
            }
        )
    header = [
        f"# dataset: {report.label}",
        f"# reps: {report.reps}  seed: {report.seed}  sample sizes: "
        + ",".join(str(v) for v in report.sample_sizes),
        f"# policy: {report.policy}",
        f"# agreement: {'ok' if report.all_ok else 'FAILED'}",
    ]
    _write_report(args, rows, header)
    if args.strict and not report.all_ok:
        return 5
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """argparse whose failures are one ``error:usage:`` line, exit 2.

    Its subparsers share the class, so every flag reads ``-3e-2`` as a
    negative number; argparse on Python 3.10 and 3.11 took it for an option.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")


def _int_at_least(low: int):
    """An argparse type: an int no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _finite_float(text: str) -> float:
    """An argparse type: a float by the rule ``_finite`` applies to JSON numbers."""
    try:
        return _finite(float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}") from None


def _estimator_kinds(text: str) -> list[EstimatorKind]:
    """A comma-separated ``--estimators`` list as kinds; empty names are skipped."""
    kinds = []
    for name in text.split(","):
        name = name.strip().lower()
        if not name:
            continue
        try:
            kinds.append(EstimatorKind(name))
        except ValueError:
            known = ", ".join(k.value for k in EstimatorKind)
            raise argparse.ArgumentTypeError(
                f"unknown estimator {name!r}; one of: {known}"
            ) from None
    if not kinds:
        raise argparse.ArgumentTypeError("no estimators selected")
    return kinds


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stratmean",
        description="Stratified-sampling mean estimation and MSE analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, data_required: bool = True) -> None:
        p.add_argument(
            "--data",
            required=data_required,
            help="embedded dataset id (paper-1, paper-2) or input path",
        )
        p.add_argument(
            "--format",
            choices=("summary-json", "microdata-csv"),
            help="input file format (ignored for embedded ids)",
        )
        p.add_argument("--out", help="write the report to this path instead of stdout")
        p.add_argument(
            "--output-format",
            choices=("text", "csv", "json"),
            default="text",
        )
        p.add_argument(
            "--full-precision",
            action="store_true",
            help="print shortest round-trip floats instead of 6 significant digits",
        )

    def estimator_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--estimators",
            type=_estimator_kinds,
            help="comma-separated list (t1..t6, ratio, product, unbiased)",
        )
        for name in ("w", "p", "a", "b"):
            p.add_argument(f"--{name}", type=_finite_float)

    def dual_flags(p: argparse.ArgumentParser) -> None:
        for name in ("k1", "k2"):
            p.add_argument(f"--{name}", type=_finite_float)

    p = sub.add_parser("moments", help="combined design moments")
    common(p)
    p.set_defaults(handler=_cmd_moments)

    p = sub.add_parser("estimate", help="point estimates from sample means")
    common(p)
    estimator_flags(p)
    dual_flags(p)
    p.add_argument("--ybar-st", type=_finite_float, required=True, dest="ybar_st")
    p.add_argument("--xbar-st", type=_finite_float, required=True, dest="xbar_st")
    p.set_defaults(handler=_cmd_estimate)

    p = sub.add_parser("mse", help="first-order MSE/bias/PRE")
    common(p)
    estimator_flags(p)
    dual_flags(p)
    p.set_defaults(handler=_cmd_mse)

    p = sub.add_parser("optimize", help="MSE-optimal constants")
    common(p)
    estimator_flags(p)
    p.set_defaults(handler=_cmd_mse, k1=None, k2=None)

    p = sub.add_parser("table", help="nine-row MSE/PRE comparison")
    common(p, data_required=False)
    estimator_flags(p)
    dual_flags(p)
    p.add_argument(
        "--paper-layout",
        action="store_true",
        help="both embedded datasets side by side in the original column layout",
    )
    p.set_defaults(handler=_cmd_mse)

    p = sub.add_parser("simulate", help="Monte Carlo agreement report")
    common(p)
    estimator_flags(p)
    dual_flags(p)
    p.add_argument("--reps", type=_int_at_least(2), default=200_000)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    # hidden, and 1 is its only value: command lines that pass it still parse
    p.add_argument("--workers", type=int, choices=(1,), help=argparse.SUPPRESS)
    p.add_argument(
        "--strict",
        action="store_true",
        help="exit 5 if any agreement verdict fails",
    )
    p.set_defaults(handler=_cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_out(args.out)
        return args.handler(args)
    except SystemExit as exc:  # --help prints to stdout and exits 0
        return int(exc.code or 0)
    except StratmeanError as exc:
        print(f"error:{exc.code}: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"error:computation: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:  # numpy's message names the failed allocation
        print(f"error:computation: out of memory: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
