"""CLI: ingestion formats, command output, exit codes, determinism."""

import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import stratmean as sm
from stratmean import cli
from stratmean.cli import ingest, main
from stratmean.errors import (
    CorrelationOutOfRange,
    DegenerateStratum,
    ParseError,
    SchemaError,
)

SUMMARY_DOC = {
    "label": "demo",
    "known_mean_x": 326.0,
    "strata": [
        {"N": 6, "n": 3, "mean_y": 135.0, "mean_x": 366.666,
         "var_y": 80.0, "var_x": 2706.666, "rho": 0.9455626},
        {"N": 12, "n": 4, "mean_y": 99.166, "mean_x": 310.883,
         "var_y": 226.515, "var_x": 1881.06, "cov_xy": 618.93},
    ],
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIngest:
    def test_embedded_ids(self):
        d = ingest("paper-1")
        assert d.N == 25 and d.n == 10 and len(d.strata) == 3
        d2 = ingest("paper-2")
        assert d2.N == 4201 and d2.n == 25

    def test_summary_json_mixed_parameterizations(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps(SUMMARY_DOC))
        d = ingest(str(path), "summary-json")
        assert d.label == "demo"
        assert d.strata[0].cov_xy == pytest.approx(
            0.9455626 * (2706.666 * 80.0) ** 0.5, rel=1e-12
        )
        assert d.strata[1].cov_xy == 618.93

    def test_summary_json_both_cov_and_rho(self, tmp_path):
        doc = json.loads(json.dumps(SUMMARY_DOC))
        doc["strata"][0]["cov_xy"] = 100.0  # rho already present
        path = tmp_path / "d.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            ingest(str(path), "summary-json")

    def test_summary_json_neither_cov_nor_rho(self, tmp_path):
        doc = json.loads(json.dumps(SUMMARY_DOC))
        del doc["strata"][0]["rho"]
        path = tmp_path / "d.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            ingest(str(path), "summary-json")

    def test_summary_json_rho_out_of_range(self, tmp_path):
        doc = json.loads(json.dumps(SUMMARY_DOC))
        doc["strata"][0]["rho"] = 1.2
        path = tmp_path / "d.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CorrelationOutOfRange):
            ingest(str(path), "summary-json")

    def test_summary_json_malformed(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text("{not json")
        with pytest.raises(ParseError) as err:
            ingest(str(path), "summary-json")
        assert "line" in str(err.value)

    @pytest.mark.parametrize(
        "literal",
        ["NaN", "Infinity", "-Infinity", "1e999", '"99.1"', '" 310.8 "', "true",
         pytest.param("1" + "0" * 400, id="10**400"),
         # beyond the 4300 digits that int() converts from text
         pytest.param("1" * 5001, id="5001-digits")],
    )
    @pytest.mark.parametrize(
        "field", ["mean_y", "mean_x", "var_y", "var_x", "rho", "known_mean_x"]
    )
    def test_summary_json_non_finite_rejected(self, capsys, tmp_path, field, literal):
        doc = json.loads(json.dumps(SUMMARY_DOC))
        target = doc if field == "known_mean_x" else doc["strata"][0]
        target[field] = 1234.5  # placeholder swapped for the raw literal below
        path = tmp_path / "d.json"
        path.write_text(json.dumps(doc).replace("1234.5", literal))
        code, out, err = run_cli(capsys, "mse", "--data", str(path), "--estimators", "t1")
        assert code == 3 and out == ""
        where = "known_mean_x" if field == "known_mean_x" else "stratum 1"
        assert err.startswith("error:parse:") and f"{where}: expected a finite number" in err

    def test_summary_json_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "d.json"
        path.write_bytes(json.dumps(SUMMARY_DOC).replace("demo", "d\xe9mo").encode("latin-1"))
        code, out, err = run_cli(capsys, "moments", "--data", str(path))
        assert (code, out, err) == (3, "", f"error:parse: {path}: not UTF-8 text\n")

    @pytest.mark.parametrize("second", ["cov_xy", "rho"])
    def test_summary_json_negative_variance(self, capsys, tmp_path, second):
        """Both parameterizations name the variance, not a sqrt domain error."""
        doc = {"strata": [{"N": 6, "n": 3, "mean_y": 1, "mean_x": 2,
                           "var_y": -1, "var_x": 1, second: 0.5}]}
        path = tmp_path / "d.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "moments", "--data", str(path))
        assert (code, out, err) == (3, "", "error:validation: stratum 1: negative variance\n")

    @pytest.mark.parametrize("field", ["N", "n"])
    @pytest.mark.parametrize("value", [12.9, 3.5, True, "4.2", "1_2", "4"])
    def test_summary_json_non_integral_count_rejected(self, tmp_path, field, value):
        doc = json.loads(json.dumps(SUMMARY_DOC))
        doc["strata"][1][field] = value
        path = tmp_path / "d.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            ingest(str(path), "summary-json")

    @pytest.mark.parametrize("text", ['{"strata": 5}', '{"strata": null}', "[]"])
    def test_summary_json_strata_not_a_list(self, capsys, tmp_path, text):
        path = tmp_path / "d.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "moments", "--data", str(path))
        assert (code, out) == (3, "")
        assert err.startswith("error:schema:") and "with a 'strata' list" in err

    @pytest.mark.parametrize("key, where", [("known_mean", "top level"), ("weight", "stratum 2")])
    def test_summary_json_unknown_key_rejected(self, capsys, tmp_path, key, where):
        doc = json.loads(json.dumps(SUMMARY_DOC))
        (doc if where == "top level" else doc["strata"][1])[key] = 5
        path = tmp_path / "d.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "moments", "--data", str(path))
        assert code == 3 and out == ""
        assert err.startswith("error:schema:") and f"{where}: unknown field {key}" in err

    def test_summary_json_duplicate_key_rejected(self, capsys, tmp_path):
        # json alone would read the stratum silently as N = 60
        text = json.dumps(SUMMARY_DOC).replace('"N": 6,', '"N": 6, "N": 60,', 1)
        path = tmp_path / "d.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "moments", "--data", str(path))
        assert code == 3 and out == ""
        assert err == f"error:schema: {path}: field 'N' given twice\n"

    def test_summary_json_integral_float_count_accepted(self, tmp_path):
        doc = json.loads(json.dumps(SUMMARY_DOC))
        doc["strata"][1]["N"] = 12.0
        path = tmp_path / "d.json"
        path.write_text(json.dumps(doc))
        assert ingest(str(path), "summary-json").strata[1].N == 12

    def write_microdata(self, tmp_path, rows, sizes):
        path = tmp_path / "micro.csv"
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["stratum", "y", "x"])
        writer.writerows(rows)
        path.write_text(buf.getvalue())
        (tmp_path / "micro.csv.n.json").write_text(json.dumps(sizes))
        return str(path)

    def test_microdata_roundtrip(self, tmp_path):
        rows = [
            (1, 1.0, 2.0), (1, 3.0, 6.0), (1, 2.0, 4.0),
            (2, 5.0, 1.0), (2, 7.0, 3.0),
        ]
        path = self.write_microdata(tmp_path, rows, {"1": 2, "2": 1})
        d = ingest(path, "microdata-csv")
        assert [s.N for s in d.strata] == [3, 2]
        assert [s.n for s in d.strata] == [2, 1]
        assert d.strata[0].mean_y == 2.0

    def test_microdata_singleton_stratum(self, tmp_path):
        rows = [(1, 1.0, 2.0), (2, 5.0, 1.0), (2, 7.0, 3.0)]
        path = self.write_microdata(tmp_path, rows, {"1": 1, "2": 1})
        with pytest.raises(DegenerateStratum):
            ingest(path, "microdata-csv")

    def test_microdata_bad_row_reports_line(self, tmp_path):
        rows = [(1, 1.0, 2.0), (1, "oops", 4.0), (1, 2.0, 4.0)]
        path = self.write_microdata(tmp_path, rows, {"1": 2})
        with pytest.raises(ParseError) as err:
            ingest(path, "microdata-csv")
        assert "line 3" in str(err.value)

    @pytest.mark.parametrize("size", [1.5, True, "2"])
    def test_microdata_sidecar_non_integral_size(self, tmp_path, size):
        rows = [(1, 1.0, 2.0), (1, 3.0, 6.0), (1, 2.0, 4.0)]
        path = self.write_microdata(tmp_path, rows, {"1": size})
        with pytest.raises(SchemaError):
            ingest(path, "microdata-csv")

    @pytest.mark.parametrize("label", ["1_0", "١٠", "1.0", "ten"])
    def test_microdata_sidecar_label_syntax(self, tmp_path, label):
        # the sidecar's labels read like the CSV's: "1_0" is not stratum 10
        rows = [(10, 1.0, 2.0), (10, 3.0, 6.0), (10, 2.0, 4.0)]
        path = self.write_microdata(tmp_path, rows, {label: 2})
        with pytest.raises(SchemaError, match="must map stratum label"):
            ingest(path, "microdata-csv")

    @pytest.mark.parametrize("sizes", ['{"1": 2, "01": 1, "2": 1}', '{"1": 2, "1": 1, "2": 1}'])
    def test_microdata_sidecar_stratum_given_twice(self, capsys, tmp_path, sizes):
        # a repeated key, or two labels that parse to one integer, would
        # otherwise give stratum 1 the last size with exit 0
        path = write_frame(tmp_path, "stratum,y,x\n" + "\n".join(GOOD_ROWS) + "\n")
        Path(f"{path}.n.json").write_text(sizes)
        code, out, err = run_cli(capsys, "moments", "--data", path, "--format", "microdata-csv")
        assert code == 3 and out == ""
        assert err == f"error:schema: {path}.n.json: stratum 1 given twice\n"

    def test_microdata_missing_sidecar(self, tmp_path):
        path = tmp_path / "micro.csv"
        path.write_text("stratum,y,x\n1,1.0,2.0\n1,2.0,3.0\n")
        with pytest.raises(SchemaError):
            ingest(str(path), "microdata-csv")


# five data rows over two strata, interleaved; line 1 is the header
GOOD_ROWS = ["1,1.0,2.0", "2,5.0,1.0", "1,3.0,6.5", "2,7.0,3.0", "1,2.0,4.25"]
GOOD_SIZES = {"1": 2, "2": 1}


def write_frame(tmp_path, text, sizes=GOOD_SIZES):
    path = tmp_path / "frame.csv"
    path.write_bytes(text.encode("utf-8") if isinstance(text, str) else text)
    (tmp_path / "frame.csv.n.json").write_text(json.dumps(sizes))
    return str(path)


def expected_design():
    """The design of GOOD_ROWS built from arrays, bypassing the CSV reader."""
    columns = {1: ([1.0, 3.0, 2.0], [2.0, 6.5, 4.25]), 2: ([5.0, 7.0], [1.0, 3.0])}
    data = sm.Microdata(
        [sm.MicrodataStratum(k, np.array(y), np.array(x)) for k, (y, x) in columns.items()],
        label="frame",
    )
    return sm.design_from_microdata(data, {1: 2, 2: 1})


class TestMicrodataCsv:
    BAD_LINES = {
        "2 fields": "1,2.0",
        "4 fields": "1,2.0,3.0,4.0",
        "empty field": "1,,3.0",
        "non-numeric": "1,abc,3.0",
        "underscore in y": "1,1_000,3.0",
        "underscore in x": "1,2.0,1_000",
        "label 1_0": "1_0,2.0,3.0",
        "label 1.0": "1.0,2.0,3.0",
        "whitespace-only line": "   ",
        "non-ASCII digit": "1,٣,3.0",
        "label beyond int64": "9223372036854775808,2.0,3.0",
        "not UTF-8": b"1,\xff,3.0",
    }

    @pytest.mark.parametrize("at", [0, 3, 5])
    @pytest.mark.parametrize("case", list(BAD_LINES))
    def test_bad_line_is_named(self, capsys, tmp_path, case, at):
        bad = self.BAD_LINES[case]
        rows = [r.encode() for r in GOOD_ROWS]
        rows.insert(at, bad if isinstance(bad, bytes) else bad.encode())
        path = write_frame(tmp_path, b"\n".join([b"stratum,y,x", *rows]) + b"\n")
        code, out, err = run_cli(capsys, "moments", "--data", path, "--format", "microdata-csv")
        assert code == 3 and out == ""
        assert err.startswith(f"error:parse: {path}: line {at + 2}: ")
        assert err.count("\n") == 1

    def test_many_strata_accepted(self, capsys, tmp_path):
        """40,000 two-unit strata: the weights are N_h/N, with no sum to violate."""
        labels = range(1, 40_001)
        text = "stratum,y,x\n" + "".join(
            f"{h},{h % 5}.5,{h % 7}\n{h},{h % 3},{h % 2 + 9}\n" for h in labels
        )
        path = write_frame(tmp_path, text, {str(h): 1 for h in labels})
        code, out, err = run_cli(capsys, "moments", "--data", path, "--format", "microdata-csv")
        assert (code, err) == (0, "")
        assert out.splitlines()[1].split()[1:3] == ["80000", "40000"]

    def test_header_only_file(self, capsys, tmp_path):
        path = write_frame(tmp_path, "stratum,y,x\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(capsys, "moments", "--data", path, "--format", "microdata-csv")
        assert code == 3 and err == f"error:parse: {path}: no data rows\n"
        assert caught == []

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_cell_is_degenerate(self, capsys, tmp_path, cell):
        path = write_frame(tmp_path, "\n".join(["stratum,y,x", *GOOD_ROWS, f"2,{cell},1.0"]))
        code, _, err = run_cli(capsys, "moments", "--data", path, "--format", "microdata-csv")
        assert code == 3 and err.startswith("error:degenerate-stratum: stratum 2: non-finite")

    @pytest.mark.parametrize(
        "text",
        [
            "stratum,y,x\n" + "\n".join(GOOD_ROWS) + "\n",
            '"stratum","y","x"\n' + "\n".join(
                ",".join(f'"{c}"' for c in r.split(",")) for r in GOOD_ROWS
            ) + "\n",
            "stratum,y,x\r\n" + "\r\n".join(GOOD_ROWS) + "\r\n",
            "stratum,y,x\n\n" + "\n\n".join(GOOD_ROWS) + "\n\n",
            "stratum,y,x\n" + "\n".join(GOOD_ROWS),
            "stratum , y , x\n" + "\n".join(f" {r.replace(',', ' , ')}\t" for r in GOOD_ROWS),
        ],
        ids=["plain", "quoted", "crlf", "blank-lines", "no-final-newline", "spaces"],
    )
    def test_accepted_syntax_gives_same_design(self, tmp_path, text):
        assert ingest(write_frame(tmp_path, text), "microdata-csv") == expected_design()

    def test_scan_runs_only_on_a_rejected_file(self, tmp_path, monkeypatch):
        calls = []

        def scan(path, reason):
            calls.append(path)
            raise ParseError("scanned")

        monkeypatch.setattr(cli, "_raise_bad_line", scan)
        path = write_frame(tmp_path, "stratum,y,x\n" + "\n".join(GOOD_ROWS) + "\n")
        ingest(path, "microdata-csv")
        assert calls == []
        write_frame(tmp_path, "stratum,y,x\n1,x,2\n")
        with pytest.raises(ParseError, match="scanned"):
            ingest(path, "microdata-csv")
        assert calls == [path]

    def test_scan_only_raises(self, tmp_path):
        # on a file with no bad line the scan reports loadtxt's reason
        path = write_frame(tmp_path, "stratum,y,x\n" + "\n".join(GOOD_ROWS) + "\n")
        with pytest.raises(ParseError) as err:
            cli._raise_bad_line(path, ValueError("reason from loadtxt"))
        assert str(err.value) == f"{path}: reason from loadtxt"

    @pytest.mark.parametrize(
        "cells",
        [(label, "2", "3") for label in (
            "1", " 1 ", "+1", "-1", "01", '"1"', "1.0", "1e0", "1_0", "0x1", "",
            "١", "9223372036854775807", "9223372036854775808",
            "-9223372036854775808", "-9223372036854775809",
        )]
        + [("1", value, "3") for value in (
            "2", "2.", ".5", ".", "-.5e-3", "1E+5", "1e", "e5", "nan", "-NaN", "inf",
            "+Infinity", "infinit", "1e999", "1_000", "", " ", "\xa02\xa0", '"2"',
            '" 2 "', '""', "2 3", "0x10", "1d5", "٣", "+-1", "1..2",
        )],
    )
    def test_scan_agrees_with_loadtxt(self, cells):
        """The scan rejects exactly the rows loadtxt rejects, so it names the
        line loadtxt stopped at."""
        line = ",".join(cells) + "\n"
        try:
            np.loadtxt(io.StringIO(line), dtype=cli._CSV_ROW, delimiter=",",
                       comments=None, quotechar='"', ndmin=1)
            loadtxt_accepts = True
        except ValueError:
            loadtxt_accepts = False
        row = next(csv.reader(io.StringIO(line)))
        assert (cli._row_problem(row) is None) == loadtxt_accepts

    def test_sidecar_label_without_rows(self, capsys, tmp_path):
        path = write_frame(
            tmp_path, "stratum,y,x\n" + "\n".join(GOOD_ROWS) + "\n", {"1": 2, "2": 1, "9": 1}
        )
        code, out, err = run_cli(capsys, "moments", "--data", path, "--format", "microdata-csv")
        assert code == 3 and out == ""
        assert err == "error:degenerate-stratum: stratum 9: sample size given, but no units\n"


class TestRowsCache:
    """The rows ``loadtxt`` accepted are cached by the CSV's stat once its
    ctime is more than ``_ROWS_CACHE_SETTLE_NS`` old, and by the sha256 of
    its bytes before: a warm read gives what a parse gives, and any write,
    replace or mode change is a miss.  Tests of the stat key patch the
    window to count every file as settled (the ``settled`` fixture)."""

    @pytest.fixture
    def cache(self, tmp_path, monkeypatch):
        """An empty cache home for one test; returns the cache directory."""
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        return tmp_path / "xdg" / "stratmean"

    @pytest.fixture
    def settled(self, monkeypatch):
        """Every file counts as settled, so entries are named by the stat."""
        monkeypatch.setattr(cli, "_ROWS_CACHE_SETTLE_NS", float("-inf"))

    @pytest.fixture
    def clock(self, monkeypatch):
        """Sets the clock ``_rows_cache_entry`` reads, in ns after a file's
        ctime: ``clock(path, ns)``."""
        now = [0]
        monkeypatch.setattr(cli, "time", types.SimpleNamespace(time_ns=lambda: now[0]))

        def set_clock(path, ns):
            now[0] = os.stat(path).st_ctime_ns + ns

        return set_clock

    @pytest.fixture
    def hashes(self, monkeypatch):
        """The calls to ``hashlib.sha256``, one per hash begun."""
        calls, sha256 = [], hashlib.sha256

        def counted(*args, **kwargs):
            calls.append(args)
            return sha256(*args, **kwargs)

        monkeypatch.setattr(hashlib, "sha256", counted)
        return calls

    @staticmethod
    def state(path):
        """The stat key of the file as it is now."""
        return "-".join(map(str, cli._file_state(os.stat(path))))

    @staticmethod
    def next_ctime_tick():
        """Sleep past the coarse ctime tick (a jiffy, at most 10 ms) of
        kernels without fine-grained ctimes, so the next change moves it, as
        the settle window guarantees outside these tests."""
        time.sleep(0.02)

    @pytest.fixture
    def parses(self, monkeypatch):
        """The paths ``_parse_rows`` was called on."""
        calls, parse = [], cli._parse_rows

        def counted(path):
            calls.append(path)
            return parse(path)

        monkeypatch.setattr(cli, "_parse_rows", counted)
        return calls

    @staticmethod
    def frame_text(rows=300, seed=2):
        rng = np.random.default_rng(seed)
        labels = rng.integers(1, 4, rows)
        x = rng.gamma(6.0, 10.0, rows)
        y = 5.0 + 2.0 * x + rng.normal(0.0, 7.0, rows)
        return "stratum,y,x\n" + "".join(
            f"{h},{a!r},{b!r}\n" for h, a, b in zip(labels.tolist(), y.tolist(), x.tolist())
        )

    def test_warm_read_gives_the_cold_output(self, capsys, tmp_path, cache, parses):
        path = write_frame(tmp_path, self.frame_text(), {"1": 5, "2": 4, "3": 6})
        flags = ("--data", path, "--format", "microdata-csv",
                 "--output-format", "json", "--full-precision")
        commands = [(cmd,) for cmd in ("moments", "table", "optimize")]
        commands.append(("simulate", "--reps", "2000", "--seed", "4"))

        def outputs():
            units = [(s.index, s.y.tobytes(), s.x.tobytes())
                     for s in cli._microdata_from_csv(path)[0].strata]
            return units, [run_cli(capsys, *cmd, *flags) for cmd in commands]

        cold = outputs()
        assert parses == [path] and len(list(cache.iterdir())) == 1
        assert all(code == 0 and err == "" for code, _, err in cold[1])
        assert outputs() == cold
        assert parses == [path]  # every later read loaded the entry

    def test_rewritten_cell_is_a_miss(self, tmp_path, cache, parses):
        text = "stratum,y,x\n" + "\n".join(GOOD_ROWS) + "\n"
        path = write_frame(tmp_path, text)
        assert ingest(path, "microdata-csv") == expected_design()
        stamp = os.stat(path).st_mtime_ns
        # same path, size and mtime; one cell differs
        Path(path).write_text(text.replace("6.5", "6.0"))
        os.utime(path, ns=(stamp, stamp))
        changed = ingest(path, "microdata-csv")
        assert changed.strata[0].mean_x == pytest.approx((2.0 + 6.0 + 4.25) / 3)
        assert parses == [path, path] and len(list(cache.iterdir())) == 2

    @pytest.mark.parametrize("damage", ["truncated", "float64", "two-dimensional"])
    def test_unusable_entry_is_parsed_again_and_rewritten(self, tmp_path, cache, parses,
                                                          damage):
        path = write_frame(tmp_path, "stratum,y,x\n" + "\n".join(GOOD_ROWS) + "\n")
        ingest(path, "microdata-csv")
        (entry,) = cache.iterdir()
        good = entry.read_bytes()
        if damage == "truncated":
            entry.write_bytes(good[: len(good) - 10])
        else:
            rows = np.load(entry)
            np.save(entry, rows["y"] if damage == "float64" else rows.reshape(1, -1))
        assert ingest(path, "microdata-csv") == expected_design()
        assert parses == [path, path]
        assert entry.read_bytes() == good

    @pytest.mark.parametrize("blocked", ["cache home", "cache directory"])
    def test_unusable_cache_directory_only_costs_the_parse(self, capsys, tmp_path, cache,
                                                           blocked):
        path = write_frame(tmp_path, "stratum,y,x\n" + "\n".join(GOOD_ROWS) + "\n")
        argv = ("table", "--data", path, "--format", "microdata-csv")
        want = run_cli(capsys, *argv)
        assert want[0] == 0 and cache.is_dir()
        # a regular file in place of a directory: every mkdir and open under
        # it fails, as it would without write permission (tests run as root)
        shutil.rmtree(cache.parent)
        blocked_path = cache.parent if blocked == "cache home" else cache
        blocked_path.parent.mkdir(exist_ok=True)
        blocked_path.write_text("")
        assert run_cli(capsys, *argv) == want
        assert run_cli(capsys, *argv) == want
        assert blocked_path.read_text() == ""

    @pytest.mark.parametrize("data, reason", [
        ("1,1.0,2.0\n1,x,3.0\n", "line 3: y value 'x' is not a number"),
        ("", "no data rows"),
    ])
    def test_rejected_file_is_never_stored(self, capsys, tmp_path, cache, data, reason):
        path = write_frame(tmp_path, "stratum,y,x\n" + data)
        for _ in range(2):
            code, out, err = run_cli(capsys, "moments", "--data", path, "--format", "microdata-csv")
            assert (code, out) == (3, "")
            assert err == f"error:parse: {path}: {reason}\n"
        assert not cache.exists()

    @pytest.mark.parametrize("change, key", [
        pytest.param(change, key, id=change if key == "digest" else f"{change}-{key}")
        for key in ("digest", "stat") for change in ("append", "same size and mtime")
    ])
    def test_file_changed_during_the_parse_is_not_stored(self, tmp_path, cache, monkeypatch,
                                                         clock, change, key):
        text = "stratum,y,x\n" + "\n".join(GOOD_ROWS) + "\n"
        path = write_frame(tmp_path, text)
        parse = cli._parse_rows
        clock(path, cli._ROWS_CACHE_SETTLE_NS // 2 if key == "digest" else float("inf"))

        def parse_then_change(path):
            rows = parse(path)
            self.next_ctime_tick()
            stamp = os.stat(path).st_mtime_ns
            if change == "append":
                Path(path).write_text(text + "2,9.0,9.0\n")
            else:
                Path(path).write_text(text.replace("6.5", "6.0"))
                os.utime(path, ns=(stamp, stamp))
            return rows

        monkeypatch.setattr(cli, "_parse_rows", parse_then_change)
        assert ingest(path, "microdata-csv") == expected_design()
        assert not cache.exists()

    def test_warm_read_of_a_settled_file_neither_parses_nor_hashes(self, tmp_path, cache,
                                                                   settled, parses, hashes):
        path = write_frame(tmp_path, "stratum,y,x\n" + "\n".join(GOOD_ROWS) + "\n")
        assert ingest(path, "microdata-csv") == expected_design()
        assert len(hashes) == 1  # a miss looks for rows stored under the digest
        for _ in range(2):
            assert ingest(path, "microdata-csv") == expected_design()
        (entry,) = cache.iterdir()
        assert entry.name == f"{cli._ROWS_CACHE_TAG}-{np.__version__}-{self.state(path)}.npy"
        assert parses == [path] and len(hashes) == 1

    @pytest.mark.parametrize("change", ["same size and mtime", "replaced by a copy", "chmod"])
    def test_stat_change_of_a_settled_file_is_a_miss(self, tmp_path, cache, settled, parses,
                                                     change):
        text = "stratum,y,x\n" + "\n".join(GOOD_ROWS) + "\n"
        path = write_frame(tmp_path, text)
        assert ingest(path, "microdata-csv") == expected_design()
        self.next_ctime_tick()
        want = expected_design()
        if change == "same size and mtime":
            stamp = os.stat(path).st_mtime_ns
            Path(path).write_text(text.replace("6.5", "6.0"))
            os.utime(path, ns=(stamp, stamp))
        elif change == "replaced by a copy":
            shutil.copy2(path, tmp_path / "copy.csv")
            os.replace(tmp_path / "copy.csv", path)
        else:
            os.chmod(path, 0o600)
        got = ingest(path, "microdata-csv")
        if change == "same size and mtime":
            assert got.strata[0].mean_x == pytest.approx((2.0 + 6.0 + 4.25) / 3)
            assert got != want
        else:
            assert got == want
        assert parses == [path, path] and len(list(cache.iterdir())) == 2
        assert ingest(path, "microdata-csv") == got and len(parses) == 2

    def test_settle_window_is_two_seconds(self):
        assert cli._ROWS_CACHE_SETTLE_NS == 2_000_000_000

    @pytest.mark.parametrize("age", [0, 1, 2], ids=["start", "middle", "end"])
    def test_file_written_within_the_settle_window_is_named_by_its_digest(
            self, tmp_path, cache, parses, clock, age):
        path = write_frame(tmp_path, "stratum,y,x\n" + "\n".join(GOOD_ROWS) + "\n")
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        for _ in range(2):
            clock(path, age * cli._ROWS_CACHE_SETTLE_NS // 2)
            assert ingest(path, "microdata-csv") == expected_design()
        (entry,) = cache.iterdir()
        assert entry.name == f"{cli._ROWS_CACHE_TAG}-{np.__version__}-{digest}.npy"
        assert parses == [path]

    def test_file_read_on_both_sides_of_the_window_is_parsed_once(
            self, tmp_path, cache, parses, hashes, clock):
        path = write_frame(tmp_path, "stratum,y,x\n" + "\n".join(GOOD_ROWS) + "\n")
        clock(path, cli._ROWS_CACHE_SETTLE_NS // 2)
        assert ingest(path, "microdata-csv") == expected_design()
        clock(path, cli._ROWS_CACHE_SETTLE_NS + 1)
        for _ in range(2):
            assert ingest(path, "microdata-csv") == expected_design()
        (entry,) = cache.iterdir()  # the digest entry, renamed to the stat
        assert entry.name == f"{cli._ROWS_CACHE_TAG}-{np.__version__}-{self.state(path)}.npy"
        assert parses == [path] and len(hashes) == 2

    def test_rows_under_a_digest_are_not_renamed_to_a_state_they_do_not_hold(
            self, tmp_path, cache, parses, clock, monkeypatch):
        old = "stratum,y,x\n" + "\n".join(GOOD_ROWS) + "\n"
        path = write_frame(tmp_path, old)
        clock(path, 0)
        ingest(path, "microdata-csv")
        (held,) = cache.iterdir()  # the old bytes' rows, under their digest
        Path(path).write_text(old.replace("6.5", "6.0"))
        clock(path, cli._ROWS_CACHE_SETTLE_NS + 1)
        entry = cli._rows_cache_entry

        def old_bytes_back_before_the_hash(path, trust_stat=True):
            if not trust_stat:
                Path(path).write_text(old)
            return entry(path, trust_stat)

        monkeypatch.setattr(cli, "_rows_cache_entry", old_bytes_back_before_the_hash)
        assert ingest(path, "microdata-csv") == expected_design()
        assert list(cache.iterdir()) == [held]  # not renamed to the changed file's stat
        assert parses == [path, path]

    def test_entry_bound_keeps_the_newest(self, tmp_path, cache, parses):
        bound = cli._ROWS_CACHE_ENTRIES
        texts = [self.frame_text(rows=20, seed=seed) for seed in range(bound + 3)]
        path = write_frame(tmp_path, texts[0], {"1": 2, "2": 2, "3": 2})
        entries = []
        for i, text in enumerate(texts[:bound]):
            Path(path).write_text(text)
            ingest(path, "microdata-csv")
            entries.append(cli._rows_cache_entry(path)[0])
            os.utime(entries[-1], (1e9 + i, 1e9 + i))
        # a hit renews the first entry, so the next stores prune 1, 2 and 3
        Path(path).write_text(texts[0])
        ingest(path, "microdata-csv")
        for text in texts[bound:]:
            Path(path).write_text(text)
            ingest(path, "microdata-csv")
            entries.append(cli._rows_cache_entry(path)[0])
        assert len(parses) == bound + 3
        assert set(cache.iterdir()) == {entries[0], *entries[4:]}

    def test_byte_bound_keeps_the_newest(self, tmp_path, cache, parses, monkeypatch):
        path = write_frame(tmp_path, self.frame_text(rows=20, seed=0), {"1": 2, "2": 2, "3": 2})
        ingest(path, "microdata-csv")
        (first,) = cache.iterdir()
        # a temp file a killed store left behind, older than every entry
        stale = cache / "tmpkilled.tmp"
        stale.write_bytes(b"\0" * 100)
        os.utime(stale, (1e9, 1e9))
        os.utime(first, (1e9 + 1, 1e9 + 1))
        # room for two entries of 20 rows, not for a third or for 60 rows
        monkeypatch.setattr(cli, "_ROWS_CACHE_BYTES", 2 * first.stat().st_size + 50)
        Path(path).write_text(self.frame_text(rows=20, seed=1))
        ingest(path, "microdata-csv")
        assert set(cache.iterdir()) == {first, cli._rows_cache_entry(path)[0]}
        Path(path).write_text(self.frame_text(rows=20, seed=2))
        ingest(path, "microdata-csv")
        assert first not in set(cache.iterdir()) and len(list(cache.iterdir())) == 2
        held = set(cache.iterdir())
        Path(path).write_text(self.frame_text(rows=60, seed=3))
        ingest(path, "microdata-csv")
        assert set(cache.iterdir()) == held and len(parses) == 4


class TestCommands:
    def test_moments_text(self, capsys):
        code, out, err = run_cli(capsys, "moments", "--data", "paper-1")
        assert code == 0 and err == ""
        assert "var_ybar" in out and "11.2617" in out and "0.314723" in out

    def test_moments_json_ratio(self, capsys):
        code, out, _ = run_cli(
            capsys, "moments", "--data", "paper-2", "--output-format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][0]["ratio"] == pytest.approx(49.03, rel=1e-3)

    def test_table_paper1(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--data", "paper-1")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 10  # header + 9 rows
        assert lines[1].startswith("t1") and "2.78701" in lines[1]
        assert lines[-1].startswith("unbiased") and "100" in lines[-1]

    def test_table_csv_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--data", "paper-1", "--output-format", "csv"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["estimator", "mse", "pre", "k1", "k2", "w", "p", "a", "b", "bias"]
        assert len(rows) == 10

    def test_table_paper_layout(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--paper-layout")
        assert code == 0
        assert "mse_data1" in out and "layout note" in out
        # the Data-1 column carries the orchard-survey (paper-2) numbers
        t1_line = next(l for l in out.splitlines() if l.startswith("t1"))
        assert "702.137" in t1_line and "2.78701" in t1_line

    def test_estimate_with_explicit_constants(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--data", "paper-1",
            "--estimators", "t1", "--w", "1",
            "--ybar-st", "100", "--xbar-st", "330",
        )
        assert code == 0
        assert "98.773" in out

    def test_dual_constants_do_not_reach_t1(self, capsys):
        # T1 has no (k1, k2): --k1/--k2 are ignored as they are in `mse`
        code, out, _ = run_cli(
            capsys, "estimate", "--data", "paper-1",
            "--estimators", "t1", "--w", "1", "--k1", "0.5", "--k2", "0",
            "--ybar-st", "100", "--xbar-st", "330",
        )
        assert code == 0
        assert "98.773" in out and "49.3865" not in out

    def test_estimate_optimal_resolves_constants(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--data", "paper-1",
            "--estimators", "t5",
            "--ybar-st", "100", "--xbar-st", "330",
            "--output-format", "json",
        )
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["w"] == pytest.approx(0.777927, rel=1e-4)
        assert row["k1"] is not None and row["estimate"] is not None

    def test_mse_command(self, capsys):
        code, out, _ = run_cli(
            capsys, "mse", "--data", "paper-1",
            "--estimators", "t1", "--w", "1", "--output-format", "json",
        )
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["mse"] == pytest.approx(3.47763, rel=1e-4)

    def test_optimize_command(self, capsys):
        code, out, _ = run_cli(
            capsys, "optimize", "--data", "paper-2",
            "--estimators", "t1,t2", "--output-format", "json",
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows[0]["mse"] == pytest.approx(702.137, rel=1e-4)
        assert rows[0]["mse"] == rows[1]["mse"]

    def test_optimize_has_no_dual_flags(self, capsys):
        # optimize always solves for (k1, k2); explicit values are refused
        code, out, err = run_cli(capsys, "optimize", "--data", "paper-1", "--k1", "1", "--k2", "0")
        assert code == 2 and out == ""
        assert err.startswith("error:usage: stratmean: unrecognized arguments: --k1 1 --k2 0")
        assert err.count("\n") == 1

    def test_negative_auxiliary_mean(self, capsys, tmp_path):
        # only a zero mean_x is refused; the transforms check their own bases
        doc = {"strata": [{"N": 6, "n": 3, "mean_y": 135.0, "mean_x": -366.666,
                           "var_y": 80.0, "var_x": 2706.666, "rho": 0.9455626}]}
        path = tmp_path / "negative.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(
            capsys, "estimate", "--data", str(path),
            "--estimators", "unbiased,ratio,product,t1,t2,t6",
            "--ybar-st", "130", "--xbar-st", "-360", "--output-format", "json", "--full-precision",
        )
        assert code == 0 and err == ""
        rows = {r["estimator"]: r["estimate"] for r in json.loads(out)["rows"]}
        assert rows["unbiased"] == 130.0
        assert rows["ratio"] == pytest.approx(130.0 * -366.666 / -360.0, rel=1e-14)
        assert rows["product"] == pytest.approx(130.0 * -360.0 / -366.666, rel=1e-14)
        assert len(rows) == 6

    def test_full_precision_roundtrip(self, capsys):
        code, out, _ = run_cli(
            capsys, "moments", "--data", "paper-1",
            "--output-format", "json", "--full-precision",
        )
        payload = json.loads(out)
        assert payload["rows"][0]["var_ybar"] == 11.261730133333334

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.csv"
        code, out, _ = run_cli(
            capsys, "table", "--data", "paper-1",
            "--output-format", "csv", "--out", str(target),
        )
        assert code == 0 and out == ""
        assert target.read_text().startswith("estimator,")


class TestSimulate:
    def test_byte_identical_runs(self, capsys):
        argv = ("simulate", "--data", "paper-1", "--reps", "1000", "--seed", "7",
                "--estimators", "unbiased,ratio")
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_workers_do_not_change_output(self, capsys):
        # --workers parses only as 1, and changes nothing
        base = ("simulate", "--data", "paper-1", "--reps", "9000", "--seed", "5",
                "--estimators", "t1", "--w", "1")
        code0, out0, _ = run_cli(capsys, *base)
        code1, out1, _ = run_cli(capsys, *base, "--workers", "1")
        assert code0 == code1 == 0 and out0 == out1
        code, out, err = run_cli(capsys, *base, "--workers", "2")
        assert code == 2 and out == ""
        assert err == (
            "error:usage: stratmean simulate: argument --workers: "
            "invalid choice: 2 (choose from 1)\n"
        )

    def test_verdict_columns_present(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--data", "paper-1", "--reps", "2000",
            "--seed", "3", "--estimators", "unbiased",
        )
        assert code == 0
        assert "# policy:" in out and "verdict" in out

    def test_microdata_draws_from_the_file_units(self, capsys, tmp_path):
        # strata of 2 units cannot be synthesized to match 5 moments; their
        # own units can be drawn
        path = write_frame(
            tmp_path, "stratum,y,x\n1,1.0,2.0\n1,3.0,5.0\n2,4.0,1.0\n2,7.0,3.5\n",
            {"1": 1, "2": 1},
        )
        flags = ("--data", path, "--format", "microdata-csv",
                 "--output-format", "json", "--full-precision")
        code, out, err = run_cli(
            capsys, "simulate", *flags, "--reps", "3000", "--estimators", "unbiased"
        )
        assert code == 0, err
        row = json.loads(out)["rows"][0]
        _, moments, _ = run_cli(capsys, "moments", *flags)
        assert row["theoretical_mse"] == json.loads(moments)["rows"][0]["var_ybar"]
        # every sample mean is (y_1 + y_2) / 2 for one unit of each stratum
        assert 2.5 <= row["empirical_mean"] <= 5.0

    def test_optimal_flag_is_gone(self, capsys):
        # leaving the constants out already resolves them optimally
        code, out, err = run_cli(
            capsys, "mse", "--data", "paper-1", "--estimators", "t1", "--w", "3", "--optimal"
        )
        assert code == 2 and out == ""
        assert err.startswith("error:usage: stratmean: unrecognized arguments: --optimal")

    def test_strict_fails_on_insufficient_reps(self, capsys):
        # below the verdict threshold every row is insufficient-replications,
        # which strict mode must treat as failure
        code, out, err = run_cli(
            capsys, "simulate", "--data", "paper-1", "--reps", "200",
            "--seed", "3", "--estimators", "unbiased", "--strict",
        )
        assert code == 5
        assert "insufficient-replications" in out

    @pytest.mark.parametrize("strict, want", [((), 0), (("--strict",), 5)])
    def test_negative_first_order_mse_is_a_verdict(self, capsys, strict, want):
        # T6's default optimum has a first-order MSE of -276.8 here; simulate
        # forms no PRE, so the row is reported as divergent, not an error
        data = str(Path(__file__).with_name("invalid_draws.json"))
        code, out, err = run_cli(
            capsys, "simulate", "--data", data, "--reps", "2000",
            "--output-format", "json", "--full-precision", *strict,
        )
        assert (code, err) == (want, "")
        rows = {r["estimator"]: r for r in json.loads(out)["rows"]}
        assert list(rows) == [kind.value for kind in sm.EstimatorKind]
        assert rows["t6"]["theoretical_mse"] < 0.0
        assert rows["t6"]["verdict"] == "mse+bias-divergent"

    def test_non_finite_estimates_are_invalid_draws(self, capsys):
        # at w = 1e150 the transform overflows wherever xbar_st > mean_x;
        # those draws are tallied, so the empirical columns stay finite
        code, out, err = run_cli(
            capsys, "simulate", "--data", "paper-1", "--estimators", "t1", "--w", "1e150",
            "--reps", "2000", "--output-format", "json", "--full-precision",
        )
        assert (code, err) == (0, "")
        (row,) = json.loads(out)["rows"]
        assert 0 < row["valid"] < 2000
        assert row["errors"] == f"non-finite:{2000 - row['valid']}"
        for column in ("empirical_mean", "empirical_bias", "empirical_mse", "se_mse"):
            assert np.isfinite(row[column]), column

    def test_known_mean_x_it_cannot_use_is_refused(self, capsys, tmp_path):
        # the population is synthesized from the stratum means, whose weighted
        # sum is 326.0232 on paper-1's strata; mse keeps the override
        names = ("N", "n", "mean_y", "mean_x", "var_y", "var_x", "rho")
        rows = [(6, 3, 135.0, 366.666, 80.0, 2706.666, 0.9455626),
                (12, 4, 99.166, 310.883, 226.515, 1881.06, 0.948196),
                (7, 3, 80.714, 317.143, 120.238, 2890.476, 0.7523324)]
        doc = {"known_mean_x": 400, "strata": [dict(zip(names, row)) for row in rows]}
        path = tmp_path / "known.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "simulate", "--data", str(path), "--reps", "20000")
        assert (code, out) == (3, "")
        assert err.startswith("error:validation: known_mean_x 400.0 differs from the strata's ")
        assert "326.023" in err and err.count("\n") == 1
        code, out, err = run_cli(
            capsys, "mse", "--data", str(path), "--estimators", "ratio,t1", "--output-format", "csv"
        )
        assert (code, err) == (0, "")
        ratio, t1 = csv.DictReader(io.StringIO(out))
        assert (ratio["mse"], t1["w"]) == ("2.80626", "0.954512")
        # paper-1's own 326 is 7.1e-5 from its strata, inside the tolerance
        doc["known_mean_x"] = 326.0
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(
            capsys, "simulate", "--data", str(path), "--reps", "20", "--estimators", "unbiased"
        )
        assert (code, err) == (0, "")


class TestExitCodes:
    def test_unknown_dataset(self, capsys):
        code, out, err = run_cli(capsys, "moments", "--data", "paper-9")
        assert code == 3
        assert err.startswith("error:unknown-dataset:")

    def test_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "moments")  # missing --data
        assert code == 2 and out == ""
        assert err.startswith("error:usage: stratmean moments: ")
        assert "required: --data" in err and err.count("\n") == 1

    def test_help_goes_to_stdout(self, capsys):
        code, out, err = run_cli(capsys, "mse", "--help")
        assert code == 0 and err == ""
        assert out.startswith("usage: stratmean mse") and "--estimators" in out

    @pytest.mark.parametrize(
        "flag", [("--reps", "0"), ("--reps", "-5"), ("--workers", "0"), ("--workers", "-3")]
    )
    def test_simulate_counts_below_one_are_usage_errors(self, capsys, flag):
        code, out, err = run_cli(
            capsys, "simulate", "--data", "paper-1", "--reps", "10", *flag
        )
        assert code == 2 and out == ""
        if flag[0] == "--reps":
            assert f"argument --reps: must be at least 2, got {flag[1]}" in err
        else:
            # --workers parses only as 1
            assert f"argument --workers: invalid choice: {flag[1]} (choose from 1)" in err

    def test_simulate_single_replication_is_usage_error(self, capsys):
        # one replication has no spread to summarize
        code, out, err = run_cli(capsys, "simulate", "--data", "paper-1", "--reps", "1")
        assert code == 2 and out == ""
        assert err == "error:usage: stratmean simulate: argument --reps: must be at least 2, got 1\n"

    def test_simulate_negative_seed_is_usage_error(self, capsys):
        # SeedSequence takes only non-negative entropy: refused by the parser
        code, out, err = run_cli(
            capsys, "simulate", "--data", "paper-1", "--reps", "2000", "--seed=-1"
        )
        assert code == 2 and out == ""
        assert err == "error:usage: stratmean simulate: argument --seed: must be at least 0, got -1\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    @pytest.mark.parametrize(
        "command, flag",
        [("mse", f) for f in ("--w", "--p", "--a", "--b", "--k1", "--k2")]
        + [("estimate", "--ybar-st"), ("estimate", "--xbar-st")],
    )
    def test_non_finite_numeric_flag_is_usage_error(self, capsys, command, flag, value):
        argv = [command, "--data", "paper-1", f"{flag}={value}"]
        if command == "estimate":
            argv += [f"{m}=100" for m in ("--ybar-st", "--xbar-st") if m != flag]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error:usage: stratmean {command}: argument {flag}: "
                              f"expected a finite number, got '{value}'")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "names, message", [("t9", "unknown estimator 't9'"), (",", "no estimators selected")]
    )
    def test_unknown_estimator(self, capsys, names, message):
        code, out, err = run_cli(
            capsys, "mse", "--data", "paper-1", "--estimators", names
        )
        assert code == 2 and out == ""
        assert err.startswith("error:usage: stratmean mse: argument --estimators: ")
        assert message in err and err.count("\n") == 1

    def test_unknown_estimator_lists_names_in_table_order(self, capsys):
        code, _, err = run_cli(capsys, "mse", "--data", "paper-1", "--estimators", "t1,T7")
        assert code == 2
        assert err.endswith(
            "unknown estimator 't7'; one of: t1, t2, t3, t4, t5, t6, ratio, product, unbiased\n"
        )

    def test_validation_error_exit(self, capsys, tmp_path):
        doc = json.loads(json.dumps(SUMMARY_DOC))
        doc["strata"][0]["rho"] = 1.2
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "moments", "--data", str(path))
        assert code == 3
        assert err.startswith("error:correlation-out-of-range:")

    def test_computation_error_exit(self, capsys):
        # T1 with fractional w demands a positive power base; xbar < 0 fails
        code, _, err = run_cli(
            capsys, "estimate", "--data", "paper-1", "--estimators", "t1",
            "--w", "0.5", "--ybar-st", "100", "--xbar-st", "-5",
        )
        assert code == 4
        assert err.startswith("error:non-positive-base:")

    @pytest.mark.parametrize("value", ["-3e-2", "-1E+0", "-2.5e1", "-.5E-1"])
    @pytest.mark.parametrize(
        "argv, flag",
        [(("mse", "--estimators", "t1"), "--w"),
         (("mse", "--estimators", "t2", "--p", "1", "--a", "1"), "--b"),
         (("mse", "--estimators", "t6", "--k1", "1", "--p", "1", "--a", "1", "--b", "0"),
          "--k2"),
         (("estimate", "--estimators", "unbiased,t1", "--xbar-st", "330"), "--ybar-st")],
    )
    def test_negative_exponent_value_reads_as_a_number(self, capsys, argv, flag, value):
        command, *rest = argv
        spaced = run_cli(capsys, command, "--data", "paper-1", *rest, flag, value)
        joined = run_cli(capsys, command, "--data", "paper-1", *rest, f"{flag}={value}")
        assert spaced == joined
        assert spaced[0] == 0 and spaced[2] == ""

    @pytest.mark.parametrize("value", ["-inf", "-nan"])
    def test_negative_non_finite_value_is_usage_error(self, capsys, value):
        code, out, err = run_cli(capsys, "mse", "--data", "paper-1", "--w", value)
        assert (code, out) == (2, "")
        assert err == "error:usage: stratmean mse: argument --w: expected one argument\n"

    @pytest.mark.parametrize(
        "flags",
        [("--estimators", "t1", "--w", "1e200"),
         ("--estimators", "t2", "--p", "1", "--a", "1e200", "--b", "0")],
    )
    def test_overflowing_shape_is_computation_error(self, capsys, flags):
        # either family's Taylor coefficients overflow, and both stop alike,
        # naming the family and the constants
        code, out, err = run_cli(capsys, "mse", "--data", "paper-1", *flags)
        assert (code, out) == (4, "")
        family, named = {
            "--w": ("exponent", "w=1e+200"),
            "--p": ("mixing", "(p, a, b)=(1.0, 1e+200, 0.0)"),
        }[flags[2]]
        assert err == (
            f"error:computation: OverflowError: {family}-family coefficients of {named} are not finite\n"
        )

    @pytest.mark.parametrize("k1, k2", [("1e200", "0"), ("0", "1e200")])
    def test_overflowing_dual_constants_are_computation_error(self, capsys, k1, k2):
        # (k1 - 1) ** 2 overflows, and k2 ** 2 is inf: neither MSE is a number
        code, out, err = run_cli(
            capsys, "mse", "--data", "paper-1", "--estimators", "t5", "--k1", k1, "--k2", k2
        )
        assert (code, out) == (4, "")
        assert err == (
            "error:computation: OverflowError: t5: first-order MSE or bias at "
            f"(k1, k2)=({float(k1)!r}, {float(k2)!r}) is not finite\n"
        )

    @pytest.mark.parametrize("estimator", ["t1", "t2", "t3", "t5"])
    def test_zero_mean_y(self, capsys, tmp_path, estimator):
        # R = 0 leaves the optimal w unidentified: w = 0, the plain mean.  T3
        # and T5 then reach a first-order MSE of 0, which has no PRE
        doc = json.loads(json.dumps(SUMMARY_DOC))
        for stratum in doc["strata"]:
            stratum["mean_y"] = 0.0
        path = tmp_path / "centred.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "mse", "--data", str(path), "--estimators", estimator,
                                 "--output-format", "json")
        if estimator in ("t1", "t2"):
            assert (code, err) == (0, "")
            (row,) = json.loads(out)["rows"]
            assert row["pre"] == 100.0 and row["bias"] == 0.0
            assert row["w" if estimator == "t1" else "b"] == 0.0
        else:
            assert (code, out) == (4, "")
            assert err == f"error:zero-mse: {estimator}: cannot form PRE for MSE 0.0\n"

    def test_nan_first_order_mse_stops_simulate(self, capsys):
        # w = 1e200 overflows T1's Taylor terms, which would make the MSE nan,
        # so the run stops before any draw, as a computation error
        code, out, err = run_cli(
            capsys, "simulate", "--data", "paper-1", "--estimators", "t1",
            "--w", "1e200", "--reps", "2000",
        )
        assert (code, out) == (4, "")
        assert err == (
            "error:computation: OverflowError: "
            "exponent-family coefficients of w=1e+200 are not finite\n"
        )

    @pytest.mark.parametrize(
        "flags, kinds",
        [(("--estimators", "t2", "--p", "1"), "t2"),
         (("--estimators", "t4,t6", "--a", "1", "--b", "0"), "t4, t6"),
         (("--estimators", "t3", "--k1", "1"), "t3")],
    )
    def test_partial_constant_set_is_usage_error(self, capsys, flags, kinds):
        code, out, err = run_cli(capsys, "mse", "--data", "paper-1", *flags)
        assert code == 2 and out == ""
        assert err.startswith(f"error:usage: {kinds}: give all of --")

    def test_table_without_data_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "table")
        assert code == 2 and out == ""
        assert err.startswith("error:usage: table requires --data")

    def test_partial_set_unused_by_selected_kinds_is_ignored(self, capsys):
        code, out, _ = run_cli(
            capsys, "mse", "--data", "paper-1", "--estimators", "t1", "--p", "1"
        )
        assert code == 0 and out.startswith("estimator")

    def test_overflow_is_computation_error(self, capsys, tmp_path):
        # optimal w = cov_xybar / (R var_xbar) ~ 2e154 overflows T2's curvature
        doc = {"strata": [{"N": 2, "n": 1, "mean_y": 1, "mean_x": 1, "var_y": 1,
                           "var_x": 2.2e-309, "cov_xy": 4.7e-155}]}
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "mse", "--data", str(path), "--estimators", "t2")
        assert code == 4 and out == ""
        assert err.startswith("error:computation: OverflowError")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "flags",
        [("--data", "paper-1"), ("--format", "summary-json"), ("--estimators", "t1"),
         ("--w", "0"), ("--p", "1"), ("--a", "1"), ("--b", "0"),
         ("--k1", "1"), ("--k2", "0"), ("--w", "5", "--estimators", "t1")],
    )
    def test_paper_layout_rejects_ignored_flags(self, capsys, flags):
        code, out, err = run_cli(capsys, "table", "--paper-layout", *flags)
        assert code == 2 and out == ""
        assert err.startswith("error:usage: --paper-layout fixes the data and estimators")
        assert all(f in err for f in flags if f.startswith("--"))
        assert err.count("\n") == 1

    def test_paper_layout_keeps_output_flags(self, capsys, tmp_path):
        target = tmp_path / "layout.csv"
        code, out, _ = run_cli(
            capsys, "table", "--paper-layout", "--output-format", "csv",
            "--full-precision", "--out", str(target),
        )
        assert code == 0 and out == ""
        assert target.read_text().startswith("estimator,mse_data1,")

    def test_error_lines_are_single_line(self, capsys):
        code, _, err = run_cli(capsys, "moments", "--data", "paper-9")
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize(
        "case", ["summary-dir", "csv-dir", "sidecar-dir", "deep-json"]
    )
    def test_unreadable_input_is_parse_error(self, capsys, tmp_path, case):
        # a directory stands in for every OSError: root may read any file
        data, fmt, bad, reason = tmp_path / "in", "summary-json", None, "Is a directory"
        if case == "summary-dir":
            data.mkdir()
        elif case == "csv-dir":
            fmt = "microdata-csv"
            data.mkdir()
            Path(f"{data}.n.json").write_text(json.dumps(GOOD_SIZES))
        elif case == "sidecar-dir":
            fmt, bad = "microdata-csv", Path(f"{data}.n.json")
            data.write_text("stratum,y,x\n1,1,2\n")
            bad.mkdir()
        else:
            data.write_text("[" * 100_000)
            reason = "nested too deeply"
        code, out, err = run_cli(capsys, "moments", "--data", str(data), "--format", fmt)
        assert code == 3 and out == ""
        assert err == f"error:parse: {bad or data}: {reason}\n"

    @pytest.mark.parametrize("target", ["missing/report.txt", "."])
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, target):
        out_path = tmp_path / target
        code, out, err = run_cli(capsys, "moments", "--data", "paper-1", "--out", str(out_path))
        assert code == 2 and out == ""
        assert err.startswith(f"error:usage: --out {out_path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("target, reason", [
        ("missing/report.txt", "No such file or directory"),
        (".", "Is a directory"),
        ("file/report.txt", "Not a directory"),
    ])
    def test_unwritable_out_refused_before_work(self, capsys, tmp_path, monkeypatch,
                                                target, reason):
        (tmp_path / "file").write_text("")

        def replicate(*args, **kwargs):
            raise AssertionError("simulate ran before --out was checked")

        monkeypatch.setattr(cli.montecarlo, "replicate", replicate)
        out_path = tmp_path / target
        code, out, err = run_cli(capsys, "simulate", "--data", "paper-2", "--out", str(out_path))
        assert code == 2 and out == ""
        assert err == f"error:usage: --out {out_path}: {reason}\n"

    def test_population_too_large_is_computation_error(self, capsys, tmp_path, monkeypatch):
        doc = json.loads(json.dumps(SUMMARY_DOC))
        doc["strata"][0]["N"] = 10**12
        # this N moves sum W_h mean_x_h far from 326, which simulate refuses
        del doc["known_mean_x"]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))

        class NoMemory:
            """A generator whose draws fail as numpy's would on 10**12 units."""

            def standard_normal(self, size):
                raise MemoryError(f"Unable to allocate an array with shape {size}")

        monkeypatch.setattr(cli.montecarlo.np.random, "default_rng", lambda seed=None: NoMemory())
        code, out, err = run_cli(capsys, "simulate", "--data", str(path), "--reps", "2")
        assert code == 4 and out == ""
        assert err == (
            "error:computation: out of memory: "
            "Unable to allocate an array with shape (1000000000000, 2)\n"
        )


#: Prints what one process computes from a 60,000-unit stratum: the
#: full-precision ``moments`` of a microdata CSV, then a digest of the units
#: that ``synthesize_population`` builds for a summary-json.
_LARGE_STRATUM_DIGEST = """
import hashlib, sys
from stratmean import cli, synthesize_population
code = cli.main(["moments", "--data", sys.argv[1], "--format", "microdata-csv", "--full-precision"])
pop = synthesize_population(cli.ingest(sys.argv[2]), seed=5)
print(hashlib.sha256(b"".join(s.y.tobytes() + s.x.tobytes() for s in pop.strata)).hexdigest())
sys.exit(code)
"""


def test_large_stratum_output_independent_of_blas_threads(tmp_path):
    """Stratum moments and synthesis add their sums without BLAS, so one and
    two BLAS threads print the same bytes; a threaded dot product does not."""
    N = 60_000
    rng = np.random.default_rng(11)
    y, x = rng.normal(1000.0, 10.0, N).tolist(), rng.normal(3000.0, 40.0, N).tolist()
    frame = tmp_path / "frame.csv"
    frame.write_text("stratum,y,x\n" + "".join(f"1,{a!r},{b!r}\n" for a, b in zip(y, x)))
    (tmp_path / "frame.csv.n.json").write_text('{"1": 50}')
    design = tmp_path / "design.json"
    design.write_text(json.dumps({"strata": [
        {"N": N, "n": 50, "mean_y": 1000.0, "mean_x": 3000.0,
         "var_y": 100.0, "var_x": 1600.0, "rho": 0.8},
    ]}))
    src = str(Path(sm.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        done = subprocess.run(
            [sys.executable, "-c", _LARGE_STRATUM_DIGEST, str(frame), str(design)],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.append(done.stdout)
    assert outputs[0].startswith("label") and outputs[0].count("\n") == 3
    assert outputs[0] == outputs[1]
