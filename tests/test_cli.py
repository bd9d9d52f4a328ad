"""CLI parsing, artifact writing, exit codes and determinism."""

import argparse
import copy
import dataclasses
import errno
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import dualitylab
from dualitylab import ConfigError, SlitGeometry, build_mixed_state, build_pure_state, \
    coherence, duality_report, intensity_profile, mei_weitz_scan, validate
from dualitylab import cli
from dualitylab.cli import MAX_STATE_PATHS, ReportDocument, build_report_document, main, \
    parse_config
from dualitylab.fringes import DEFAULT_PHASE_STEPS, MAX_SCAN_PATHS, MAX_SCAN_POINTS

A3 = 0.5773502691896258        # 1/sqrt(3)
B = 0.8660254037844386         # sqrt(3)/2

SYMMETRIC_STATE = {
    "amplitudes": [A3, A3, A3],
    "detectors": [[1, 0], [0.5, B], [0.5, -B]],
}
# rho is diagonally dominant, so PSD; the Gram matrix has rank two.
MIXED_STATE = {
    "rho": [[0.4, [0.1, 0.05], 0.1], [[0.1, -0.05], 0.3, 0.1], [0.1, 0.1, 0.3]],
    "gram": [[1, 1, 0], [1, 1, 0], [0, 0, 1]],
}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def report_config(tmp_path, out_name="report.json", state=None):
    return {
        "mode": "report",
        "state": state if state is not None else dict(SYMMETRIC_STATE),
        "output": {"format": "json", "path": str(tmp_path / out_name)},
    }


class TestParseConfig:
    def test_minimal_two_slit_config(self, tmp_path):
        config = parse_config(json.dumps({
            "mode": "fringes",
            "state": {"amplitudes": [0.7071067811865476, 0.7071067811865476],
                      "detectors": [[1, 0], [0.6, 0.8]]},
            "output": {"format": "csv", "path": str(tmp_path / "out.csv")},
        }))
        assert config.mode == "fringes"
        assert config.state["amplitudes"].shape == (2,)
        assert config.state["detectors"].shape == (2, 2)
        # No geometry section: SlitGeometry's own default sample count applies.
        assert config.geometry is None
        assert cli.run(config) == 0
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert len(lines) == 1 + DEFAULT_PHASE_STEPS

    def test_huge_integers_are_aggregated_errors(self):
        huge = "1" + "0" * 400
        text = json.dumps({
            "mode": "uqsd",
            "uqsd": {"d1": [1, 0], "d2": [0.5, B], "p1": 0.5, "trials": 10, "seed": 1},
            "output": {"format": "json", "path": "u.json"},
        }).replace('"p1": 0.5', f'"p1": {huge}').replace('"d1": [1,', f'"d1": [[{huge}, 0],')
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert [m.split(":")[0] for m in info.value.messages] == ["uqsd.d1[0]", "uqsd.p1"]

    def test_complex_pairs_parse(self):
        config = parse_config(json.dumps({
            "mode": "report",
            "state": {"rho": [[[0.5, 0.0], [0.0, -0.5]],
                              [[0.0, 0.5], [0.5, 0.0]]],
                      "gram": [[1, 0], [0, 1]]},
            "output": {"format": "json", "path": "out.json"},
        }))
        assert config.state["rho"][0, 1] == -0.5j
        assert config.state["rho"][1, 0] == 0.5j

    def test_both_state_forms_rejected(self):
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps({
                "mode": "report",
                "state": {"amplitudes": [1, 0], "detectors": [[1], [1]],
                          "rho": [[1, 0], [0, 0]], "gram": [[1, 1], [1, 1]]},
                "output": {"format": "json", "path": "out.json"},
            }))
        assert any("exactly one state spec" in m for m in info.value.messages)

    def test_flipped_path_out_of_range(self):
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps({
                "mode": "meiweitz",
                "meiweitz": {"n": 4, "flipped_path": 4,
                             "decohered_paths": [3], "gamma_grid": [0.5]},
                "output": {"format": "csv", "path": "out.csv"},
            }))
        assert any("out of range" in m for m in info.value.messages)

    def test_errors_are_aggregated(self):
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps({
                "mode": "meiweitz",
                "meiweitz": {"n": 4, "flipped_path": 9,
                             "decohered_paths": [], "gamma_grid": [2.0]},
                "output": {"format": "json", "path": ""},
            }))
        assert len(info.value.messages) >= 3

    def test_syntax_error_position(self):
        with pytest.raises(ConfigError) as info:
            parse_config("{\n  \"mode\": \"report\",,\n}")
        assert "line 2" in info.value.messages[0]

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps({
                "mode": "report", "state": dict(SYMMETRIC_STATE),
                "plot": True,
                "output": {"format": "json", "path": "out.json"},
            }))
        assert any("unknown top-level key" in m for m in info.value.messages)

    def test_format_must_match_mode(self):
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps({
                "mode": "pairs", "state": dict(SYMMETRIC_STATE),
                "output": {"format": "json", "path": "out.json"},
            }))
        assert any("output.format" in m for m in info.value.messages)


def _hex(values: np.ndarray) -> list[str]:
    """Every real and imaginary part, bit for bit, as float hex."""
    return [part.hex() for z in values.ravel().tolist() for part in (z.real, z.imag)]


# Leaves at the edges of float conversion: ints past 2^53 and 2^64, signed
# zeros, the smallest subnormal, the largest magnitudes and NaN.
EDGE_LEAVES = (0, 1, -7, 2**53 + 1, 2**53 + 3, 2**60 + 3, -(2**64 + 5), 10**30,
               0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, float("nan"))
HUGE = "1" + "0" * 400


class TestBulkParse:
    def test_fuzzed_members_match_the_entry_walk(self, monkeypatch):
        rng = np.random.default_rng(1604)

        def leaf():
            k = int(rng.integers(len(EDGE_LEAVES) + 1))
            return EDGE_LEAVES[k] if k < len(EDGE_LEAVES) else float(rng.normal())

        for _ in range(400):
            rows, cols = (int(k) for k in rng.integers(1, 6, size=2))
            pairs = bool(rng.integers(2))
            matrix = [[[leaf(), leaf()] if pairs else leaf() for _ in range(cols)]
                      for _ in range(rows)]
            # Through JSON text, so NaN arrives as the literal NaN.
            matrix = json.loads(json.dumps(matrix))
            for parse, ndim, node in ((cli._complex_matrix, 2, matrix),
                                      (cli._complex_vector, 1, matrix[0])):
                assert cli._bulk(node, ndim, 1) is not None
                fast_errors, walk_errors = [], []
                fast = parse(node, "m", fast_errors)
                with monkeypatch.context() as patch:  # the entry walk alone
                    patch.setattr(cli, "_bulk", lambda *_: None)
                    walked = parse(node, "m", walk_errors)
                assert fast_errors == walk_errors == []
                assert fast.shape == walked.shape == (rows, cols)[2 - ndim:]
                assert _hex(fast) == _hex(walked)

    def test_mixed_forms_are_left_to_the_walk(self):
        node = [[0.5, [0.1, -0.0]], [[0.1, 0.2], 2**60 + 3]]
        assert cli._bulk(node, 2, 1) is None
        errors = []
        matrix = cli._complex_matrix(node, "m", errors)
        assert errors == []
        expected = np.array([[0.5, complex(0.1, -0.0)], [0.1 + 0.2j, 2.0**60]])
        assert _hex(matrix) == _hex(expected)

    def test_real_two_by_two_stays_plain(self):
        matrix = cli._complex_matrix([[1, 0], [0, 1]], "m", [])
        assert _hex(matrix) == _hex(np.eye(2, dtype=complex))
        # As a vector, the same list is two [re, im] pairs.
        assert cli._complex_vector([[1, 0], [0, 1]], "v", []).tolist() == [1, 1j]

    @pytest.mark.parametrize("leaf,got", [
        ("true", "got True"), ('"1.5"', "got '1.5'"), ("null", "got None"),
        ("[1, 2, 3]", "got [1, 2, 3]"), ("[[1, 0], 0]", "got [[1, 0], 0]"),
        (HUGE, None)])
    def test_rejected_leaf_messages(self, leaf, got):
        detail = ("int too large to convert to float" if got is None
                  else f"expected a number or [re, im] pair, {got}")
        for text, paths in [
            ('{"mode": "report", "state": {"rho": [[0.5, %s], [[0.1, -0.2], 0.5]], '
             '"gram": [[1, 0], [0, %s]]}, "output": {"format": "json", "path": "o"}}',
             ("state.rho[0][1]", "state.gram[1][1]")),
            ('{"mode": "uqsd", "uqsd": {"d1": [1, %s], "d2": [%s, 0], "p1": 0.5, '
             '"trials": 10, "seed": 1}, "output": {"format": "json", "path": "o"}}',
             ("uqsd.d1[1]", "uqsd.d2[0]"))]:
            with pytest.raises(ConfigError) as info:
                parse_config(text % (leaf, leaf))
            assert info.value.messages == [f"{path}: {detail}" for path in paths]

    @pytest.mark.parametrize("rows,messages", [
        ("[[0.5, 0.5], [0.5]]", ["row length 1 differs from 2"]),
        ("[[0.5, 0.5], [[0.5, 0], [0.5, 0], [1, 0]]]", ["row length 3 differs from 2"]),
        ("[[]]", ["expected a list of at least 1 entries"])])
    def test_rejected_row_messages(self, rows, messages):
        text = ('{"mode": "report", "state": {"rho": %s, "gram": %s}, '
                '"output": {"format": "json", "path": "o"}}' % (rows, rows))
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        row = "0" if rows == "[[]]" else "1"
        assert info.value.messages == [f"state.{name}[{row}]: {message}"
                                       for name in ("rho", "gram") for message in messages]


class TestReportMode:
    def test_end_to_end(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
        config_path = write_config(tmp_path, "c.json", report_config(tmp_path))
        assert main(["report", "--config", config_path]) == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["duality"]["coherence"] == pytest.approx(0.5, abs=1e-10)
        assert payload["duality"]["distinguishability"] == pytest.approx(0.5, abs=1e-10)
        assert payload["duality"]["duality_margin"] == pytest.approx(0.0, abs=1e-10)
        assert payload["duality"]["is_symmetric"] is True
        assert payload["diagnostics"]["ok"] is True
        assert payload["timestamp"] is None
        assert len(payload["pairwise"]) == 3
        out = capsys.readouterr().out
        assert "coherence=" in out

    def test_numbers_reproducible_from_library(self, tmp_path):
        config_path = write_config(tmp_path, "c.json", report_config(tmp_path))
        main(["report", "--config", config_path])
        payload = json.loads((tmp_path / "report.json").read_text())
        state = build_pure_state(np.array([A3] * 3),
                                 np.array([[1, 0], [0.5, B], [0.5, -B]]))
        assert payload["duality"]["coherence"] == coherence(state)

    def test_round_trip(self, tmp_path):
        config_path = write_config(tmp_path, "c.json", report_config(tmp_path))
        main(["report", "--config", config_path])
        text = (tmp_path / "report.json").read_text()
        document = ReportDocument.from_json(text)
        assert document.to_json() == text
        assert ReportDocument.from_json(document.to_json()) == document

    def test_to_json_matches_deep_copied_dump(self, tmp_path):
        # The last two paths carry nothing, so the 0-based pair (2, 3) is dark.
        state = {"rho": [[0.5, [0.1, 0.2], 0, 0], [[0.1, -0.2], 0.5, 0, 0],
                         [0, 0, 0, 0], [0, 0, 0, 0]],
                 "gram": [[1, 0.5, 0, 0], [0.5, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}
        config = parse_config(json.dumps(report_config(tmp_path, state=state)))
        document = build_report_document(
            config, build_mixed_state(**config.state))
        assert document.duality["dark_pairs"] == [[2, 3]]
        text = document.to_json()
        assert text == json.dumps(dataclasses.asdict(document), sort_keys=True) + "\n"
        assert ReportDocument.from_json(text) == document
        assert ReportDocument.from_json(text).to_json() == text

    @pytest.mark.parametrize("mode", ["report", "uqsd"])
    def test_json_artifact_is_one_sorted_line(self, tmp_path, monkeypatch, mode):
        # The stdlib's C encoder writes the artifact: no indent, keys sorted,
        # one trailing newline.  It loads back to the document the mode built.
        monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
        payload = report_config(tmp_path, out_name="out.json") if mode == "report" else {
            "mode": "uqsd",
            "uqsd": {"d1": [1, 0], "d2": [0.5, B], "p1": 0.4, "trials": 1000, "seed": 5},
            "output": {"format": "json", "path": str(tmp_path / "out.json")},
        }
        config_path = write_config(tmp_path, "c.json", payload)
        assert main([mode, "--config", config_path]) == 0
        text = (tmp_path / "out.json").read_text(encoding="utf-8")
        assert text.endswith("}\n") and text.count("\n") == 1
        config = parse_config(json.dumps(payload))
        document = (dataclasses.asdict(build_report_document(
                        config, build_pure_state(**config.state)))
                    if mode == "report" else cli.build_uqsd_document(config))
        assert json.loads(text) == document
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"

    def test_orthogonal_detector_report(self, tmp_path):
        state = {"amplitudes": [A3, A3, A3],
                 "detectors": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
        config_path = write_config(tmp_path, "c.json",
                                   report_config(tmp_path, state=state))
        main(["report", "--config", config_path])
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["duality"]["coherence"] == 0.0
        assert payload["duality"]["distinguishability"] == pytest.approx(1.0, abs=1e-10)

    def test_timestamp_from_source_date_epoch(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        config_path = write_config(tmp_path, "c.json", report_config(tmp_path))
        main(["report", "--config", config_path])
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["timestamp"] == "2023-11-14T22:13:20+00:00"

    def test_mixed_report_decomposes_each_matrix_once(self, tmp_path, spectral_calls):
        # build_mixed_state decomposes rho, gram and rho * gram in one call;
        # the diagnostics block reads the record it stored, and the duality
        # block does not repeat its rank.
        config_path = write_config(tmp_path, "c.json",
                                   report_config(tmp_path, state=MIXED_STATE))
        assert main(["report", "--config", config_path]) == 0
        assert spectral_calls == {"eigvalsh": 1, "matrix_rank": 0, "matrices": 3}
        payload = json.loads((tmp_path / "report.json").read_text())
        config = parse_config(json.dumps(report_config(tmp_path, state=MIXED_STATE)))
        rank = validate(build_mixed_state(**config.state)).gram_rank
        assert payload["diagnostics"]["gram_rank"] == rank == 2
        assert "gram_rank" not in payload["duality"]


class TestTableModes:
    def test_pairs_csv_one_based(self, tmp_path):
        config = {
            "mode": "pairs",
            "state": {"amplitudes": [0.7071067811865476, 0.5477225575051661,
                                     0.4472135954999579],
                      "detectors": [[1, 0]] * 3},
            "output": {"format": "csv", "path": str(tmp_path / "pairs.csv")},
        }
        config_path = write_config(tmp_path, "c.json", config)
        assert main(["pairs", "--config", config_path]) == 0
        lines = (tmp_path / "pairs.csv").read_text().splitlines()
        assert lines[0] == "i,j,weight,visibility,distinguishability,slack"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[:2] == ["1", "2"]
        assert float(first[2]) == pytest.approx(0.8, abs=1e-12)

    def test_pairs_dark_pair_is_a_warning(self, tmp_path, capsys):
        config = {
            "mode": "pairs",
            "state": {"amplitudes": [1, 0, 0], "detectors": [[1, 0]] * 3},
            "output": {"format": "csv", "path": str(tmp_path / "pairs.csv")},
        }
        config_path = write_config(tmp_path, "c.json", config)
        assert main(["pairs", "--config", config_path]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: pair (2, 3) carries no probability; omitted from the table"]
        lines = (tmp_path / "pairs.csv").read_text().splitlines()
        assert [line.split(",")[:2] for line in lines[1:]] == [["1", "2"], ["1", "3"]]

    def test_fringes_csv_and_summary(self, tmp_path, capsys):
        config = {
            "mode": "fringes",
            "state": {"amplitudes": [0.7071067811865476, 0.7071067811865476],
                      "detectors": [[1, 0], [0.6, 0.8]]},
            "geometry": {"phase_step_count": 256},
            "output": {"format": "csv", "path": str(tmp_path / "fringes.csv")},
        }
        config_path = write_config(tmp_path, "c.json", config)
        assert main(["fringes", "--config", config_path]) == 0
        lines = (tmp_path / "fringes.csv").read_text().splitlines()
        assert lines[0] == "delta,intensity"
        assert len(lines) == 257
        out = capsys.readouterr().out
        reported = float(out.split("visibility=")[1].split()[0])
        assert reported == pytest.approx(0.6, abs=1e-9)

    def test_meiweitz_csv_endpoints(self, tmp_path):
        grid = [round(0.1 * k, 1) for k in range(11)]
        config = {
            "mode": "meiweitz",
            "meiweitz": {"n": 4, "flipped_path": 3, "decohered_paths": [3],
                         "gamma_grid": grid},
            "output": {"format": "csv", "path": str(tmp_path / "scan.csv")},
        }
        config_path = write_config(tmp_path, "c.json", config)
        assert main(["meiweitz", "--config", config_path]) == 0
        lines = (tmp_path / "scan.csv").read_text().splitlines()
        assert lines[0] == "g,visibility,coherence,distinguishability"
        first = [float(x) for x in lines[1].split(",")]
        last = [float(x) for x in lines[-1].split(",")]
        assert first[1] == pytest.approx(0.8181818181818182, abs=1e-6)
        assert first[2] == pytest.approx(0.5, abs=1e-12)
        assert last[1] == pytest.approx(0.7698003589195011, abs=1e-6)
        assert last[2] == pytest.approx(1.0, abs=1e-12)

    def test_uqsd_json(self, tmp_path):
        config = {
            "mode": "uqsd",
            "uqsd": {"d1": [1, 0], "d2": [0.5, B], "p1": 0.5,
                     "trials": 100000, "seed": 77},
            "output": {"format": "json", "path": str(tmp_path / "uqsd.json")},
        }
        config_path = write_config(tmp_path, "c.json", config)
        assert main(["uqsd", "--config", config_path]) == 0
        payload = json.loads((tmp_path / "uqsd.json").read_text())
        assert payload["analytic"]["success_probability"] == pytest.approx(0.5, abs=1e-12)
        assert payload["analytic"]["in_optimal_regime"] is True
        assert payload["simulation"]["freq_wrong"] == 0.0
        assert payload["simulation"]["success_frequency"] == pytest.approx(0.5, abs=0.01)
        assert payload["simulation"]["seed"] == 77


def _per_row(header: str, *columns) -> str:
    """A table formatted one row at a time: the reference for _csv."""
    line = ",".join(["%.17g"] * len(columns))
    return "\n".join([header, *(line % row for row in zip(*columns))]) + "\n"


class TestCsvChunks:
    EDGE = (-0.0, 1e-320, 1e308, -1e308, 0.1, 2.0**53 + 2, float("nan"), float("inf"))

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_chunks_match_per_row_formatting(self, extra):
        chunk = cli._CSV_CHUNK_ROWS
        count = chunk + extra
        rng = np.random.default_rng(count)
        labels = np.arange(1, count + 1)  # an int column, as the pair labels are
        values = rng.normal(size=count) * 10.0 ** rng.integers(-320, 308, size=count)
        values[:len(self.EDGE)] = self.EDGE
        chunks = list(cli._csv("i,x,y", labels, values, values[::-1]))
        assert len(chunks) == 1 + -(-count // chunk)
        assert "".join(chunks) == _per_row("i,x,y", labels.tolist(), values.tolist(),
                                           values[::-1].tolist())

    def test_empty_table_is_its_header(self):
        assert list(cli._csv("a,b", np.empty(0), np.empty(0))) == ["a,b\n"]

    @pytest.mark.parametrize("mode", ["pairs", "fringes", "meiweitz"])
    def test_tables_match_per_row_formatting(self, tmp_path, monkeypatch, mode):
        out = tmp_path / "t.csv"
        sections = {
            "pairs": {"state": {"amplitudes": [5 ** -0.5] * 5,
                                "detectors": np.eye(5)[[0, 1, 1, 2, 3]].tolist()}},
            "fringes": {"state": dict(SYMMETRIC_STATE),
                        "geometry": {"phase_step_count": 64}},
            "meiweitz": {"meiweitz": {"n": 4, "flipped_path": 3, "decohered_paths": [3],
                                      "gamma_grid": [0.0, 0.25, 0.5, 0.75, 1.0]}},
        }
        config = {"mode": mode, **sections[mode],
                  "output": {"format": "csv", "path": str(out)}}
        config_path = write_config(tmp_path, "c.json", config)
        parsed = parse_config(json.dumps(config))
        if mode == "pairs":
            rows = duality_report(cli._build_state(parsed)).pairwise
            reference = _per_row("i,j,weight,visibility,distinguishability,slack",
                                 *zip(*((m.i + 1, m.j + 1, m.pair_weight, m.visibility,
                                         m.distinguishability, m.slack) for m in rows)))
        elif mode == "fringes":
            profile = intensity_profile(cli._build_state(parsed),
                                        SlitGeometry(n=3, phase_step_count=64))
            reference = _per_row("delta,intensity", profile.delta.tolist(),
                                 profile.intensity.tolist())
        else:
            scan = mei_weitz_scan(**parsed.meiweitz)
            reference = _per_row("g,visibility,coherence,distinguishability",
                                 scan.gamma_grid.tolist(), scan.visibilities.tolist(),
                                 scan.coherences.tolist(), scan.distinguishabilities.tolist())
        # Chunks of 3 rows: several chunks and a short last one in each table.
        for chunk_rows in (cli._CSV_CHUNK_ROWS, 3):
            monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", chunk_rows)
            assert main([mode, "--config", config_path]) == 0
            assert out.read_text(encoding="utf-8") == reference

    def test_writer_never_stacks_the_whole_table(self, tmp_path):
        # 2^17 rows of two float columns: one stacked copy of the table is
        # 2^17 x 16 B; each chunk is stacked, formatted and written alone.
        rows = 2**17
        a, b = np.linspace(0.0, 1.0, rows), np.linspace(1.0, 2.0, rows)
        path = str(tmp_path / "t.csv")
        cli._write_atomic(path, cli._csv("a,b", a[:8], b[:8]))
        tracemalloc.start()
        try:
            cli._write_atomic(path, cli._csv("a,b", a, b))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows * 16

    def test_failure_mid_stream_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "fringes.csv"
        out.write_text("before\n")
        config_path = write_config(tmp_path, "c.json", {
            "mode": "fringes", "state": dict(SYMMETRIC_STATE),
            "geometry": {"phase_step_count": 64},
            "output": {"format": "csv", "path": str(out)}})
        monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", 8)
        streamed = cli._csv

        def full_disk(*args):
            chunks = streamed(*args)
            yield next(chunks)
            yield next(chunks)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(cli, "_csv", full_disk)
        assert main(["fringes", "--config", config_path]) == 2
        assert capsys.readouterr().err == (
            f"config error: cannot write {out}: {os.strerror(errno.ENOSPC)}\n")
        assert out.read_text() == "before\n"
        assert not list(tmp_path.glob(".tmp-dualitylab-*"))


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        config_path = write_config(tmp_path, "c.json", {"mode": "nonsense"})
        assert main(["report", "--config", config_path]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file_is_2(self, tmp_path):
        assert main(["report", "--config", str(tmp_path / "absent.json")]) == 2

    def test_mode_mismatch_is_2(self, tmp_path, capsys):
        config_path = write_config(tmp_path, "c.json", report_config(tmp_path))
        assert main(["pairs", "--config", config_path]) == 2
        assert capsys.readouterr().err == (
            "config error: config declares mode 'report' but mode 'pairs' "
            "was given on the command line\n")

    def test_validation_error_is_3(self, tmp_path, capsys):
        config = {
            "mode": "report",
            "state": {"rho": [[0.45, 0], [0, 0.45]], "gram": [[1, 1], [1, 1]]},
            "output": {"format": "json", "path": str(tmp_path / "r.json")},
        }
        config_path = write_config(tmp_path, "c.json", config)
        assert main(["report", "--config", config_path]) == 3
        assert "rho_trace" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--validate-only"]])
    def test_pure_and_matrix_forms_of_a_state_exit_alike(self, tmp_path, capsys, flags):
        # The amplitudes' squared norm is 1 + 3.8e-11: off by more than the
        # 1e-12 of rho_trace, whichever form the state is given in.
        c, d = np.full(2, 0.7071067812), np.array([[1.0, 0.0], [0.6, 0.8]])
        outcomes = []
        for state in ({"amplitudes": c.tolist(), "detectors": d.tolist()},
                      {"rho": np.outer(c, c).tolist(), "gram": (d @ d.T).tolist()}):
            config_path = write_config(tmp_path, "c.json", report_config(tmp_path, state=state))
            code = main(["report", "--config", config_path, *flags])
            outcomes.append((code, capsys.readouterr()))
        assert outcomes[0] == outcomes[1]
        code, (out, err) = outcomes[0]
        assert (code, out) == (3, "")
        assert err.startswith("validation error: invariant 'rho_trace' failed")
        assert not (tmp_path / "report.json").exists()

    def test_regime_error_is_4(self, tmp_path, capsys):
        config = {
            "mode": "uqsd",
            "uqsd": {"d1": [1, 0], "d2": [0.5, B], "p1": 0.95,
                     "trials": 1000, "seed": 1},
            "output": {"format": "json", "path": str(tmp_path / "u.json")},
        }
        config_path = write_config(tmp_path, "c.json", config)
        assert main(["uqsd", "--config", config_path]) == 4
        assert "runtime error" in capsys.readouterr().err
        assert not (tmp_path / "u.json").exists()

    @pytest.mark.parametrize("case", ["negative_seed", "bad_epoch", "missing_dir",
                                      "not_utf8", "deep_nesting", "huge_integer",
                                      "over_digit_limit", "trials_too_large",
                                      "meiweitz_n_above_cap", "meiweitz_n_huge",
                                      "meiweitz_grid_above_cap", "meiweitz_duplicate_paths",
                                      "pure_state_above_cap", "mixed_state_above_cap",
                                      "top_level_list", "output_is_directory"])
    def test_bad_outside_input_is_one_line_config_error(self, tmp_path, capsys,
                                                         monkeypatch, case):
        monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
        out = tmp_path / "out.json"
        extra = []
        expected = {"meiweitz_duplicate_paths": "meiweitz.decohered_paths: duplicate indices",
                    "top_level_list": "top-level document must be a JSON object",
                    "output_is_directory": "cannot write "}.get(case, "")
        if case == "negative_seed":
            mode, config = "uqsd", {
                "mode": "uqsd",
                "uqsd": {"d1": [1, 0], "d2": [0.5, B], "p1": 0.5,
                         "trials": 1000, "seed": -1},
                "output": {"format": "json", "path": str(out)},
            }
        elif case == "bad_epoch":
            monkeypatch.setenv("SOURCE_DATE_EPOCH", "yesterday")
            mode, config = "report", report_config(tmp_path, out_name="out.json")
        elif case == "missing_dir":
            out = tmp_path / "absent" / "out.json"
            mode, config = "report", report_config(tmp_path, out_name="absent/out.json")
        elif case == "trials_too_large":
            # Above the int64 range of numpy's binomial sampler.
            mode, config = "uqsd", {
                "mode": "uqsd",
                "uqsd": {"d1": [1, 0], "d2": [0.5, B], "p1": 0.5,
                         "trials": 10**21, "seed": 1},
                "output": {"format": "json", "path": str(out)},
            }
        elif case.startswith("meiweitz"):
            n = {"meiweitz_n_above_cap": MAX_SCAN_PATHS + 1,
                 "meiweitz_n_huge": 10**400}.get(case, 4)
            grid = [0.5] * (MAX_SCAN_POINTS + 1 if case == "meiweitz_grid_above_cap" else 1)
            decohered = [3, 3] if case == "meiweitz_duplicate_paths" else [3]
            mode, config = "meiweitz", {
                "mode": "meiweitz",
                "meiweitz": {"n": n, "flipped_path": 3, "decohered_paths": decohered,
                             "gamma_grid": grid},
                "output": {"format": "csv", "path": str(out)},
            }
        elif case == "pure_state_above_cap":
            n = MAX_STATE_PATHS + 1
            mode, config = "report", report_config(
                tmp_path, out_name="out.json",
                state={"amplitudes": [n ** -0.5] * n, "detectors": [[1, 0]] * n})
        elif case == "mixed_state_above_cap":
            n = MAX_STATE_PATHS + 1
            mode, config = "report", report_config(
                tmp_path, out_name="out.json",
                state={"rho": (np.eye(n) / n).tolist(), "gram": np.eye(n).tolist()})
        else:
            mode, config = "report", report_config(tmp_path, out_name="out.json")
        if case == "top_level_list":
            config = []
        elif case == "output_is_directory":
            (tmp_path / "taken").mkdir()
            extra = ["--output", str(tmp_path / "taken")]
        config_path = write_config(tmp_path, "c.json", config)
        text = (tmp_path / "c.json").read_text(encoding="utf-8")
        if case == "not_utf8":
            (tmp_path / "c.json").write_bytes(b"\xff" + text.encode())
        elif case == "deep_nesting":
            (tmp_path / "c.json").write_text("[" * 100_000 + "]" * 100_000)
        elif case == "huge_integer":
            # An integer literal too large for a float, as an amplitude.
            huge = "1" + "0" * 400
            (tmp_path / "c.json").write_text(text.replace(str(A3), huge, 1))
        elif case == "over_digit_limit":
            # Longer than the 4300 digits int() accepts from a string.
            (tmp_path / "c.json").write_text(text.replace(str(A3), "1" * 5000, 1))
        assert main([mode, "--config", config_path] + extra) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: " + expected)
        assert not out.exists()
        assert not list(tmp_path.glob(".tmp-dualitylab-*"))


    @pytest.mark.parametrize("case", ["amplitude", "detector", "rho", "uqsd_d1"])
    def test_entry_near_float_limit_is_one_line_validation_error(self, tmp_path, capsys,
                                                                 case):
        # Norms and Hermitian parts of such entries overflow; a numpy
        # RuntimeWarning there would add lines to stderr (and, under the
        # test suite's warning filter, escape as an exception).
        out = tmp_path / "out.json"
        if case == "uqsd_d1":
            mode, config = "uqsd", {
                "mode": "uqsd",
                "uqsd": {"d1": [1e308, 0], "d2": [0.5, B], "p1": 0.5,
                         "trials": 1000, "seed": 1},
                "output": {"format": "json", "path": str(out)},
            }
        else:
            state = copy.deepcopy(MIXED_STATE if case == "rho" else SYMMETRIC_STATE)
            if case == "amplitude":
                state["amplitudes"][0] = 1e308
            elif case == "detector":
                state["detectors"][1][0] = 1e308
            else:
                state["rho"][0][0] = 1e308
            mode, config = "report", report_config(tmp_path, out_name="out.json",
                                                   state=state)
        config_path = write_config(tmp_path, "c.json", config)
        assert main([mode, "--config", config_path]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("validation error: ")
        assert not out.exists()

    @pytest.mark.parametrize("mode,steps", [("fringes", 10**13), ("meiweitz", 2**20 + 1)])
    def test_phase_step_count_above_cap(self, tmp_path, capsys, mode, steps):
        config = {
            "mode": mode,
            "geometry": {"phase_step_count": steps},
            "output": {"format": "csv", "path": str(tmp_path / "out.csv")},
        }
        if mode == "fringes":
            config["state"] = {"amplitudes": [0.7071067811865476, 0.7071067811865476],
                               "detectors": [[1, 0], [0.6, 0.8]]}
        else:
            config["meiweitz"] = {"n": 4, "flipped_path": 3, "decohered_paths": [3],
                                  "gamma_grid": [0.5]}
        config_path = write_config(tmp_path, "c.json", config)
        assert main([mode, "--config", config_path]) == 2
        err = capsys.readouterr().err.splitlines()
        # geometry is a fringes-only key: the scan samples no pattern.
        expected = ("config error: geometry.phase_step_count" if mode == "fringes"
                    else "config error: geometry: not used in mode 'meiweitz'")
        assert len(err) == 1 and err[0].startswith(expected)
        assert not (tmp_path / "out.csv").exists()

    def test_validate_only_checks_source_date_epoch(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "abc")
        config_path = write_config(tmp_path, "c.json", report_config(tmp_path))
        assert main(["report", "--config", config_path, "--validate-only"]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: SOURCE_DATE_EPOCH")
        assert "config valid" not in captured.out

SECTION_BODIES = {
    "state": SYMMETRIC_STATE,
    "geometry": {"phase_step_count": 256},
    "meiweitz": {"n": 4, "flipped_path": 3, "decohered_paths": [3], "gamma_grid": [0.5]},
    "uqsd": {"d1": [1, 0], "d2": [0.5, B], "p1": 0.5, "trials": 1000, "seed": 1},
}
REQUIRED_SECTION = {"report": "state", "pairs": "state", "fringes": "state",
                    "meiweitz": "meiweitz", "uqsd": "uqsd"}
OUTPUT_FORMAT = {"report": "json", "pairs": "csv", "fringes": "csv",
                 "meiweitz": "csv", "uqsd": "json"}


class TestSectionRule:
    @pytest.mark.parametrize("section", sorted(SECTION_BODIES))
    @pytest.mark.parametrize("mode", sorted(REQUIRED_SECTION))
    def test_required_and_foreign_sections(self, tmp_path, capsys, mode, section):
        out = tmp_path / "out"
        required = REQUIRED_SECTION[mode]
        config = {"mode": mode, required: SECTION_BODIES[required],
                  "output": {"format": OUTPUT_FORMAT[mode], "path": str(out)}}
        if section == required:
            del config[section]
            expected = f"{section}: required for mode '{mode}'"
        else:
            config[section] = SECTION_BODIES[section]
            expected = f"{section}: not used in mode '{mode}'"
        config_path = write_config(tmp_path, "c.json", config)
        code = main([mode, "--config", config_path])
        err = capsys.readouterr().err.splitlines()
        if (mode, section) == ("fringes", "geometry"):
            # The one optional section: accepted where it is used.
            assert code == 0 and err == [] and out.exists()
            return
        assert code == 2
        assert err == [f"config error: {expected}"]
        assert not out.exists()


class TestFlags:
    def test_validate_only_writes_nothing(self, tmp_path, capsys):
        config_path = write_config(tmp_path, "c.json", report_config(tmp_path))
        assert main(["report", "--config", config_path, "--validate-only"]) == 0
        assert not (tmp_path / "report.json").exists()
        out = capsys.readouterr().out
        assert "config valid" in out
        assert "rho_trace: ok" in out

    def test_output_override(self, tmp_path):
        config_path = write_config(tmp_path, "c.json", report_config(tmp_path))
        override = tmp_path / "elsewhere.json"
        assert main(["report", "--config", config_path,
                     "--output", str(override)]) == 0
        assert override.exists()
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("flags", [[], ["--validate-only"]])
    def test_output_that_is_the_config_is_refused(self, tmp_path, capsys, monkeypatch,
                                                  flags):
        # Written atomically, the artifact would replace the config in place.
        monkeypatch.chdir(tmp_path)
        payload = report_config(tmp_path)
        payload["output"]["path"] = "scenario.json"
        config_path = write_config(tmp_path, "scenario.json", payload)
        before = Path(config_path).read_bytes()
        for argv, target in ((["--config", "scenario.json"], "scenario.json"),
                             (["--config", "scenario.json", "--output", config_path],
                              config_path)):
            assert main(["report", *argv, *flags]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"config error: output path {target} is the config file itself\n"
        assert Path(config_path).read_bytes() == before

    @pytest.mark.parametrize("flags", [[], ["--validate-only"]])
    def test_empty_output_is_refused(self, tmp_path, capsys, flags):
        config_path = write_config(tmp_path, "c.json", report_config(tmp_path))
        assert main(["report", "--config", config_path, "--output", "", *flags]) == 2
        assert capsys.readouterr() == ("", "config error: --output: expected a non-empty path\n")
        assert not (tmp_path / "report.json").exists()

    def test_shipped_configs_write_elsewhere(self):
        # Run from inside configs/, no shipped config names itself as output.
        for config_path in CONFIG_DIR.glob("*.json"):
            target = json.loads(config_path.read_text())["output"]["path"]
            assert (CONFIG_DIR / target).resolve() != config_path.resolve(), target

    def test_main_builds_no_parser(self, tmp_path, monkeypatch):
        # The one parser is built at import; a call only parses with it.
        built = []
        original = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        config_path = write_config(tmp_path, "c.json", report_config(tmp_path))
        for flags in ([], ["--validate-only"], ["--output", str(tmp_path / "o.json")]):
            assert main(["report", "--config", config_path, *flags]) == 0
        assert built == []

    def test_help_lists_every_mode(self):
        env = os.environ.copy()
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(Path(dualitylab.__file__).resolve().parents[1]),
                        env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-m", "dualitylab", "--help"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        for mode, spec in cli._MODE_TABLE.items():
            assert re.search(rf"^ +{mode} +{re.escape(spec.help)}$", proc.stdout,
                             re.MULTILINE), mode


class TestDeterminism:
    @pytest.mark.parametrize("mode,payload_key", [
        ("report", None), ("meiweitz", None), ("uqsd", None)])
    def test_byte_identical_reruns(self, tmp_path, monkeypatch, mode, payload_key):
        monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
        if mode == "report":
            config = report_config(tmp_path, out_name="a.out")
        elif mode == "meiweitz":
            config = {
                "mode": "meiweitz",
                "meiweitz": {"n": 4, "flipped_path": 3, "decohered_paths": [3],
                             "gamma_grid": [0.0, 0.5, 1.0]},
                "output": {"format": "csv", "path": str(tmp_path / "a.out")},
            }
        else:
            config = {
                "mode": "uqsd",
                "uqsd": {"d1": [1, 0], "d2": [0.5, B], "p1": 0.5,
                         "trials": 20000, "seed": 5},
                "output": {"format": "json", "path": str(tmp_path / "a.out")},
            }
        config_path = write_config(tmp_path, "c.json", config)
        assert main([mode, "--config", config_path]) == 0
        first = (tmp_path / "a.out").read_bytes()
        assert main([mode, "--config", config_path]) == 0
        second = (tmp_path / "a.out").read_bytes()
        assert first == second


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
# Replacement values: huge, negative, NaN, nested, empty and wrongly typed.
# Every size-like number here is outside its key's range, so no mutant makes
# a valid run expensive.
MENU = (None, True, "x", "", 0, -1, -1e9, 10**21, 2**63, 1e308, float("nan"),
        float("inf"), [], {}, [[]], [[1, 2]], {"k": [1]})
DROP, WRAP = object(), object()
EDITS = (DROP, WRAP) + MENU


def _node_paths(node, prefix=()):
    """Key/index paths of every node below the document root."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield prefix + (key,)
        yield from _node_paths(child, prefix + (key,))


def _edited(config: dict, path: tuple, edit) -> dict:
    """A copy of the config with the node at ``path`` dropped, wrapped in a
    list or replaced by a MENU value."""
    config = copy.deepcopy(config)
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    if edit is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = [parent[path[-1]]] if edit is WRAP else copy.deepcopy(edit)
    return config


def _mutants(config: dict, rng: np.random.Generator, stacked: int):
    """Every single edit of every node, then ``stacked`` seeded runs of two
    or three edits in a row."""
    for path in _node_paths(config):
        for edit in EDITS:
            yield _edited(config, path, edit)
    for _ in range(stacked):
        mutant = config
        for _ in range(int(rng.integers(2, 4))):
            paths = list(_node_paths(mutant))
            if not paths:
                break
            mutant = _edited(mutant, paths[int(rng.integers(len(paths)))],
                             EDITS[int(rng.integers(len(EDITS)))])
        yield mutant


class TestMutatedConfigs:
    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.json")))
    def test_every_run_ends_with_a_documented_exit_code(self, tmp_path, monkeypatch,
                                                        capsys, name):
        monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
        monkeypatch.chdir(tmp_path)
        original = json.loads((CONFIG_DIR / name).read_text(encoding="utf-8"))
        config_path = tmp_path / "c.json"
        rng = np.random.default_rng(sum(name.encode()))
        bad, runs = [], 0
        for config in [original, *_mutants(original, rng, stacked=50)]:
            config_path.write_text(json.dumps(config), encoding="utf-8")
            for extra in (["--output", str(tmp_path / "out")], ["--validate-only"]):
                try:
                    code = main([original["mode"], "--config", str(config_path)] + extra)
                except Exception as exc:  # noqa: BLE001 - any escape is a failure
                    code = repr(exc)
                capsys.readouterr()
                runs += 1
                if code not in (0, 2, 3, 4) or (config is original and code != 0):
                    bad.append((json.dumps(config), extra[0], code))
        assert not bad, f"{len(bad)} of {runs} runs: {bad[:5]}"
