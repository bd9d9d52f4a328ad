"""CLI parsing, artifact writing, exit codes and determinism."""

import copy
import json
from pathlib import Path

import numpy as np
import pytest

from dualitylab import ConfigError, build_mixed_state, build_pure_state, coherence, \
    validate
from dualitylab.cli import ReportDocument, main, parse_config
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
    def test_minimal_two_slit_config(self):
        config = parse_config(json.dumps({
            "mode": "fringes",
            "state": {"amplitudes": [0.7071067811865476, 0.7071067811865476],
                      "detectors": [[1, 0], [0.6, 0.8]]},
            "output": {"format": "csv", "path": "out.csv"},
        }))
        assert config.mode == "fringes"
        assert config.amplitudes.shape == (2,)
        assert config.detectors.shape == (2, 2)
        assert config.phase_step_count == DEFAULT_PHASE_STEPS

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
        assert config.rho[0, 1] == -0.5j
        assert config.rho[1, 0] == 0.5j

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
        # build_mixed_state decomposes rho, gram and rho * gram; the duality
        # block and the diagnostics block both read the record it stored.
        config_path = write_config(tmp_path, "c.json",
                                   report_config(tmp_path, state=MIXED_STATE))
        assert main(["report", "--config", config_path]) == 0
        assert spectral_calls == {"eigvalsh": 3, "matrix_rank": 0}
        payload = json.loads((tmp_path / "report.json").read_text())
        config = parse_config(json.dumps(report_config(tmp_path, state=MIXED_STATE)))
        rank = validate(build_mixed_state(config.rho, config.gram)).gram_rank
        assert payload["duality"]["gram_rank"] == payload["diagnostics"]["gram_rank"] == rank == 2


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


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        config_path = write_config(tmp_path, "c.json", {"mode": "nonsense"})
        assert main(["report", "--config", config_path]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file_is_2(self, tmp_path):
        assert main(["report", "--config", str(tmp_path / "absent.json")]) == 2

    def test_mode_mismatch_is_2(self, tmp_path):
        config_path = write_config(tmp_path, "c.json", report_config(tmp_path))
        assert main(["pairs", "--config", config_path]) == 2

    def test_validation_error_is_3(self, tmp_path, capsys):
        config = {
            "mode": "report",
            "state": {"rho": [[0.45, 0], [0, 0.45]], "gram": [[1, 1], [1, 1]]},
            "output": {"format": "json", "path": str(tmp_path / "r.json")},
        }
        config_path = write_config(tmp_path, "c.json", config)
        assert main(["report", "--config", config_path]) == 3
        assert "rho_trace" in capsys.readouterr().err

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
                                      "meiweitz_grid_above_cap"])
    def test_bad_outside_input_is_one_line_config_error(self, tmp_path, capsys,
                                                         monkeypatch, case):
        monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
        out = tmp_path / "out.json"
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
            mode, config = "meiweitz", {
                "mode": "meiweitz",
                "meiweitz": {"n": n, "flipped_path": 3, "decohered_paths": [3],
                             "gamma_grid": grid},
                "output": {"format": "csv", "path": str(out)},
            }
        else:
            mode, config = "report", report_config(tmp_path, out_name="out.json")
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
        assert main([mode, "--config", config_path]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert not out.exists()


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
