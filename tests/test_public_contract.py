"""The public names: the package's ``__all__`` and the CLI's mode list."""

import inspect
import json
import pathlib
import re

import pytest

import dualitylab
from dualitylab import cli, pairwise

PUBLIC_NAMES = [
    "CheckResult", "ConfigError", "DarkPairError", "DarkPatternError",
    "DimensionError", "DualityLabError", "DualityReport", "FringeProfile",
    "InterferometerState", "MeiWeitzScan", "NormalizationError", "PairMetrics",
    "RegimeError", "SimulationResult", "SlitGeometry", "StateDiagnostics",
    "SuccessProbability", "UqsdPovm", "UqsdProblem", "ValidationError", "__version__",
    "build_mixed_state", "build_povm", "build_pure_state", "coherence",
    "coherence_from_pair_visibilities", "distinguishability",
    "distinguishability_from_pairs", "duality_report", "effective_density",
    "extract_visibility", "intensity_profile", "is_symmetric", "mei_weitz_scan",
    "open_pair", "pair_distinguishability", "pair_metrics", "pair_visibility",
    "simulate", "success_probability", "two_slit_pattern", "validate",
]
CLI_MODES = ("report", "pairs", "fringes", "meiweitz", "uqsd")


def test_all_is_the_pinned_list_and_every_name_resolves():
    # A removal from __all__ is a contract change: update this list with it.
    assert sorted(dualitylab.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(dualitylab, name), name


def test_pair_layer_defines_only_its_public_functions():
    # The pair layer's helpers stay private; a benchmark tracer counts every
    # public function a layer defines.
    defined = sorted(name for name, fn in vars(pairwise).items()
                     if not name.startswith("_") and inspect.isfunction(fn)
                     and fn.__module__ == pairwise.__name__)
    assert defined == ["open_pair", "pair_distinguishability", "pair_metrics",
                       "pair_visibility"]


def test_cli_modes_formats_and_subcommands_agree():
    (subcommands,) = [action.choices for action in cli._PARSER._actions
                      if action.dest == "mode"]
    assert cli.MODES == CLI_MODES
    assert tuple(cli.FORMAT_BY_MODE) == CLI_MODES
    assert tuple(subcommands) == CLI_MODES
    assert cli.FORMAT_BY_MODE == {"report": "json", "pairs": "csv", "fringes": "csv",
                                  "meiweitz": "csv", "uqsd": "json"}


def test_readme_quickstart_runs_and_its_comments_hold():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(), re.M | re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(readme), "exec"), namespace)
    report = namespace["report"]
    # C = D_Q = 0.5, margin 0 (pure state)
    assert report.coherence == pytest.approx(0.5, abs=1e-12)
    assert report.distinguishability == pytest.approx(0.5, abs=1e-12)
    assert report.duality_margin == pytest.approx(0.0, abs=1e-12)
    # the pair's NamedTuple equals its report row
    assert namespace["pair"] == report.pairwise[0]


def _readme_blocks(language: str) -> list[str]:
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    return re.findall(rf"^```{language}\n(.*?)^```", readme.read_text(), re.M | re.S)


@pytest.mark.parametrize("flags", [[], ["--validate-only"]])
def test_readme_schema_examples_run(tmp_path, monkeypatch, capsys, flags):
    # Each example writes its relative output path into tmp_path.
    monkeypatch.chdir(tmp_path)
    blocks = _readme_blocks("json")
    assert len(blocks) == 5
    for index, block in enumerate(blocks):
        config_path = tmp_path / f"example{index}.json"
        config_path.write_text(block, encoding="utf-8")
        config = json.loads(block)
        assert cli.main([config["mode"], "--config", str(config_path), *flags]) == 0, block
        assert capsys.readouterr().err == ""
        assert (tmp_path / config["output"]["path"]).exists() is not bool(flags)


def test_readme_command_lines_run(tmp_path, monkeypatch):
    # The commands name configs relative to the repository root.
    monkeypatch.chdir(pathlib.Path(__file__).resolve().parents[1])
    pattern = re.compile(r"^dualitylab (\w+) +--config (\S+) +--output (\S+)$", re.M)
    commands = [match for block in _readme_blocks("sh") for match in pattern.findall(block)]
    assert [mode for mode, _, _ in commands] == list(CLI_MODES)
    for mode, config, output in commands:
        target = tmp_path / output
        assert cli.main([mode, "--config", config, "--output", str(target)]) == 0
        assert target.stat().st_size > 0
