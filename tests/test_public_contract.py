"""The public names: the package's ``__all__`` and the CLI's mode list."""

import inspect

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
