"""Config-driven command-line front end.

One subcommand per scenario mode (report, pairs, fringes, meiweitz, uqsd),
each consuming a JSON scenario file and writing a single machine-readable
artifact (JSON report or CSV table).  Complex numbers appear in configs as
[re, im] pairs; plain numbers are accepted as purely real.  CSV output uses
17 significant digits so every value round-trips to the exact double.

All numbers in an artifact come straight from the library calls; nothing is
recomputed at the CLI layer.  Artifacts are written atomically (temp file
plus rename) and identical configs produce byte-identical artifacts; a
timestamp is only embedded when SOURCE_DATE_EPOCH is set.

Exit codes: 0 success, 2 config error, 3 state/input validation error,
4 runtime error (dark pair, dark pattern, discrimination regime).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .core_state import InterferometerState, StateDiagnostics, build_mixed_state, \
    build_pure_state, validate
from .errors import ConfigError, DimensionError, DualityLabError, \
    NormalizationError, ValidationError
from .fringes import DEFAULT_PHASE_STEPS, MAX_PHASE_STEPS, MAX_SCAN_PATHS, \
    MIN_PHASE_STEPS, SlitGeometry, intensity_profile, mei_weitz_scan
from .multipath import duality_report
from .uqsd import MAX_TRIALS, UqsdProblem, build_povm, simulate, success_probability

MODES = ("report", "pairs", "fringes", "meiweitz", "uqsd")
FORMAT_BY_MODE = {"report": "json", "pairs": "csv", "fringes": "csv",
                  "meiweitz": "csv", "uqsd": "json"}
_TOP_LEVEL_KEYS = {"mode", "state", "geometry", "meiweitz", "uqsd", "output"}


@dataclass(frozen=True, eq=False)
class MeiWeitzParams:
    n: int
    flipped_path: int
    decohered_paths: tuple[int, ...]
    gamma_grid: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class UqsdParams:
    d1: np.ndarray
    d2: np.ndarray
    p1: float
    trials: int
    seed: int


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Validated scenario description; ``raw`` keeps the parsed JSON for the
    input echo in reports."""

    mode: str
    raw: dict
    amplitudes: np.ndarray | None
    detectors: np.ndarray | None
    rho: np.ndarray | None
    gram: np.ndarray | None
    phase_step_count: int
    meiweitz: MeiWeitzParams | None
    uqsd: UqsdParams | None
    output_format: str
    output_path: str


# ----------------------------------------------------------------------
# parsing


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _complex_value(node, path: str, errors: list[str]) -> complex:
    parts = [node, 0.0] if _is_number(node) else node
    if (isinstance(parts, list) and len(parts) == 2
            and all(_is_number(part) for part in parts)):
        try:
            return complex(*parts)
        except OverflowError as exc:
            errors.append(f"{path}: {exc}")
            return complex(0.0)
    errors.append(f"{path}: expected a number or [re, im] pair, got {node!r}")
    return complex(0.0)


def _complex_vector(node, path: str, errors: list[str],
                    min_length: int = 1) -> np.ndarray | None:
    if not isinstance(node, list) or len(node) < min_length:
        errors.append(f"{path}: expected a list of at least {min_length} entries")
        return None
    return np.array([_complex_value(entry, f"{path}[{k}]", errors)
                     for k, entry in enumerate(node)], dtype=complex)


def _complex_matrix(node, path: str, errors: list[str]) -> np.ndarray | None:
    if not isinstance(node, list) or not node:
        errors.append(f"{path}: expected a non-empty list of rows")
        return None
    rows = []
    width = None
    for r, row in enumerate(node):
        vec = _complex_vector(row, f"{path}[{r}]", errors)
        if vec is None:
            return None
        if width is None:
            width = vec.size
        elif vec.size != width:
            errors.append(f"{path}[{r}]: row length {vec.size} differs from {width}")
            return None
        rows.append(vec)
    return np.vstack(rows)


def _int_value(node, path: str, errors: list[str]) -> int | None:
    if isinstance(node, int) and not isinstance(node, bool):
        return node
    errors.append(f"{path}: expected an integer, got {node!r}")
    return None


def _real_value(node, path: str, errors: list[str]) -> float | None:
    if _is_number(node):
        try:
            return float(node)
        except OverflowError as exc:
            errors.append(f"{path}: {exc}")
            return None
    errors.append(f"{path}: expected a number, got {node!r}")
    return None


def _parse_state(node, errors: list[str]):
    amplitudes = detectors = rho = gram = None
    if not isinstance(node, dict):
        errors.append("state: expected an object")
        return amplitudes, detectors, rho, gram
    keys = set(node)
    pure_form = {"amplitudes", "detectors"}
    mixed_form = {"rho", "gram"}
    if keys == pure_form:
        amplitudes = _complex_vector(node["amplitudes"], "state.amplitudes",
                                     errors, min_length=2)
        dets = node["detectors"]
        if not isinstance(dets, list) or not dets:
            errors.append("state.detectors: expected a non-empty list of vectors")
        else:
            detectors = _complex_matrix(dets, "state.detectors", errors)
    elif keys == mixed_form:
        rho = _complex_matrix(node["rho"], "state.rho", errors)
        gram = _complex_matrix(node["gram"], "state.gram", errors)
    else:
        errors.append(
            "state: exactly one state spec form required, either "
            "{amplitudes, detectors} or {rho, gram}; got keys "
            f"{sorted(keys)}")
    return amplitudes, detectors, rho, gram


def _parse_meiweitz(node, errors: list[str]) -> MeiWeitzParams | None:
    if not isinstance(node, dict):
        errors.append("meiweitz: expected an object")
        return None
    required = {"n", "flipped_path", "decohered_paths", "gamma_grid"}
    if set(node) != required:
        errors.append(f"meiweitz: expected exactly the keys {sorted(required)}, "
                      f"got {sorted(node)}")
        return None
    preexisting = len(errors)
    n = _int_value(node["n"], "meiweitz.n", errors)
    flipped = _int_value(node["flipped_path"], "meiweitz.flipped_path", errors)
    if n is not None and not 3 <= n <= MAX_SCAN_PATHS:
        errors.append(f"meiweitz.n: must lie in [3, {MAX_SCAN_PATHS}], got {n}")
    if n is not None and flipped is not None and not 0 <= flipped < n:
        errors.append(f"meiweitz.flipped_path: index {flipped} out of range "
                      f"for n={n}")
    decohered: list[int] = []
    raw_paths = node["decohered_paths"]
    if not isinstance(raw_paths, list) or not raw_paths:
        errors.append("meiweitz.decohered_paths: expected a non-empty list")
    else:
        for k, entry in enumerate(raw_paths):
            idx = _int_value(entry, f"meiweitz.decohered_paths[{k}]", errors)
            if idx is None:
                continue
            if n is not None and not 0 <= idx < n:
                errors.append(f"meiweitz.decohered_paths[{k}]: index {idx} out "
                              f"of range for n={n}")
            decohered.append(idx)
        if len(set(decohered)) != len(decohered):
            errors.append("meiweitz.decohered_paths: duplicate indices")
    grid: list[float] = []
    raw_grid = node["gamma_grid"]
    if not isinstance(raw_grid, list) or not raw_grid:
        errors.append("meiweitz.gamma_grid: expected a non-empty list")
    else:
        for k, entry in enumerate(raw_grid):
            g = _real_value(entry, f"meiweitz.gamma_grid[{k}]", errors)
            if g is None:
                continue
            if not 0.0 <= g <= 1.0:
                errors.append(f"meiweitz.gamma_grid[{k}]: value {g} outside [0, 1]")
            grid.append(g)
    if len(errors) > preexisting:
        return None
    return MeiWeitzParams(n=n, flipped_path=flipped,
                          decohered_paths=tuple(decohered),
                          gamma_grid=tuple(grid))


def _parse_uqsd(node, errors: list[str]) -> UqsdParams | None:
    if not isinstance(node, dict):
        errors.append("uqsd: expected an object")
        return None
    required = {"d1", "d2", "p1", "trials", "seed"}
    if set(node) != required:
        errors.append(f"uqsd: expected exactly the keys {sorted(required)}, "
                      f"got {sorted(node)}")
        return None
    preexisting = len(errors)
    d1 = _complex_vector(node["d1"], "uqsd.d1", errors)
    d2 = _complex_vector(node["d2"], "uqsd.d2", errors)
    if d1 is not None and d2 is not None and d1.size != d2.size:
        errors.append(f"uqsd: d1 has length {d1.size} but d2 has length {d2.size}")
    p1 = _real_value(node["p1"], "uqsd.p1", errors)
    if p1 is not None and not 0.0 <= p1 <= 1.0:
        errors.append(f"uqsd.p1: value {p1} outside [0, 1]")
    trials = _int_value(node["trials"], "uqsd.trials", errors)
    if trials is not None and not 0 < trials <= MAX_TRIALS:
        errors.append(f"uqsd.trials: must lie in [1, {MAX_TRIALS}], got {trials}")
    seed = _int_value(node["seed"], "uqsd.seed", errors)
    if seed is not None and not 0 <= seed < 2**64:
        errors.append(f"uqsd.seed: must lie in [0, 2**64), got {seed}")
    if len(errors) > preexisting:
        return None
    return UqsdParams(d1=d1, d2=d2, p1=p1, trials=trials, seed=seed)


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a scenario document.

    Raises ConfigError carrying the syntax error position, or the complete
    list of semantic problems (not just the first one found).
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        ) from exc
    except (RecursionError, ValueError) as exc:
        # Nesting deeper than the recursion limit, or an integer literal
        # longer than int's digit limit.
        raise ConfigError([f"cannot parse document: {exc}"]) from None
    if not isinstance(raw, dict):
        raise ConfigError(["top-level document must be a JSON object"])

    errors: list[str] = []
    for key in sorted(set(raw) - _TOP_LEVEL_KEYS):
        errors.append(f"unknown top-level key '{key}'")

    mode = raw.get("mode")
    if mode not in MODES:
        errors.append(f"mode: expected one of {list(MODES)}, got {mode!r}")
        raise ConfigError(errors)

    amplitudes = detectors = rho = gram = None
    state_modes = {"report", "pairs", "fringes"}
    if mode in state_modes:
        if "state" not in raw:
            errors.append(f"state: required for mode '{mode}'")
        else:
            amplitudes, detectors, rho, gram = _parse_state(raw["state"], errors)
    elif "state" in raw:
        errors.append(f"state: not used in mode '{mode}' (it builds its own states)")

    phase_step_count = DEFAULT_PHASE_STEPS
    if "geometry" in raw:
        if mode != "fringes":
            errors.append(f"geometry: not used in mode '{mode}'")
        elif not isinstance(raw["geometry"], dict) or set(raw["geometry"]) != {"phase_step_count"}:
            errors.append("geometry: expected an object with exactly the key "
                          "'phase_step_count'")
        else:
            phase_step_count = _int_value(raw["geometry"]["phase_step_count"],
                                          "geometry.phase_step_count", errors)
            if phase_step_count is not None and not (
                    MIN_PHASE_STEPS <= phase_step_count <= MAX_PHASE_STEPS):
                errors.append(f"geometry.phase_step_count: must lie in "
                              f"[{MIN_PHASE_STEPS}, {MAX_PHASE_STEPS}], "
                              f"got {phase_step_count}")

    meiweitz = None
    if mode == "meiweitz":
        if "meiweitz" not in raw:
            errors.append("meiweitz: section required for mode 'meiweitz'")
        else:
            meiweitz = _parse_meiweitz(raw["meiweitz"], errors)
    elif "meiweitz" in raw:
        errors.append(f"meiweitz: section not used in mode '{mode}'")

    uqsd = None
    if mode == "uqsd":
        if "uqsd" not in raw:
            errors.append("uqsd: section required for mode 'uqsd'")
        else:
            uqsd = _parse_uqsd(raw["uqsd"], errors)
    elif "uqsd" in raw:
        errors.append(f"uqsd: section not used in mode '{mode}'")

    output_format = ""
    output_path = ""
    if "output" not in raw:
        errors.append("output: section required")
    elif not isinstance(raw["output"], dict) or set(raw["output"]) != {"format", "path"}:
        errors.append("output: expected an object with exactly the keys "
                      "'format' and 'path'")
    else:
        output_format = raw["output"]["format"]
        output_path = raw["output"]["path"]
        expected = FORMAT_BY_MODE[mode]
        if output_format != expected:
            errors.append(f"output.format: mode '{mode}' writes '{expected}', "
                          f"got {output_format!r}")
        if not isinstance(output_path, str) or not output_path:
            errors.append("output.path: expected a non-empty string")

    if errors:
        raise ConfigError(errors)
    return ScenarioConfig(
        mode=mode, raw=raw, amplitudes=amplitudes, detectors=detectors,
        rho=rho, gram=gram, phase_step_count=phase_step_count,
        meiweitz=meiweitz, uqsd=uqsd,
        output_format=output_format, output_path=output_path)


# ----------------------------------------------------------------------
# artifacts


@dataclass(frozen=True)
class ReportDocument:
    """JSON report payload; round-trips losslessly through to_json/from_json."""

    input: dict
    diagnostics: dict
    duality: dict
    pairwise: list
    version: str
    timestamp: str | None

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ReportDocument":
        return cls(**json.loads(text))


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _timestamp() -> str | None:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is None:
        return None
    try:
        return datetime.fromtimestamp(int(epoch), tz=timezone.utc).isoformat()
    except (ValueError, OverflowError, OSError):
        raise ConfigError([f"SOURCE_DATE_EPOCH: not an integer Unix time in "
                           f"range, got {epoch!r}"]) from None


def _diagnostics_dict(diagnostics: StateDiagnostics) -> dict:
    return {
        "ok": diagnostics.ok,
        "gram_rank": diagnostics.gram_rank,
        "checks": [
            {"name": check.name, "passed": check.passed,
             "residual": float(check.residual),
             "tolerance": float(check.tolerance)}
            for check in diagnostics.checks
        ],
    }


def _build_state(config: ScenarioConfig) -> InterferometerState:
    if config.amplitudes is not None:
        return build_pure_state(config.amplitudes, config.detectors)
    return build_mixed_state(config.rho, config.gram)


def build_report_document(config: ScenarioConfig,
                          state: InterferometerState) -> ReportDocument:
    report = duality_report(state)
    diagnostics = validate(state)
    duality = {
        "n": report.n,
        "coherence": report.coherence,
        "distinguishability": report.distinguishability,
        "duality_margin": report.duality_margin,
        "is_symmetric": report.is_symmetric,
        "symmetric_sum_lhs": report.symmetric_sum_lhs,
        "weighted_sum_lhs": report.weighted_sum_lhs,
        "gram_rank": diagnostics.gram_rank,
        "dark_pairs": [list(pair) for pair in report.dark_pairs],
    }
    pairwise = [
        {"i": m.i, "j": m.j, "weight": m.pair_weight,
         "visibility": m.visibility,
         "distinguishability": m.distinguishability, "slack": m.slack}
        for m in report.pairwise
    ]
    return ReportDocument(
        input=config.raw, diagnostics=_diagnostics_dict(diagnostics),
        duality=duality, pairwise=pairwise, version=__version__,
        timestamp=_timestamp())


def _pairs_csv(state: InterferometerState) -> tuple[str, tuple[tuple[int, int], ...]]:
    report = duality_report(state)
    lines = ["i,j,weight,visibility,distinguishability,slack"]
    for m in report.pairwise:
        # 1-based path labels in human-facing tables.
        lines.append(",".join([str(m.i + 1), str(m.j + 1), _fmt(m.pair_weight),
                               _fmt(m.visibility), _fmt(m.distinguishability),
                               _fmt(m.slack)]))
    return "\n".join(lines) + "\n", report.dark_pairs


def _fringes_csv(profile) -> str:
    lines = ["delta,intensity"]
    for d, i in zip(profile.delta, profile.intensity):
        lines.append(f"{_fmt(d)},{_fmt(i)}")
    return "\n".join(lines) + "\n"


def _meiweitz_csv(scan) -> str:
    lines = ["g,visibility,coherence,distinguishability"]
    for g, v, c, d in zip(scan.gamma_grid, scan.visibilities,
                          scan.coherences, scan.distinguishabilities):
        lines.append(f"{_fmt(g)},{_fmt(v)},{_fmt(c)},{_fmt(d)}")
    return "\n".join(lines) + "\n"


def _uqsd_problem(params: UqsdParams):
    """The configured two-state problem and its analytic optimum."""
    problem = UqsdProblem(d1=params.d1, d2=params.d2,
                          p1=params.p1, p2=1.0 - params.p1)
    return problem, success_probability(problem.p1, problem.p2, abs(problem.overlap))


def build_uqsd_document(config: ScenarioConfig) -> dict:
    params = config.uqsd
    problem, analytic = _uqsd_problem(params)
    overlap = abs(problem.overlap)
    povm = build_povm(problem)
    result = simulate(problem, povm, params.trials, params.seed)
    return {
        "problem": {
            "d1": [[z.real, z.imag] for z in problem.d1],
            "d2": [[z.real, z.imag] for z in problem.d2],
            "p1": problem.p1,
            "p2": problem.p2,
            "overlap_magnitude": overlap,
        },
        "analytic": {
            "success_probability": analytic.value,
            "failure_probability": 1.0 - analytic.value,
            "in_optimal_regime": analytic.in_optimal_regime,
        },
        "simulation": {
            "trials": result.trials,
            "seed": result.seed,
            "freq_correct_1": result.freq_correct_1,
            "freq_correct_2": result.freq_correct_2,
            "freq_fail": result.freq_fail,
            "freq_wrong": result.freq_wrong,
            "success_frequency": result.success_frequency,
        },
        "version": __version__,
    }


def _write_atomic(path: str, text: str) -> None:
    """Temp file plus rename; an OSError surfaces as a ConfigError naming
    the path, since the path comes from the config or --output."""
    target = os.path.abspath(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".tmp-dualitylab-")
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, target)
    except OSError as exc:
        raise ConfigError([f"cannot write {path}: {exc.strerror or exc}"]) from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


# ----------------------------------------------------------------------
# execution


def _run_validate_only(config: ScenarioConfig) -> int:
    if config.mode == "report":
        _timestamp()  # raises on a bad SOURCE_DATE_EPOCH, as the real run does
    if config.mode in {"report", "pairs", "fringes"}:
        state = _build_state(config)
        diagnostics = validate(state)
        for check in diagnostics.checks:
            status = "ok" if check.passed else "FAIL"
            print(f"{check.name}: {status} (residual {_fmt(check.residual)}, "
                  f"tolerance {_fmt(check.tolerance)})")
        print(f"gram_rank: {diagnostics.gram_rank}")
    elif config.mode == "uqsd":
        problem, analytic = _uqsd_problem(config.uqsd)
        print(f"overlap magnitude: {_fmt(abs(problem.overlap))}")
        print(f"in optimal regime: {analytic.in_optimal_regime}")
    print("config valid")
    return 0


def run(config: ScenarioConfig, output_override: str | None = None,
        validate_only: bool = False) -> int:
    """Dispatch one validated scenario; returns the process exit status."""
    if validate_only:
        return _run_validate_only(config)
    out_path = output_override if output_override else config.output_path

    if config.mode == "report":
        state = _build_state(config)
        document = build_report_document(config, state)
        _write_atomic(out_path, document.to_json())
        duality = document.duality
        print(f"wrote {out_path}: coherence={_fmt(duality['coherence'])} "
              f"distinguishability={_fmt(duality['distinguishability'])} "
              f"duality_margin={_fmt(duality['duality_margin'])}")
    elif config.mode == "pairs":
        state = _build_state(config)
        text, dark_pairs = _pairs_csv(state)
        for i, j in dark_pairs:
            print(f"warning: pair ({i + 1}, {j + 1}) carries no probability; "
                  "omitted from the table", file=sys.stderr)
        _write_atomic(out_path, text)
        print(f"wrote {out_path}: {state.n * (state.n - 1) // 2 - len(dark_pairs)} pairs")
    elif config.mode == "fringes":
        state = _build_state(config)
        geometry = SlitGeometry(n=state.n, phase_step_count=config.phase_step_count)
        profile = intensity_profile(state, geometry)
        _write_atomic(out_path, _fringes_csv(profile))
        print(f"wrote {out_path}: visibility={_fmt(profile.visibility)}")
    elif config.mode == "meiweitz":
        params = config.meiweitz
        scan = mei_weitz_scan(params.n, params.flipped_path,
                              params.decohered_paths, params.gamma_grid)
        _write_atomic(out_path, _meiweitz_csv(scan))
        print(f"wrote {out_path}: {scan.gamma_grid.size} grid points")
    elif config.mode == "uqsd":
        document = build_uqsd_document(config)
        _write_atomic(out_path, json.dumps(document, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out_path}: analytic={_fmt(document['analytic']['success_probability'])} "
              f"empirical={_fmt(document['simulation']['success_frequency'])}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualitylab",
        description="Wave-particle duality laboratory for n-path interference")
    subparsers = parser.add_subparsers(dest="mode", required=True)
    help_by_mode = {
        "report": "full duality report (JSON)",
        "pairs": "per-pair visibility/distinguishability table (CSV)",
        "fringes": "far-field intensity profile (CSV)",
        "meiweitz": "phase-flip selective-decoherence scan (CSV)",
        "uqsd": "two-state unambiguous discrimination run (JSON)",
    }
    for mode in MODES:
        sub = subparsers.add_parser(mode, help=help_by_mode[mode])
        sub.add_argument("--config", required=True, help="scenario JSON file")
        sub.add_argument("--output", default=None,
                         help="override output.path from the config")
        sub.add_argument("--validate-only", action="store_true",
                         help="parse and validate, write nothing")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"config error: cannot read {args.config}: {exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text)
        if config.mode != args.mode:
            raise ConfigError(
                [f"config declares mode '{config.mode}' but the "
                 f"'{args.mode}' subcommand was invoked"])
        return run(config, output_override=args.output,
                   validate_only=args.validate_only)
    except ConfigError as exc:
        for message in exc.messages:
            print(f"config error: {message}", file=sys.stderr)
        return 2
    except (NormalizationError, DimensionError, ValidationError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    except DualityLabError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
