"""Config-driven command-line front end.

The scenario mode (report, pairs, fringes, meiweitz, uqsd) is a positional
argument; each consumes a JSON scenario file and writes one machine-readable
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
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .core_state import InterferometerState, StateDiagnostics, build_mixed_state, \
    build_pure_state, validate
from .errors import ConfigError, DualityLabError, ValidationError
from .fringes import MAX_PHASE_STEPS, MAX_SCAN_PATHS, MAX_SCAN_POINTS, MIN_PHASE_STEPS, \
    SlitGeometry, intensity_profile, mei_weitz_scan
from .multipath import duality_report
from .uqsd import MAX_TRIALS, UqsdProblem, build_povm, simulate, success_probability


class _Mode(NamedTuple):
    """A mode's artifact format, the config section it requires, the
    sections it may take besides, and its --help line."""

    format: str
    section: str
    optional: tuple[str, ...]
    help: str


_MODE_TABLE = {
    "report": _Mode("json", "state", (), "full duality report (JSON)"),
    "pairs": _Mode("csv", "state", (),
                   "per-pair visibility/distinguishability table (CSV)"),
    "fringes": _Mode("csv", "state", ("geometry",), "far-field intensity profile (CSV)"),
    "meiweitz": _Mode("csv", "meiweitz", (),
                      "phase-flip selective-decoherence scan (CSV)"),
    "uqsd": _Mode("json", "uqsd", (), "two-state unambiguous discrimination run (JSON)"),
}
MODES = tuple(_MODE_TABLE)
FORMAT_BY_MODE = {mode: spec.format for mode, spec in _MODE_TABLE.items()}
# Paths in a `state` section.  At this cap (a 6 MiB config) the slowest state
# modes take about 2 s on a 2-core x86 host: `fringes` on a mixed state at
# MAX_PHASE_STEPS peaks at about 98 MiB, and `report` at about 110 MiB,
# mostly the parsed config, its echo and the 11 MB artifact text.
MAX_STATE_PATHS = 256


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Validated scenario description; ``raw`` keeps the parsed JSON for the
    input echo in reports."""

    mode: str
    raw: dict
    state: dict | None = None  # build_pure_state's or build_mixed_state's keyword arguments
    geometry: dict | None = None  # SlitGeometry's keyword arguments besides n
    meiweitz: dict | None = None  # mei_weitz_scan's keyword arguments
    uqsd: dict | None = None  # the section, with d1, d2 and p1 parsed
    output_path: str = ""


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


def _bulk(node, ndim: int, min_length: int) -> np.ndarray | None:
    """A vector (ndim 1) or matrix (ndim 2) of plain numbers or [re, im]
    pairs as complex numbers in one pass, or None to leave the input, and the
    wording of its errors, to the entry walk.  numpy reads True, "1.5" and
    null as numbers, so every leaf must be an int or a float."""
    try:
        values = np.array(node, dtype=float)
    except (ValueError, TypeError, OverflowError):
        return None
    pairs = values.ndim == ndim + 1 and values.shape[-1] == 2
    if not (values.ndim == ndim or pairs) or min(values.shape[:ndim]) < min_length:
        return None
    for _ in range(values.ndim - 1):
        node = chain.from_iterable(node)
    if not set(map(type, node)) <= {int, float}:
        return None
    # Exact: a contiguous (re, im) float pair is a complex number's layout.
    return values.view(complex)[..., 0] if pairs else values.astype(complex)


def _complex_vector(node, path: str, errors: list[str],
                    min_length: int = 1) -> np.ndarray | None:
    values = _bulk(node, 1, min_length)
    if values is not None:
        return values
    if not isinstance(node, list) or len(node) < min_length:
        errors.append(f"{path}: expected a list of at least {min_length} entries")
        return None
    return np.array([_complex_value(entry, f"{path}[{k}]", errors)
                     for k, entry in enumerate(node)], dtype=complex)


def _complex_matrix(node, path: str, errors: list[str]) -> np.ndarray | None:
    values = _bulk(node, 2, 1)
    if values is not None:
        return values
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


def _in_range(value, path: str, errors: list[str], lo, hi):
    if lo is not None and not lo <= value <= hi:
        errors.append(f"{path}: must lie in [{lo}, {hi}], got {value}")
    return value


def _int_value(node, path: str, errors: list[str], lo=None, hi=None) -> int | None:
    if isinstance(node, int) and not isinstance(node, bool):
        return _in_range(node, path, errors, lo, hi)
    errors.append(f"{path}: expected an integer, got {node!r}")
    return None


def _real_value(node, path: str, errors: list[str], lo=None, hi=None) -> float | None:
    if _is_number(node):
        try:
            return _in_range(float(node), path, errors, lo, hi)
        except OverflowError as exc:
            errors.append(f"{path}: {exc}")
            return None
    errors.append(f"{path}: expected a number, got {node!r}")
    return None


def _object(node, path: str, keys: set[str], errors: list[str]) -> dict | None:
    if isinstance(node, dict) and set(node) == keys:
        return node
    got = f", got {sorted(node)}" if isinstance(node, dict) else ""
    errors.append(f"{path}: expected an object with exactly the keys {sorted(keys)}{got}")
    return None


def _parse_state(node, errors: list[str]) -> dict:
    if not isinstance(node, dict):
        errors.append("state: expected an object")
        return {}
    if set(node) not in ({"amplitudes", "detectors"}, {"rho", "gram"}):
        errors.append(
            "state: exactly one state spec form required, either "
            "{amplitudes, detectors} or {rho, gram}; got keys "
            f"{sorted(node)}")
        return {}
    # Each member lists one entry or row per path: count before building.
    paths = max(len(value) if isinstance(value, list) else 0 for value in node.values())
    if paths > MAX_STATE_PATHS:
        errors.append(f"state: at most {MAX_STATE_PATHS} paths, got {paths}")
        return {}
    if "rho" in node:
        return {"state": {"rho": _complex_matrix(node["rho"], "state.rho", errors),
                          "gram": _complex_matrix(node["gram"], "state.gram", errors)}}
    return {"state": {
        "amplitudes": _complex_vector(node["amplitudes"], "state.amplitudes", errors,
                                      min_length=2),
        "detectors": _complex_matrix(node["detectors"], "state.detectors", errors)}}


def _parse_geometry(node, errors: list[str]) -> dict:
    node = _object(node, "geometry", {"phase_step_count"}, errors)
    if node is None:
        return {}
    return {"geometry": {"phase_step_count": _int_value(
        node["phase_step_count"], "geometry.phase_step_count", errors,
        MIN_PHASE_STEPS, MAX_PHASE_STEPS)}}


def _index_value(node, path: str, errors: list[str], n: int | None) -> int | None:
    idx = _int_value(node, path, errors)
    if idx is not None and n is not None and not 0 <= idx < n:
        errors.append(f"{path}: index {idx} out of range for n={n}")
    return idx


def _parse_meiweitz(node, errors: list[str]) -> dict:
    node = _object(node, "meiweitz",
                   {"n", "flipped_path", "decohered_paths", "gamma_grid"}, errors)
    if node is None:
        return {}
    preexisting = len(errors)
    n = _int_value(node["n"], "meiweitz.n", errors, 3, MAX_SCAN_PATHS)
    _index_value(node["flipped_path"], "meiweitz.flipped_path", errors, n)
    paths = node["decohered_paths"]
    if not isinstance(paths, list) or not paths:
        errors.append("meiweitz.decohered_paths: expected a non-empty list")
    else:
        indices = [_index_value(entry, f"meiweitz.decohered_paths[{k}]", errors, n)
                   for k, entry in enumerate(paths)]
        indices = [idx for idx in indices if idx is not None]
        if len(set(indices)) != len(indices):
            errors.append("meiweitz.decohered_paths: duplicate indices")
    grid = node["gamma_grid"]
    if not isinstance(grid, list) or not grid:
        errors.append("meiweitz.gamma_grid: expected a non-empty list")
    elif len(grid) > MAX_SCAN_POINTS:
        errors.append(f"meiweitz.gamma_grid: at most {MAX_SCAN_POINTS} points, "
                      f"got {len(grid)}")
    else:
        for k, entry in enumerate(grid):
            _real_value(entry, f"meiweitz.gamma_grid[{k}]", errors, 0, 1)
    # The keys are exactly mei_weitz_scan's parameters: the checked section is
    # its keyword arguments.
    return {} if len(errors) > preexisting else {"meiweitz": node}


def _parse_uqsd(node, errors: list[str]) -> dict:
    node = _object(node, "uqsd", {"d1", "d2", "p1", "trials", "seed"}, errors)
    if node is None:
        return {}
    preexisting = len(errors)
    d1 = _complex_vector(node["d1"], "uqsd.d1", errors)
    d2 = _complex_vector(node["d2"], "uqsd.d2", errors)
    if d1 is not None and d2 is not None and d1.size != d2.size:
        errors.append(f"uqsd: d1 has length {d1.size} but d2 has length {d2.size}")
    p1 = _real_value(node["p1"], "uqsd.p1", errors, 0, 1)
    _int_value(node["trials"], "uqsd.trials", errors, 1, MAX_TRIALS)
    _int_value(node["seed"], "uqsd.seed", errors, 0, 2**64 - 1)
    return {} if len(errors) > preexisting else {
        "uqsd": {**node, "d1": d1, "d2": d2, "p1": p1}}


_SECTIONS = {"state": _parse_state, "geometry": _parse_geometry,
             "meiweitz": _parse_meiweitz, "uqsd": _parse_uqsd}


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

    errors = [f"unknown top-level key '{key}'"
              for key in sorted(set(raw) - {"mode", "output", *_SECTIONS})]
    mode = raw.get("mode")
    # A tuple test: a list- or dict-valued mode is unhashable.
    if mode not in MODES:
        errors.append(f"mode: expected one of {list(MODES)}, got {mode!r}")
        raise ConfigError(errors)

    spec = _MODE_TABLE[mode]
    fields = {}
    for key, parse in _SECTIONS.items():
        if key not in raw:
            if key == spec.section:
                errors.append(f"{key}: required for mode '{mode}'")
        elif key == spec.section or key in spec.optional:
            fields.update(parse(raw[key], errors))
        else:
            errors.append(f"{key}: not used in mode '{mode}'")

    output = _object(raw.get("output"), "output", {"format", "path"}, errors)
    if output is not None:
        if output["format"] != spec.format:
            errors.append(f"output.format: mode '{mode}' writes '{spec.format}', "
                          f"got {output['format']!r}")
        if not isinstance(output["path"], str) or not output["path"]:
            errors.append("output.path: expected a non-empty string")
        fields["output_path"] = output["path"]

    if errors:
        raise ConfigError(errors)
    return ScenarioConfig(mode=mode, raw=raw, **fields)


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
        # The frozen fields are plain JSON values already, so they need no
        # deep copy before dumping.
        return _json(vars(self))

    @classmethod
    def from_json(cls, text: str) -> "ReportDocument":
        return cls(**json.loads(text))


def _json(document: dict) -> str:
    """A JSON artifact: one line, keys sorted, newline-terminated.

    Without ``indent`` the stdlib runs its C encoder; ``python -m json.tool``
    pretty-prints the artifact.
    """
    return json.dumps(document, sort_keys=True) + "\n"


# 17 significant digits, so every double round-trips; path labels print as
# plain integers.
_NUMBER = "%.17g"


def _fmt(value: float) -> str:
    return _NUMBER % value


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
    state = config.state
    return (build_pure_state if "amplitudes" in state else build_mixed_state)(**state)


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


# Rows per formatted chunk of a CSV table: the rows are stacked, formatted
# and written one chunk at a time, so neither a table's whole text nor a
# stacked copy of its columns is held at once.
_CSV_CHUNK_ROWS = 4096


def _csv(header: str, *columns):
    """The table of the given equal-length columns under the header, as text
    chunks."""
    line = ",".join([_NUMBER] * len(columns)) + "\n"
    yield header + "\n"
    for start in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
        chunk = np.column_stack([column[start:start + _CSV_CHUNK_ROWS]
                                 for column in columns])
        yield line * len(chunk) % tuple(chunk.ravel().tolist())


def _uqsd_problem(section: dict):
    """The configured two-state problem and its analytic optimum."""
    problem = UqsdProblem(section["d1"], section["d2"], section["p1"], 1.0 - section["p1"])
    return problem, success_probability(problem.p1, problem.p2, abs(problem.overlap))


def build_uqsd_document(config: ScenarioConfig) -> dict:
    problem, analytic = _uqsd_problem(config.uqsd)
    povm = build_povm(problem)
    result = simulate(problem, povm, config.uqsd["trials"], config.uqsd["seed"])
    return {
        "problem": {
            "d1": [[z.real, z.imag] for z in problem.d1],
            "d2": [[z.real, z.imag] for z in problem.d2],
            "p1": problem.p1,
            "p2": problem.p2,
            "overlap_magnitude": abs(problem.overlap),
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


def _write_atomic(path: str, chunks) -> None:
    """The text chunks, in order, into a temp file, then a rename; an OSError
    surfaces as a ConfigError naming the path, since the path comes from the
    config or --output."""
    target = os.path.abspath(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".tmp-dualitylab-")
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
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
    if _MODE_TABLE[config.mode].section == "state":
        diagnostics = validate(_build_state(config))
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
        document = build_report_document(config, _build_state(config))
        chunks, duality = [document.to_json()], document.duality
        summary = (f"coherence={_fmt(duality['coherence'])} "
                   f"distinguishability={_fmt(duality['distinguishability'])} "
                   f"duality_margin={_fmt(duality['duality_margin'])}")
    elif config.mode == "pairs":
        report = duality_report(_build_state(config))
        for i, j in report.dark_pairs:
            print(f"warning: pair ({i + 1}, {j + 1}) carries no probability; "
                  "omitted from the table", file=sys.stderr)
        i, j, visibility, distinguishability, slack, weight = \
            np.array(report.pairwise, dtype=float).reshape(-1, 6).T
        # 1-based path labels in human-facing tables.
        chunks = _csv("i,j,weight,visibility,distinguishability,slack",
                      i + 1, j + 1, weight, visibility, distinguishability, slack)
        summary = f"{len(report.pairwise)} pairs"
    elif config.mode == "fringes":
        state = _build_state(config)
        profile = intensity_profile(state, SlitGeometry(state.n, **(config.geometry or {})))
        chunks = _csv("delta,intensity", profile.delta, profile.intensity)
        summary = f"visibility={_fmt(profile.visibility)}"
    elif config.mode == "meiweitz":
        scan = mei_weitz_scan(**config.meiweitz)
        chunks = _csv("g,visibility,coherence,distinguishability", scan.gamma_grid,
                      scan.visibilities, scan.coherences, scan.distinguishabilities)
        summary = f"{scan.gamma_grid.size} grid points"
    else:
        document = build_uqsd_document(config)
        chunks = [_json(document)]
        summary = (f"analytic={_fmt(document['analytic']['success_probability'])} "
                   f"empirical={_fmt(document['simulation']['success_frequency'])}")
    _write_atomic(out_path, chunks)
    print(f"wrote {out_path}: {summary}")
    return 0


_PARSER = argparse.ArgumentParser(
    prog="dualitylab",
    description="Wave-particle duality laboratory for n-path interference",
    epilog="modes:\n" + "".join(f"  {mode:<10}{spec.help}\n"
                                for mode, spec in _MODE_TABLE.items()),
    formatter_class=argparse.RawDescriptionHelpFormatter)
_PARSER.add_argument("mode", choices=MODES, help="scenario mode, one of the modes below")
_PARSER.add_argument("--config", required=True, help="scenario JSON file")
_PARSER.add_argument("--output", default=None, help="override output.path from the config")
_PARSER.add_argument("--validate-only", action="store_true",
                     help="parse and validate, write nothing")


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"config error: cannot read {args.config}: {exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text)
        if config.mode != args.mode:
            raise ConfigError(
                [f"config declares mode '{config.mode}' but mode "
                 f"'{args.mode}' was given on the command line"])
        target = config.output_path if args.output is None else args.output
        if not target:
            raise ConfigError(["--output: expected a non-empty path"])
        if os.path.exists(target) and os.path.samefile(target, args.config):
            raise ConfigError([f"output path {target} is the config file itself"])
        return run(config, output_override=target, validate_only=args.validate_only)
    except ConfigError as exc:
        for message in exc.messages:
            print(f"config error: {message}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    except DualityLabError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
