"""The three benchmark workloads: inputs, one timed bundle, output checks.

A workload turns ``(seed, index)`` into the raw inputs of bundle ``index``
with numpy alone, so the program only ever sees generated arrays and files.
``bundle`` is the timed operation: a fixed composition of calls into
dualitylab, identical from bundle to bundle.  ``check`` runs outside the
timed interval and returns ``(ok, vis_err)``, where ``vis_err`` is the worst
extracted-against-exact visibility error of the patterns it checked.

Library calls go through module attributes (``dl.duality_report``,
``cli.main``) at call time, so the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
from pathlib import Path

import numpy as np

import dualitylab as dl
import dualitylab.cli as cli

ROOT = Path(__file__).resolve().parent.parent
TOL = 1e-10
VIS_TOL = 1e-6


def _load_oracles():
    spec = importlib.util.spec_from_file_location(
        "perfbench_oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ----------------------------------------------------------------------
# input generators (numpy only; independent of dualitylab.sampling)


def _ginibre(rng, rows: int, cols: int) -> np.ndarray:
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def density_matrix(rng, n: int) -> np.ndarray:
    a = _ginibre(rng, n, n)
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    return 0.5 * (rho + rho.conj().T)


def unit_rows(rng, n: int, dim: int) -> np.ndarray:
    z = _ginibre(rng, n, dim)
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def gram_matrix(rng, n: int, rank: int) -> np.ndarray:
    d = unit_rows(rng, n, rank)
    gram = d @ d.conj().T
    gram = 0.5 * (gram + gram.conj().T)
    np.fill_diagonal(gram, 1.0)
    return gram


def symmetric_density_matrix(rng, n: int) -> np.ndarray:
    """Congruence-rescaled Ginibre state with diagonal exactly 1/n."""
    rho = density_matrix(rng, n)
    scale = np.sqrt(np.diag(rho).real)
    rho = rho / np.outer(scale, scale) / n
    rho = 0.5 * (rho + rho.conj().T)
    np.fill_diagonal(rho, 1.0 / n)
    return rho


def direct_sums(rho: np.ndarray, gram: np.ndarray) -> tuple[float, float]:
    """C and D_Q as plain matrix sums, the independent side of the check."""
    n = rho.shape[0]
    abs_gram = np.abs(gram)
    coh = np.abs(rho) * abs_gram
    probs = np.clip(np.diag(rho).real, 0.0, None)
    geo = np.sqrt(np.outer(probs, probs)) * abs_gram
    return ((coh.sum() - np.trace(coh)) / (n - 1),
            1.0 - (geo.sum() - np.trace(geo)) / (n - 1))


def _report_ok(report, rho, gram, dark) -> bool:
    n = rho.shape[0]
    coh, dist = direct_sums(rho, gram)
    return (abs(report.coherence - coh) <= TOL
            and abs(report.distinguishability - dist) <= TOL
            and report.coherence + report.distinguishability <= 1.0 + TOL
            and all(abs(m.visibility + m.distinguishability + m.slack - 1.0) <= TOL
                    for m in report.pairwise)
            and len(report.pairwise) + len(report.dark_pairs) == n * (n - 1) // 2
            and tuple(map(tuple, report.dark_pairs)) == dark)


# ----------------------------------------------------------------------
# report_ensemble


class ReportEnsemble:
    """duality_report on one fresh state at each n; bundles cycle through
    four state kinds so every kind is timed equally often."""

    SIZES = (4, 8, 16, 32)
    KINDS = ("mixed", "symmetric", "pure", "dark_pair")
    cycle = len(KINDS)
    warmup = len(KINDS)

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed

    def inputs(self, index: int) -> list[tuple]:
        rng = np.random.default_rng([self.seed, index])
        kind = self.KINDS[index % len(self.KINDS)]
        items = []
        for n in self.SIZES:
            rank = int(rng.integers(1, n + 1))
            if kind == "pure":
                c = rng.normal(size=n) + 1j * rng.normal(size=n)
                c /= np.linalg.norm(c)
                detectors = unit_rows(rng, n, rank)
                rho = np.outer(c, c.conj())
                gram = detectors @ detectors.conj().T
                items.append(("pure", (c, detectors), rho, gram, ()))
                continue
            dark = ()
            if kind == "mixed":
                rho = density_matrix(rng, n)
            elif kind == "symmetric":
                rho = symmetric_density_matrix(rng, n)
            else:
                blocked = np.sort(rng.choice(n, size=2, replace=False))
                lit = np.setdiff1d(np.arange(n), blocked)
                rho = np.zeros((n, n), dtype=complex)
                rho[np.ix_(lit, lit)] = density_matrix(rng, n - 2)
                dark = ((int(blocked[0]), int(blocked[1])),)
            gram = gram_matrix(rng, n, rank)
            items.append(("mixed", (rho, gram), rho, gram, dark))
        return items

    def bundle(self, items):
        reports = []
        for form, args, _, _, _ in items:
            build = dl.build_pure_state if form == "pure" else dl.build_mixed_state
            reports.append(dl.duality_report(build(*args)))
        return reports

    def artifacts(self) -> dict:
        return {}

    def check(self, items, reports) -> tuple[bool, float]:
        ok = all(_report_ok(report, rho, gram, dark)
                 for (_, _, rho, gram, dark), report in zip(items, reports))
        return ok and len(reports) == len(items), 0.0


# ----------------------------------------------------------------------
# fringe_scan


class FringeScan:
    """Sampling along both axes (many slits, many samples), eight two-slit
    patterns, and the flip/decohere scan that reuses one rho."""

    WIDE = (32, 2048)       # (slits, phase steps)
    DENSE = (4, 32768)
    PAIRS = 8
    SCAN = (4, 3, (3,), 21)  # n, flipped path, decohered paths, grid points
    cycle = 1
    warmup = 2

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.oracle = _load_oracles().flip_scan_visibility

    def inputs(self, index: int) -> dict:
        rng = np.random.default_rng([self.seed, index])
        wide_n, dense_n = self.WIDE[0], self.DENSE[0]
        upper = np.transpose(np.triu_indices(wide_n, 1))
        chosen = rng.choice(len(upper), size=self.PAIRS, replace=False)
        return {
            "wide": (density_matrix(rng, wide_n),
                     gram_matrix(rng, wide_n, int(rng.integers(1, wide_n + 1)))),
            "dense": (density_matrix(rng, dense_n), gram_matrix(rng, dense_n, dense_n)),
            "pairs": [tuple(int(k) for k in upper[c]) for c in chosen],
            "grid": np.sort(rng.uniform(0.0, 1.0, size=self.SCAN[3])),
        }

    def bundle(self, inp):
        wide = dl.build_mixed_state(*inp["wide"])
        dense = dl.build_mixed_state(*inp["dense"])
        profiles = [
            dl.intensity_profile(wide, dl.SlitGeometry(*self.WIDE)),
            dl.intensity_profile(dense, dl.SlitGeometry(*self.DENSE)),
        ]
        pairs = [dl.two_slit_pattern(wide, i, j) for i, j in inp["pairs"]]
        n, flipped, decohered, _ = self.SCAN
        scan = dl.mei_weitz_scan(n, flipped, decohered, inp["grid"])
        return wide, profiles, pairs, scan

    def artifacts(self) -> dict:
        return {}

    def check(self, inp, out) -> tuple[bool, float]:
        wide, profiles, pairs, scan = out
        ok = True
        for profile, (_, steps) in zip(profiles, (self.WIDE, self.DENSE)):
            # Uniform samples of a degree < steps trig polynomial average to
            # its constant term, trace(rho * gram) = 1.
            ok &= (profile.intensity.size == steps
                   and abs(float(np.mean(profile.intensity)) - 1.0) <= 1e-9
                   and 0.0 <= profile.visibility <= 1.0 + TOL)
        errors = [abs(profile.visibility - dl.pair_visibility(wide, i, j))
                  for profile, (i, j) in zip(pairs, inp["pairs"])]
        grid = inp["grid"]
        ok &= np.array_equal(scan.gamma_grid, grid) and len(pairs) == self.PAIRS
        if ok:
            errors += [abs(v - self.oracle(float(g)))
                       for g, v in zip(grid, scan.visibilities)]
            ok &= bool(np.all(np.abs(scan.coherences - (1.0 + grid) / 2.0) <= TOL))
        worst = max(errors)
        return bool(ok and worst <= VIS_TOL), worst


# ----------------------------------------------------------------------
# cli_batch


def _pairs_json(values) -> list:
    return [[float(z.real), float(z.imag)] for z in values]


class CliBatch:
    """Five CLI modes writing artifacts, then the same five validate-only.

    The scenario files are fixed for the run, so every bundle must write
    byte-identical artifacts; the first bundle's artifacts are checked for
    content and become the reference.
    """

    MODES = ("report", "pairs", "fringes", "meiweitz", "uqsd")
    REPORT_N = 16
    FRINGES_N = 8
    MEIWEITZ = (4, 3, [3], 11)
    TRIALS = 10**6
    cycle = 1
    warmup = 1              # the one warm-up bundle sets the reference artifacts

    def __init__(self, seed: int, workdir: str) -> None:
        self.oracle = _load_oracles().flip_scan_visibility
        rng = np.random.default_rng([seed, 2**32])
        self.rho = density_matrix(rng, self.REPORT_N)
        self.gram = gram_matrix(rng, self.REPORT_N, int(rng.integers(2, self.REPORT_N + 1)))
        state = {"rho": [_pairs_json(row) for row in self.rho],
                 "gram": [_pairs_json(row) for row in self.gram]}
        n = self.FRINGES_N
        c = rng.normal(size=n) + 1j * rng.normal(size=n)
        n_mw, flipped, decohered, points = self.MEIWEITZ
        d1 = unit_rows(rng, 1, 3)[0]
        other = unit_rows(rng, 1, 3)[0]
        other -= np.vdot(d1, other) * d1
        s = float(rng.uniform(0.2, 0.6))
        d2 = s * d1 + np.sqrt(1.0 - s * s) * other / np.linalg.norm(other)
        sections = {
            "report": {"state": state},
            "pairs": {"state": state},
            "fringes": {"state": {
                "amplitudes": _pairs_json(c / np.linalg.norm(c)),
                "detectors": [_pairs_json(row) for row in unit_rows(rng, n, n)]}},
            "meiweitz": {"meiweitz": {
                "n": n_mw, "flipped_path": flipped, "decohered_paths": decohered,
                "gamma_grid": sorted(float(g) for g in rng.uniform(0.0, 1.0, points))}},
            "uqsd": {"uqsd": {
                "d1": _pairs_json(d1), "d2": _pairs_json(d2 / np.linalg.norm(d2)),
                "p1": float(rng.uniform(0.4, 0.6)), "trials": self.TRIALS,
                "seed": int(rng.integers(0, 2**32))}},
        }
        self.configs, self.outputs = {}, {}
        for mode in self.MODES:
            fmt = cli.FORMAT_BY_MODE[mode]
            self.outputs[mode] = os.path.join(workdir, f"{mode}.{fmt}")
            self.configs[mode] = os.path.join(workdir, f"{mode}.config.json")
            doc = {"mode": mode, **sections[mode],
                   "output": {"format": fmt, "path": f"{mode}.{fmt}"}}
            Path(self.configs[mode]).write_text(json.dumps(doc, indent=2),
                                                encoding="utf-8")
        self.reference, self.reference_ok, self.vis_err = None, False, 0.0

    def inputs(self, index: int) -> None:
        return None

    def bundle(self, _inp):
        codes, printed = [], []
        for validate_only in (False, True):
            for mode in self.MODES:
                argv = [mode, "--config", self.configs[mode]]
                argv += ["--validate-only"] if validate_only else \
                    ["--output", self.outputs[mode]]
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    codes.append(cli.main(argv))
                printed.append(out.getvalue())
        return codes, printed

    def artifacts(self) -> dict:
        return {mode: Path(path).read_bytes() for mode, path in self.outputs.items()}

    def check(self, _inp, out) -> tuple[bool, float]:
        codes, printed = out
        ok = codes == [0] * (2 * len(self.MODES)) and all(
            text.endswith("config valid\n") for text in printed[len(self.MODES):])
        artifacts = self.artifacts()
        if self.reference is None:
            self.reference = artifacts
            self.reference_ok, self.vis_err = self._content_ok(artifacts)
        ok = ok and self.reference_ok and artifacts == self.reference
        return ok, self.vis_err

    def _content_ok(self, artifacts: dict) -> tuple[bool, float]:
        text = artifacts["report"].decode("utf-8")
        document = cli.ReportDocument.from_json(text)
        coh, dist = direct_sums(self.rho, self.gram)
        duality = document.duality
        ok = (document.to_json() == text
              and abs(duality["coherence"] - coh) <= TOL
              and abs(duality["distinguishability"] - dist) <= TOL
              and len(artifacts["pairs"].decode().splitlines())
              == 1 + self.REPORT_N * (self.REPORT_N - 1) // 2)
        rows = [line.split(",") for line in
                artifacts["meiweitz"].decode().splitlines()[1:]]
        errors = [abs(float(v) - self.oracle(float(g))) for g, v, _, _ in rows]
        uqsd = json.loads(artifacts["uqsd"])["simulation"]
        ok = ok and len(rows) == self.MEIWEITZ[3] and uqsd["freq_wrong"] == 0.0
        worst = max(errors) if errors else float("inf")
        return bool(ok and worst <= VIS_TOL), worst


WORKLOADS = {"report_ensemble": ReportEnsemble, "fringe_scan": FringeScan,
             "cli_batch": CliBatch}
