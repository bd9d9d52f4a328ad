"""The overflow rule for hand-built records.

A state, POVM or profile assembled by hand is only shape-checked, so its
entries can overflow every sum a public call makes.  Each call then returns
its inf or NaN, or raises its check; it never emits a numpy warning (the
suite turns a RuntimeWarning into an error) and leaves the caller's numpy
error state as it found it.
"""

import inspect
import math
import sys
import threading

import numpy as np
import pytest

import dualitylab
from dualitylab import (FringeProfile, InterferometerState, UqsdPovm, UqsdProblem,
                        ValidationError, build_povm)
from dualitylab import core_state, fringes, multipath, pairwise, uqsd


def overflowing(n):
    """Every entry 1e308 against a Gram matrix of ones: each sum of two
    entries overflows."""
    return InterferometerState(np.full((n, n), 1e308), np.ones((n, n)), False)


def inf_against_zero_overlap(n):
    """inf at rho[0, 1] where the overlap is 0, so |rho_01| |gram_01| is NaN."""
    off_diagonal = 1.0 - np.eye(n)
    rho = (np.eye(n) / n + 0.1 * off_diagonal).astype(complex)
    rho[0, 1] = np.inf
    gram = np.eye(n) + 0.5 * off_diagonal
    gram[0, 1] = gram[1, 0] = 0.0
    return InterferometerState(rho, gram, False)


def inf_povm():
    """The POVM of a valid problem with inf written into e1."""
    problem = UqsdProblem(np.array([1.0, 0.0]), np.array([0.6, 0.8]), 0.5, 0.5)
    povm = build_povm(problem)
    e1 = np.array(povm.e1)
    e1[0, 0] = np.inf
    return problem, UqsdPovm(e1, povm.e2, povm.e_fail, povm.basis)


def misshaped_povm(dimension=2, **fields):
    """A problem in ``dimension`` detector coordinates against the POVM built
    for its first two, with ``fields`` written into that POVM."""
    povm = build_povm(UqsdProblem([1, 0], [0.5, 0.75**0.5], 0.5, 0.5))
    pad = [0] * (dimension - 2)
    problem = UqsdProblem([1, 0, *pad], [0.5, 0.75**0.5, *pad], 0.5, 0.5)
    fields = {name: fields.get(name, getattr(povm, name))
              for name in ("e1", "e2", "e_fail", "basis")}
    return problem, UqsdPovm(**fields)


def inf_profile():
    return FringeProfile(np.zeros(4), np.zeros(4), np.float64(np.inf),
                         np.float64(np.inf), 0.0)


STATE_CALLS = {
    "coherence": dualitylab.coherence,
    "distinguishability": dualitylab.distinguishability,
    "coherence_from_pair_visibilities": dualitylab.coherence_from_pair_visibilities,
    "distinguishability_from_pairs": dualitylab.distinguishability_from_pairs,
    "pair_visibility": lambda state: dualitylab.pair_visibility(state, 0, 1),
    "pair_distinguishability": lambda state: dualitylab.pair_distinguishability(state, 0, 1),
    "pair_metrics": lambda state: dualitylab.pair_metrics(state, 0, 1),
    "duality_report": dualitylab.duality_report,
    "open_pair": lambda state: dualitylab.open_pair(state, 0, 1),
    "intensity_profile": dualitylab.intensity_profile,
    "two_slit_pattern": lambda state: dualitylab.two_slit_pattern(state, 0, 1),
}

NAN = math.nan
OVERFLOWING_PAIR = "paths (0, 1) carry non-finite total probability inf"
NON_FINITE_ENTRY = "effective state contains non-finite entries"
PAIR_IDENTITY = "pair (0, 1): V + D + slack deviates from 1 by nan"
DUALITY_BOUND = "coherence + distinguishability exceeds 1 by nan"


def _overflowing_expectations():
    return {
        "coherence": NAN, "distinguishability": NAN,
        "coherence_from_pair_visibilities": NAN, "distinguishability_from_pairs": NAN,
        "pair_visibility": NAN, "pair_distinguishability": NAN,
        "pair_metrics": ("pair_identity", PAIR_IDENTITY),
        "duality_report": ("duality_bound", DUALITY_BOUND),
        "open_pair": ("finite", OVERFLOWING_PAIR),
        "intensity_profile": ("finite", "effective state's pattern overflows the float range"),
        "two_slit_pattern": ("finite", OVERFLOWING_PAIR),
    }


def _inf_expectations(n):
    # D_Q and its pair aggregate read no rho off-diagonal: with p = 1/n and
    # the overlaps left (0.5 on pairs (0, 2) and (1, 2) at n = 3) they are
    # 1 at n = 2 and 2/3 at n = 3.
    dist = 1.0 if n == 2 else 2.0 / 3.0
    return {
        "coherence": NAN, "distinguishability": dist,
        "coherence_from_pair_visibilities": NAN, "distinguishability_from_pairs": dist,
        "pair_visibility": NAN, "pair_distinguishability": 1.0,
        "pair_metrics": ("pair_identity", PAIR_IDENTITY),
        "duality_report": ("duality_bound", DUALITY_BOUND),
        # The pair state keeps its NaN coherence term and the finite rest.
        "open_pair": "nan at (0, 1)",
        "intensity_profile": ("finite", NON_FINITE_ENTRY),
        "two_slit_pattern": ("finite", NON_FINITE_ENTRY),
    }


def _cases():
    for n in (2, 3):
        for kind, build, expectations in (
                ("overflowing", overflowing, _overflowing_expectations()),
                ("inf_vs_zero_overlap", inf_against_zero_overlap, _inf_expectations(n))):
            for name, call in STATE_CALLS.items():
                yield pytest.param(build, n, call, expectations[name],
                                   id=f"{kind}-n{n}-{name}")
    yield pytest.param(
        lambda _: inf_povm(), None,
        lambda records: dualitylab.simulate(*records, trials=100, seed=1),
        ("born_probability", "negative Born probability np.float64(nan); POVM is invalid"),
        id="inf_povm-simulate")
    for kind, build, message in (
            ("other_dimension", lambda: misshaped_povm(3),
             "POVM basis has shape (2, 2), expected (2, 3)"),
            ("e1_3x3", lambda: misshaped_povm(e1=np.eye(3)),
             "POVM e1 has shape (3, 3), expected (2, 2)"),
            ("e1_vector", lambda: misshaped_povm(e1=np.ones(2)),
             "POVM e1 has shape (2,), expected (2, 2)")):
        yield pytest.param(
            lambda _, build=build: build(), None,
            lambda records: dualitylab.simulate(*records, trials=100, seed=1),
            ("povm_shape", message), id=f"misshaped_povm_{kind}-simulate")
    yield pytest.param(lambda _: inf_profile(), None, dualitylab.extract_visibility, NAN,
                       id="inf_profile-extract_visibility")
    # Input numpy cannot convert is refused by the record itself.
    ragged = [[0.5, 0], [0]]
    for kind, build, field in (
            ("state", lambda: InterferometerState(ragged, np.eye(2), False), "rho"),
            ("mixed_state", lambda: dualitylab.build_mixed_state(ragged, np.eye(2)), "rho"),
            ("povm", lambda: UqsdPovm(ragged, np.eye(2), np.eye(2), np.eye(2)), "e1")):
        yield pytest.param(lambda _: None, None, lambda _, build=build: build(),
                           ("array", f"{field} cannot be converted to a complex128 array"),
                           id=f"ragged_{kind}-construction")


def _assert_outcome(call, record, expected):
    if isinstance(expected, tuple):
        check, message = expected
        with pytest.raises(ValidationError) as info:
            call(record)
        assert info.value.check == check
        assert str(info.value) == message
        return
    result = call(record)
    if expected == "nan at (0, 1)":
        assert np.isnan(result[0, 1])
        assert np.isfinite(np.delete(result.ravel(), 1)).all()
    elif math.isnan(expected):
        assert np.isnan(result)
    else:
        assert result == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("build, n, call, expected", _cases())
def test_public_call_returns_or_raises_without_a_warning(build, n, call, expected):
    before = np.geterr()
    _assert_outcome(call, build(n), expected)
    assert np.geterr() == before


@pytest.mark.parametrize("build, n, call, expected", _cases())
def test_call_overrides_and_restores_the_callers_error_state(build, n, call, expected):
    # Under a caller's over="raise" the outcome is the same, and the
    # caller's state is back in force afterwards, also after a raise.
    with np.errstate(over="raise", invalid="raise", divide="warn", under="ignore"):
        before = np.geterr()
        _assert_outcome(call, build(n), expected)
        assert np.geterr() == before


def _corner_rho():
    """rho[2, 0] = 1.5e308 (1 + i): each part of the harmonic c_2 is finite,
    its modulus and the pattern's maximum are not."""
    rho = np.full((3, 3), 0.1, dtype=complex)
    rho[2, 0] = 1.5e308 + 1.5e308j
    return rho


# Against a Gram matrix of ones.  With every rho entry v the harmonics
# (n - |m|) v are finite and the pattern's maximum n^2 v overflows at n = 2
# and 3 and fits at n = 4; None marks an overflow.
PATTERNS = [
    pytest.param(np.full((2, 2), 5e307), None, id="n2-5e307"),
    pytest.param(np.full((3, 3), 5e307), None, id="n3-5e307"),
    pytest.param(_corner_rho(), None, id="n3-complex-corner"),
    pytest.param(np.full((4, 4), 1e307), (16 * 1e307, 0.0, 1.0), id="n4-1e307"),
]


@pytest.mark.parametrize("caller", [{}, {"over": "raise", "invalid": "raise"}],
                         ids=["default", "raising_caller"])
@pytest.mark.parametrize("rho, extrema", PATTERNS)
def test_pattern_extrema_are_exact_or_named_as_overflow(rho, extrema, caller):
    state = InterferometerState(rho, np.ones(rho.shape), False)
    with np.errstate(**caller):
        before = np.geterr()
        if extrema is None:
            with pytest.raises(ValidationError) as info:
                dualitylab.intensity_profile(state)
            assert info.value.check == "finite"
            assert str(info.value) == "effective state's pattern overflows the float range"
        else:
            profile = dualitylab.intensity_profile(state)
            assert (profile.i_max, profile.i_min, profile.visibility) == extrema
            assert np.isfinite(profile.intensity).all()
        assert np.geterr() == before


def test_dark_pair_coherence_fails_the_aggregation_check():
    # Paths 0 and 1 carry no probability, yet rho_01 = 0.01.  The direct C
    # counts 2 |rho_01| / (n - 1) for that pair; the pair aggregate drops the
    # dark pair, so the two differ by exactly that term.
    rho = np.zeros((4, 4), dtype=complex)
    rho[2, 2] = rho[3, 3] = 0.5
    rho[2, 3] = rho[3, 2] = 0.25
    rho[0, 1] = rho[1, 0] = 0.01
    state = InterferometerState(rho, np.ones((4, 4)), False)
    with pytest.raises(ValidationError) as info:
        dualitylab.duality_report(state)
    assert info.value.check == "coherence_aggregation"
    assert info.value.residual == pytest.approx(0.02 / 3, rel=1e-12)
    assert info.value.tolerance == multipath.AGGREGATION_TOL
    assert str(info.value).startswith("pairwise-aggregated coherence ")


def test_concurrent_calls_keep_each_threads_error_state():
    # Each thread holds its own error state while all call one guarded
    # function; no call may restore another thread's state into its own.
    settings = [dict(over=over, invalid=invalid, divide="ignore", under="ignore")
                for over in ("warn", "raise") for invalid in ("warn", "raise")]
    state = overflowing(3)
    start = threading.Barrier(len(settings))
    seen = []

    def run(setting):
        with np.errstate(**setting):
            start.wait()
            for _ in range(1000):
                dualitylab.coherence(state)
                seen.append(np.geterr() == setting)

    threads = [threading.Thread(target=run, args=(setting,)) for setting in settings]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside calls, not between them
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert len(seen) == 1000 * len(settings) and all(seen)


DECORATED = [
    (core_state, "build_pure_state", ["amplitudes", "detectors"]),
    (core_state, "effective_density", ["state"]),
    (pairwise, "open_pair", ["state", "i", "j"]),
    (pairwise, "pair_visibility", ["state", "i", "j"]),
    (pairwise, "pair_distinguishability", ["state", "i", "j"]),
    (pairwise, "pair_metrics", ["state", "i", "j"]),
    (multipath, "coherence", ["state"]),
    (multipath, "distinguishability", ["state"]),
    (multipath, "coherence_from_pair_visibilities", ["state"]),
    (multipath, "distinguishability_from_pairs", ["state"]),
    (multipath, "duality_report", ["state"]),
    (fringes, "intensity_profile", ["state", "geometry"]),
    (fringes, "extract_visibility", ["profile"]),
    (fringes, "two_slit_pattern", ["state", "i", "j", "geometry"]),
    (uqsd, "simulate", ["problem", "povm", "trials", "seed"]),
]


@pytest.mark.parametrize("module, name, parameters", DECORATED,
                         ids=[name for _, name, _ in DECORATED])
def test_guarded_function_keeps_its_identity(module, name, parameters):
    # The benchmark tracer finds a layer function by exactly this rule: a
    # plain function whose __module__ is the module it is read from.
    fn = getattr(module, name)
    assert inspect.isfunction(fn)
    assert fn.__module__ == module.__name__
    assert fn.__name__ == name
    assert list(inspect.signature(fn).parameters) == parameters
    assert getattr(dualitylab, name) is fn
