"""Four-basis tomography: forward model, reconstruction, bootstrap.

Frozen probabilities come from evaluating tr(rho P_b) with explicitly
constructed projectors, independent of the module's Bloch shortcuts.
"""
from __future__ import annotations

import math
import random

import numpy as np
import pytest

from ptcoherence import tomography
from ptcoherence import (
    CountRecord,
    DensityMatrix,
    HamiltonianParams,
    InsufficientDataError,
    PureState,
    SymmetryClass,
    bootstrap_errorbar,
    evolve_density,
    exact_count_record,
    ideal_probabilities,
    l1_coherence,
    reconstruct,
    simulate_counts,
    trace_distance,
)


def _rho(alpha: float, beta: float, phi: float) -> DensityMatrix:
    return PureState.from_amplitudes(alpha, beta, phi).density()


# ---------------------------------------------------------------------------
# forward model
# ---------------------------------------------------------------------------

def test_ideal_probabilities_match_projectors():
    # tr(rho P_b) with P_b = |b><b| for |H>, |V>, |R> = (|H> - i|V>)/sqrt(2)
    # and |D> = (|H> + |V>)/sqrt(2), against the module's entry formulas
    kets = [np.array(k, dtype=complex) for k in
            ((1, 0), (0, 1), (1 / math.sqrt(2), -1j / math.sqrt(2)),
             (1 / math.sqrt(2), 1 / math.sqrt(2)))]
    projectors = [np.outer(k, k.conj()) for k in kets]
    pauli = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    rng = np.random.default_rng(2024)
    for i in range(240):
        direction = rng.normal(size=3)
        # even draws are pure (on the sphere), odd draws mixed (in the ball)
        radius = 1.0 if i % 2 == 0 else rng.uniform() ** (1.0 / 3.0)
        r = radius * direction / np.linalg.norm(direction)
        rho = DensityMatrix(0.5 * (np.eye(2) + np.tensordot(r, pauli, axes=1)))
        reference = [np.trace(rho.rho @ proj).real for proj in projectors]
        assert np.max(np.abs(ideal_probabilities(rho) - reference)) <= 1e-15


def test_ideal_probabilities_frozen():
    probs = ideal_probabilities(_rho(0.6, 0.8, 0.5))
    assert probs[0] == pytest.approx(0.36, abs=1e-14)
    assert probs[1] == pytest.approx(0.64, abs=1e-14)
    assert probs[2] == pytest.approx(0.26987574146998256, abs=1e-14)
    assert probs[3] == pytest.approx(0.9212396297073788, abs=1e-14)


def test_ideal_probabilities_complementary_pair():
    rng = np.random.default_rng(3)
    for _ in range(10):
        alpha = rng.uniform(0.05, 0.95)
        probs = ideal_probabilities(
            _rho(alpha, np.sqrt(1 - alpha**2), rng.uniform(0, 2 * np.pi))
        )
        assert probs[0] + probs[1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(probs >= 0.0) and np.all(probs <= 1.0)


def test_exact_count_record_scales_probabilities():
    rec = exact_count_record(_rho(0.6, 0.8, 0.5), exposure=1000.0)
    assert rec.count_h == pytest.approx(360.0, abs=1e-9)
    assert rec.count_v == pytest.approx(640.0, abs=1e-9)
    assert rec.exposure == 1000.0


def test_simulate_counts_deterministic_and_clipped():
    rho = _rho(0.6, 0.8, 0.5)
    rec1 = simulate_counts(rho, exposure=5000, seed=42)
    rec2 = simulate_counts(rho, exposure=5000, seed=42)
    assert rec1 == rec2
    assert simulate_counts(rho, exposure=5000, seed=43) != rec1
    arr = rec1.as_array()
    assert np.all(arr == np.round(arr))  # integer event counts
    assert np.all(arr <= 5000.0)


def test_simulate_counts_clips_at_exposure_for_saturated_basis():
    # p_H = 1: the Poisson tail would exceed the trial count without the clip
    rho = PureState.preset("H").density()
    for seed in range(30):
        rec = simulate_counts(rho, exposure=200, seed=seed)
        assert rec.count_h <= 200.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("exposure, message", [
    (1e30, r"^cannot sample Poisson counts at exposure 1e\+30$"),
    (float("inf"), r"^exposure must be positive and finite, got inf$"),
    (float("nan"), r"^exposure must be positive and finite, got nan$"),
    (0.0, r"^exposure must be positive and finite, got 0.0$"),
])
def test_simulate_counts_rejects_unusable_exposure(exposure, message):
    with pytest.raises(ValueError, match=message):
        simulate_counts(PureState.preset("H").density(), exposure=exposure)


def test_simulate_counts_are_numpys_draws():
    # numpy's Generator is the oracle: the same draws, clipped at the exposure
    rho = _rho(0.6, 0.8, 0.5)
    for seed in (0, 7, 424242, 2**40, 2**70 + 3):
        for exposure in (3.0, 200.0, 30000.0):
            lam = exposure * ideal_probabilities(rho)
            expected = np.minimum(np.random.default_rng(seed).poisson(lam), exposure)
            record = simulate_counts(rho, exposure, seed=seed)
            assert record.as_array().tolist() == expected.tolist(), (seed, exposure)


@pytest.mark.parametrize("call", [
    lambda: simulate_counts(_rho(0.6, 0.8, 0.5), exposure=100.0, seed=-1),
    lambda: bootstrap_errorbar(CountRecord(60.0, 40.0, 50.0, 70.0, exposure=100.0), seed=-1),
], ids=["simulate_counts", "bootstrap_errorbar"])
def test_negative_seed_is_rejected(call):
    with pytest.raises(ValueError, match=r"^seed must be non-negative, got -1$"):
        call()


def test_seed_is_read_as_an_integer():
    # a numpy integer draws as the int it holds, as default_rng reads it;
    # a float seed raises TypeError
    rho, record = _rho(0.6, 0.8, 0.5), CountRecord(60.0, 40.0, 50.0, 70.0, exposure=100.0)
    assert simulate_counts(rho, 5000, seed=np.int64(7)) == simulate_counts(rho, 5000, seed=7)
    assert bootstrap_errorbar(record, resamples=20, seed=np.int64(7)) \
        == bootstrap_errorbar(record, resamples=20, seed=7)
    for call in (lambda: simulate_counts(rho, 5000, seed=7.0),
                 lambda: bootstrap_errorbar(record, resamples=20, seed=7.0)):
        with pytest.raises(TypeError):
            call()


def test_count_record_validation():
    with pytest.raises(ValueError):
        CountRecord(-1.0, 0.0, 0.0, 0.0, exposure=10.0)
    with pytest.raises(ValueError):
        CountRecord(11.0, 0.0, 0.0, 0.0, exposure=10.0)
    with pytest.raises(ValueError):
        CountRecord(1.0, 1.0, 1.0, 1.0, exposure=0.0)
    with pytest.raises(ValueError, match="must be finite"):
        CountRecord(1.0, np.nan, 1.0, 1.0, exposure=10.0)


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

def test_noiseless_round_trip_is_exact():
    rng = np.random.default_rng(17)
    for _ in range(25):
        alpha = rng.uniform(0.05, 0.95)
        rho = _rho(alpha, np.sqrt(1 - alpha**2), rng.uniform(0, 2 * np.pi))
        rec = exact_count_record(rho, exposure=1.0)
        assert trace_distance(rho, reconstruct(rec)) < 1e-9


def test_reconstruction_is_physical_under_noise():
    rho = _rho(0.6, 0.8, 1.1)
    for seed in range(20):
        rec = simulate_counts(rho, exposure=500, seed=seed)
        est = reconstruct(rec).rho
        eigs = np.linalg.eigvalsh(est)
        assert np.trace(est).real == pytest.approx(1.0, abs=1e-9)
        assert eigs.min() >= -1e-10


def test_reconstruction_repairs_unphysical_frequencies():
    # frequencies imply a Bloch vector outside the unit ball
    rec = CountRecord(10.0, 0.0, 0.0, 10.0, exposure=10.0)
    est = reconstruct(rec)
    eigs = np.linalg.eigvalsh(est.rho)
    assert eigs.min() >= -1e-10


def test_reconstruction_requires_hv_events():
    with pytest.raises(InsufficientDataError):
        reconstruct(CountRecord(0.0, 0.0, 3.0, 4.0, exposure=10.0))


def _nll(r, counts, exposure: float) -> float:
    """Poisson negative log-likelihood of Bloch vector ``r`` (constants dropped)."""
    probs = 0.5 * np.array([1.0 + r[2], 1.0 - r[2], 1.0 - r[1], 1.0 + r[0]])
    return sum(exposure * p - (n * math.log(p) if n > 0 else 0.0)
               for p, n in zip(probs, counts))


def _reference_ml(counts, exposure: float) -> np.ndarray:
    """Constrained ML Bloch vector by scalar bisection of the KKT conditions:
    each axis root of ``-n+/(1+u) + n-/(1-u) + c + 2 mu u`` (increasing in u),
    then the smallest ``mu >= 0`` that puts the vector in the unit ball."""
    def axis(n_plus, n_minus, c, mu):
        lo, hi = -1.0, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if -n_plus / (1.0 + mid) + n_minus / (1.0 - mid) + c + 2.0 * mu * mid < 0.0:
                lo = mid
            else:
                hi = mid
        return mid

    n_h, n_v, n_r, n_d = counts
    half = 0.5 * exposure

    def bloch(mu):
        return np.array([axis(n_d, 0.0, half, mu), axis(0.0, n_r, -half, mu),
                         axis(n_h, n_v, 0.0, mu)])

    free = bloch(0.0)
    if free @ free <= 1.0:
        return free
    lo, hi = 0.0, float(exposure)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        r = bloch(mid)
        if r @ r > 1.0:
            lo = mid
        else:
            hi = mid
    return bloch(hi)


def _optimality_panel():
    """Seeded records from pure and near-pure states, with counts forced to 0
    or to the exposure in some bases, at exposures from 10 to 30000."""
    rng = np.random.default_rng(2024)
    panel = []
    while len(panel) < 120:
        exposure = float(rng.choice([10, 30, 100, 1000, 30000]))
        direction = rng.normal(size=3)
        r = direction / np.linalg.norm(direction) * (1.0 - rng.choice([0.0, 1e-6, 1e-3, 1e-2]))
        probs = 0.5 * np.array([1 + r[2], 1 - r[2], 1 - r[1], 1 + r[0]])
        counts = np.minimum(rng.poisson(exposure * probs).astype(float), exposure)
        edit = rng.integers(4)
        if len(panel) % 3 == 1:
            counts[edit] = 0.0
        elif len(panel) % 3 == 2:
            counts[edit] = exposure
        if counts[0] + counts[1] > 0:
            panel.append((counts, exposure))
    return panel


def test_reconstruction_reaches_constrained_ml_optimum():
    outside = 0
    for counts, exposure in _optimality_panel():
        rho = reconstruct(CountRecord(*counts, exposure=exposure)).rho
        r = (2.0 * rho[0, 1].real, -2.0 * rho[0, 1].imag, (rho[0, 0] - rho[1, 1]).real)
        ref = _reference_ml(counts, exposure)
        outside += bool(ref @ ref > 1.0 - 1e-12)
        assert _nll(r, counts, exposure) <= _nll(ref, counts, exposure) + 1e-9, (counts, exposure)
    assert outside > 60  # most records put the optimum on the ball's surface


def test_reconstruction_accuracy_at_high_exposure():
    p = HamiltonianParams(kind=SymmetryClass.PT, s=1.0, a=0.47)
    rho = evolve_density(PureState.preset("D").density(), p, 1.3)
    distances = [
        trace_distance(rho, reconstruct(simulate_counts(rho, exposure=30000, seed=seed)))
        for seed in range(25)
    ]
    assert float(np.mean(distances)) <= 0.01


# ---------------------------------------------------------------------------
# bootstrap
# ---------------------------------------------------------------------------

def test_bootstrap_deterministic():
    rec = simulate_counts(_rho(0.6, 0.8, 0.3), exposure=2000, seed=5)
    out1 = bootstrap_errorbar(rec, resamples=40, seed=9)
    out2 = bootstrap_errorbar(rec, resamples=40, seed=9)
    assert out1 == out2


def test_bootstrap_brackets_truth():
    rho = _rho(0.6, 0.8, 0.3)
    rec = simulate_counts(rho, exposure=20000, seed=11)
    mean, sd = bootstrap_errorbar(rec, resamples=60, seed=2)
    assert sd > 0.0
    assert abs(mean - l1_coherence(rho)) < 5.0 * sd + 5e-3


@pytest.mark.parametrize("counts, exposure", [
    ((120.0, 80.0, 150.0, 30.0), 200.0),   # mixed state inside the ball
    ((200.0, 0.0, 100.0, 200.0), 200.0),   # saturated bases: estimates on the surface
    ((0.5, 0.5, 1.0, 1.5), 3.0),           # many resamples without H/V events
], ids=["mixed", "saturated", "sparse"])
def test_bootstrap_matches_per_resample_reconstruction(counts, exposure):
    record = CountRecord(*counts, exposure=exposure)
    observed = record.as_array()
    values = []
    for child in np.random.SeedSequence(4).spawn(50):
        n = np.minimum(np.random.default_rng(child).poisson(observed).astype(float), exposure)
        if n[0] + n[1] > 0:
            values.append(l1_coherence(reconstruct(CountRecord(*n, exposure=exposure))))
    mean, sd = bootstrap_errorbar(record, resamples=50, seed=4)
    assert mean == pytest.approx(np.mean(values), abs=1e-12)
    assert sd == pytest.approx(np.std(values, ddof=1), abs=1e-12)


def test_bootstrap_validation():
    rec = exact_count_record(_rho(0.6, 0.8, 0.0), exposure=100.0)
    with pytest.raises(ValueError):
        bootstrap_errorbar(rec, resamples=1)
    # no H/V events to resample: every resample is dropped
    with pytest.raises(InsufficientDataError, match="too few viable"):
        bootstrap_errorbar(CountRecord(0.0, 0.0, 5.0, 5.0, exposure=10.0), resamples=10)


# ---------------------------------------------------------------------------
# the sampling stream: numpy's, bit for bit
# ---------------------------------------------------------------------------

#: Seeds of one to five 32-bit words, at the word boundaries, and seeded
#: 63-bit values.
_STREAM_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 17,
                 *(random.Random(2024).getrandbits(63) for _ in range(4)))


def _draws(lams, seed: int, child: int | None = None) -> list[int]:
    rand = tomography._streams(seed)(child)
    return [tomography._poisson(lam, rand) for lam in lams]


def _raw_doubles(bit_generator, n: int) -> list[float]:
    return [(int(x) >> 11) * 2.0**-53 for x in bit_generator.random_raw(n)]


@pytest.mark.parametrize("seed", _STREAM_SEEDS)
def test_stream_is_numpys_pcg64(seed):
    # the doubles of default_rng(seed), of each of SeedSequence(seed).spawn(8)
    # and of a spawn key of two words, mixed into the pool cached past the seed
    streams = tomography._streams(seed)
    rand = streams()
    assert [rand() for _ in range(40)] == _raw_doubles(np.random.PCG64(seed), 40)
    children = enumerate(np.random.SeedSequence(seed).spawn(8))
    for i, child in [*children, (2**32 + 3, np.random.SeedSequence(seed, spawn_key=(2**32 + 3,)))]:
        rand = streams(i)
        assert [rand() for _ in range(40)] == _raw_doubles(np.random.PCG64(child), 40), i


def _stream_means(rng: random.Random) -> list[float]:
    """Means on both sides of the method switch at 10, and far up to the bound."""
    return [0.0, 1e-300, 0.3, 2.5, 9.999999999999998, 10.0, *(rng.uniform(0, 10) for _ in range(8)),
            *(rng.uniform(10, 60) for _ in range(8)), 3e4, 1e9, tomography._POISSON_LAM_MAX]


@pytest.mark.parametrize("seed", _STREAM_SEEDS)
def test_poisson_draws_are_numpys(seed):
    lams = _stream_means(random.Random(seed))
    assert _draws(lams, seed) == np.random.default_rng(seed).poisson(lams).tolist()
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(8)):
        assert _draws(lams, seed, i) == np.random.default_rng(child).poisson(lams).tolist(), i


def test_poisson_draws_reach_the_log_gamma_test(monkeypatch):
    # at small means PTRS's quick test passes less often: 10^4 means in
    # [10, 60] reach its log-gamma comparison thousands of times
    calls = []
    loggam = tomography._loggam
    monkeypatch.setattr(tomography, "_loggam", lambda x: calls.append(x) or loggam(x))
    rng = random.Random(11)
    lams = [rng.uniform(10, 60) for _ in range(10_000)]
    assert _draws(lams, 11) == np.random.default_rng(11).poisson(lams).tolist()
    assert len(calls) > 1000


def test_ptrs_keeps_c_results_where_python_raises():
    # numpy's C code on pairs (u + 1/2, v) that the stream almost never
    # draws: u = -1/2 gives us = 0, rejected; us = 2**-53 puts k beyond
    # int64, rejected (log v = log 0 = -inf would accept it); the third
    # pair passes the quick test at k = floor(lam + 0.43)
    doubles = iter([0.0, 0.5, 1.0 - 2.0**-53, 0.0, 0.5, 0.5])
    lam = tomography._POISSON_LAM_MAX
    assert tomography._poisson(lam, doubles.__next__) == int(lam)
    # us = 0.05 and v = 0: log(0) = -inf accepts k in the log-gamma test
    assert tomography._poisson(10.0, iter([0.95, 0.0]).__next__) == 17


@pytest.mark.parametrize("lam", [
    math.nextafter(tomography._POISSON_LAM_MAX, math.inf), math.inf, -1e-300, -1.0, math.nan,
], ids=["one-ulp-above-bound", "inf", "tiny-negative", "negative", "nan"])
def test_poisson_guard_is_numpys(lam):
    with pytest.raises(ValueError):
        np.random.default_rng(0).poisson(lam)
    with pytest.raises(ValueError):
        _draws([lam], 0)


# ---------------------------------------------------------------------------
# trace distance
# ---------------------------------------------------------------------------

def test_trace_distance_basics():
    h = PureState.preset("H").density()
    v = PureState(0.0, 1.0).density()
    assert trace_distance(h, h) == 0.0
    assert trace_distance(h, v) == pytest.approx(1.0, abs=1e-14)
    assert trace_distance(h, DensityMatrix(np.eye(2) / 2)) == pytest.approx(0.5, abs=1e-14)
    d = PureState.preset("D").density()
    assert trace_distance(h, d) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    with pytest.raises(ValueError, match="2x2"):
        trace_distance(h, DensityMatrix(np.eye(3) / 3.0))


def _eigen_trace_distance(rho_1: DensityMatrix, rho_2: DensityMatrix) -> float:
    diff = rho_1.rho - rho_2.rho
    return 0.5 * float(np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))).sum())


def test_trace_distance_matches_eigenvalues():
    rng = np.random.default_rng(8)
    states = []
    for _ in range(40):  # full-rank and pure states
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        g[:, 1] *= rng.integers(0, 2)
        rho = g @ g.conj().T
        states.append(DensityMatrix(rho / np.trace(rho).real))
    for rho_1, rho_2 in zip(states[::2], states[1::2]):
        assert trace_distance(rho_1, rho_2) == pytest.approx(
            _eigen_trace_distance(rho_1, rho_2), rel=1e-13, abs=1e-16)
    # identical, orthogonal and 1e-12-apart states
    rho = _rho(0.6, 0.8, 0.3)
    assert trace_distance(rho, rho) == 0.0
    assert trace_distance(_rho(0.6, 0.8, 0.3), _rho(0.8, 0.6, 0.3 + math.pi)) == pytest.approx(
        1.0, abs=1e-15)
    near = _rho(0.6, 0.8, 0.3 + 1e-12)
    assert trace_distance(rho, near) == pytest.approx(_eigen_trace_distance(rho, near), rel=1e-9)
    assert trace_distance(rho, near) == pytest.approx(0.48e-12, rel=1e-3)
