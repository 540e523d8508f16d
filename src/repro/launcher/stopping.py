"""Adaptive RCIW stopping: spend experiments where the noise is.

Fixed-count measurement runs every configuration for
``LauncherOptions.experiments`` outer-loop experiments regardless of how
noisy it is — stable configs waste time, noisy ones ship untrustworthy
numbers.  This module implements the sequential-sampling alternative
(nanoBench's variability-aware measurement, with the LLM4JMH RCIW
convergence rule as the stopping test): run experiments in batches,
bootstrap the confidence interval of mean cycles-per-iteration after
each batch, and stop a configuration as soon as its *relative
confidence-interval width* ``(ci_high - ci_low) / mean`` falls to or
under ``rciw_target`` — or unconditionally at ``max_experiments``.

Determinism is structural, not incidental:

- The noise process draws per ``(seed, experiment-index)`` stream, and
  :meth:`~repro.machine.noise.NoiseModel.perturb_batch` is element-wise
  — a cell depends only on its own duration and experiment index, never
  on which other configurations share the batch.  Adaptive samples are
  therefore a *prefix* of the fixed-count run's samples: configurations
  that converge drop out of later rounds without shifting anybody
  else's draws, and ``min_experiments == max_experiments`` reproduces
  the fixed path bit-for-bit.
- Bootstrap resampling uses a shared index matrix keyed only by
  ``(seed, n_samples)`` — independent of configuration order, batch
  composition, chunking, worker count, and resume position.

Both properties are pinned by ``tests/launcher/test_stopping.py`` and
``tests/engine/test_adaptive_campaign.py``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import obs
from repro.launcher.measurement import (
    CALL_OVERHEAD_NS,
    Measurement,
    MeasurementRequest,
)
from repro.launcher.options import LauncherOptions
from repro.machine.noise import NoiseEnvironment, NoiseModel

#: Bootstrap resamples per convergence check.  Enough for a stable
#: percentile CI of the mean at microbenchmark sample sizes; small
#: enough that the check is negligible next to the perturbation grid.
BOOTSTRAP_RESAMPLES = 200

#: Two-sided confidence level of the bootstrapped interval.
CONFIDENCE = 0.95

#: Histogram bounds for the per-job experiments-spent metric.
EXPERIMENT_BUCKETS = (4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

#: The two-sided percentile interval of the bootstrap means, in percent.
_ALPHA = 100.0 * (1.0 - CONFIDENCE) / 2.0
_PERCENTILES = (_ALPHA, 100.0 - _ALPHA)


def _percentile_plan(
    n: int, percentiles: Sequence[float]
) -> tuple[np.ndarray, tuple[tuple[int, float], ...]]:
    """``np.percentile``'s linear method for ``n`` values, precomputed.

    Returns the order statistics numpy partitions ``n`` values at, and
    per percentile the lower order statistic and the interpolation
    weight towards the next one — each derived with numpy's own
    operations, so the interval below is bit-identical to
    ``np.percentile(values, percentiles)``.
    """
    virtual = (n - 1) * np.true_divide(percentiles, 100)
    below = np.floor(virtual)
    gamma = virtual - below
    below = below.astype(np.intp).tolist()
    # numpy partitions at np.unique([0, -1, *below, *above]); np.unique
    # itself would import numpy.ma into every process.
    kth = np.array(sorted({0, -1, *below, *(k + 1 for k in below)}), dtype=np.intp)
    return kth, tuple(zip(below, gamma.tolist()))


_CI_KTH, _CI_PLAN = _percentile_plan(BOOTSTRAP_RESAMPLES, _PERCENTILES)


def _lerp(below: float, above: float, t: float) -> float:
    """numpy's percentile interpolation (``_lerp``), on scalars."""
    diff = above - below
    if t >= 0.5:
        return above - diff * (1 - t)
    return below + diff * t


#: Cached resample-index matrices, keyed by ``(|seed|, n_samples)``.
#: Every configuration measured under one noise seed re-checks
#: convergence at the same handful of sample counts; the matrix depends
#: on nothing else, so it is drawn once per seed.  Campaign jobs each
#: derive their own seed, so entries never hit across jobs.
_RESAMPLE_CACHE: dict[tuple[int, int], np.ndarray] = {}

_RESAMPLE_CACHE_MAX = 1 << 10

#: Seed-sequence tag separating bootstrap streams from the noise
#: process's per-experiment streams (which use ``experiment + 1_000_003``).
_BOOTSTRAP_STREAM_TAG = 2_000_003


def adaptive_overrides(
    rciw_target: float | None = None,
    min_experiments: int | None = None,
    max_experiments: int | None = None,
    batch_size: int | None = None,
) -> dict[str, object]:
    """Non-``None`` adaptive knobs as ``LauncherOptions`` field overrides.

    The CLIs and the analysis experiments thread optional adaptive
    settings through to option construction; leaving a knob unset must
    leave the corresponding field untouched (digest stability — see
    ``repro.engine.serialize.EncodedOptions``), so only explicit values
    survive into the override dict.
    """
    overrides = {
        "rciw_target": rciw_target,
        "min_experiments": min_experiments,
        "max_experiments": max_experiments,
        "batch_size": batch_size,
    }
    return {k: v for k, v in overrides.items() if v is not None}


#: Default stopping parameters for instruction-characterization probes
#: (``repro.characterize``).  Probe kernels are register-only — no memory
#: streams, so the noise floor is the baseline jitter alone — and the
#: solver differences pairs of probe readings, doubling their error.
#: A 1 % RCIW target converges in the minimum batch on a quiet machine
#: while still bounding the table's solve error well under one cycle.
PROBE_RCIW_TARGET = 0.01
PROBE_MIN_EXPERIMENTS = 3
PROBE_MAX_EXPERIMENTS = 32
PROBE_BATCH_SIZE = 4


def probe_stopping_defaults(
    rciw_target: float | None = None,
    min_experiments: int | None = None,
    max_experiments: int | None = None,
    batch_size: int | None = None,
) -> dict[str, object]:
    """Adaptive-stopping option overrides for characterization probes.

    Like :func:`adaptive_overrides`, but every unset knob falls back to
    the probe defaults above instead of staying untouched: a
    characterization campaign is always adaptive — fixed-count probes
    would spend the whole budget on configurations that converge in the
    first batch.
    """
    return {
        "rciw_target": PROBE_RCIW_TARGET if rciw_target is None else rciw_target,
        "min_experiments": (
            PROBE_MIN_EXPERIMENTS if min_experiments is None else min_experiments
        ),
        "max_experiments": (
            PROBE_MAX_EXPERIMENTS if max_experiments is None else max_experiments
        ),
        "batch_size": PROBE_BATCH_SIZE if batch_size is None else batch_size,
    }


def resample_indices(seed: int, n_samples: int) -> np.ndarray:
    """The shared bootstrap index matrix for ``n_samples`` observations.

    Shape ``(BOOTSTRAP_RESAMPLES, n_samples)``, values in
    ``[0, n_samples)``.  Keyed only by ``(|seed|, n_samples)`` so every
    configuration measured under one seed with the same sample count
    resamples identically — the property that makes adaptive convergence
    independent of batch composition and config order.  Campaign jobs
    each derive their own seed, so the cache serves the configurations
    of one job, never a later job.
    """
    key = (abs(seed), n_samples)
    indices = _RESAMPLE_CACHE.get(key)
    if indices is None:
        rng = np.random.default_rng(
            np.random.SeedSequence(
                (abs(seed), _BOOTSTRAP_STREAM_TAG, n_samples)
            )
        )
        indices = rng.integers(
            0, n_samples, size=(BOOTSTRAP_RESAMPLES, n_samples)
        )
        if len(_RESAMPLE_CACHE) >= _RESAMPLE_CACHE_MAX:
            _RESAMPLE_CACHE.clear()
        _RESAMPLE_CACHE[key] = indices
    return indices


def bootstrap_ci(
    samples: Sequence[float], seed: int
) -> tuple[float, float, float]:
    """Bootstrapped CI of the mean, clamped to bracket the sample mean.

    Returns ``(ci_low, ci_high, rciw)`` where ``rciw`` is the relative
    CI width ``(ci_high - ci_low) / mean``.  The percentile interval is
    clamped outward to include the sample mean so the reported bounds
    always bracket the reported statistic (a documented invariant, not a
    numerical accident — with few samples the percentile method can
    otherwise exclude the point estimate).
    """
    values = np.asarray(samples, dtype=np.float64)
    mean = float(values.mean())
    if len(values) < 2:
        return mean, mean, 0.0
    indices = resample_indices(seed, len(values))
    means = values[indices].mean(axis=1)
    means.partition(_CI_KTH)
    if np.isnan(means[-1]):
        # NaN sorts last, and numpy's percentile propagates it.
        lo, hi = np.percentile(means, _PERCENTILES)
    else:
        lo, hi = (
            _lerp(float(means[k]), float(means[k + 1]), t) for k, t in _CI_PLAN
        )
    ci_low = min(float(lo), mean)
    ci_high = max(float(hi), mean)
    if mean > 0.0:
        rciw = (ci_high - ci_low) / mean
    else:
        rciw = 0.0 if ci_high == ci_low else float("inf")
    return ci_low, ci_high, rciw


def run_adaptive_measurement_batch(
    requests: Sequence[MeasurementRequest],
    *,
    options: LauncherOptions,
    freq_ghz: float,
    tsc_ghz: float,
    noise: NoiseModel,
) -> list[Measurement]:
    """The Fig.-10 algorithm under the adaptive RCIW stopping rule.

    Runs an initial batch of ``min_experiments`` for every configuration,
    then rounds of ``batch_size`` for the configurations whose relative
    CI width still exceeds ``rciw_target`` — re-batched together through
    one :meth:`~repro.machine.noise.NoiseModel.perturb_batch` grid per
    round, never measured one at a time.  A configuration that never
    converges stops at ``max_experiments`` with ``converged=False``.

    Drop-in for :func:`~repro.launcher.measurement.run_measurement_batch`
    (which dispatches here whenever ``options.adaptive``); every returned
    record carries the quality fields ``ci_low`` / ``ci_high`` / ``rciw``
    / ``converged``, and its ``experiment_tsc`` prefix is bit-identical
    to what the fixed-count path produces for the same seed.
    """
    requests = list(requests)
    if not requests:
        return []
    env = NoiseEnvironment(
        pinned=options.pin,
        interrupts_disabled=options.disable_interrupts,
        warmed_up=options.warmup,
        inner_repetitions=options.repetitions,
    )
    budget = options.max_experiments

    # Overhead measurement: stream -1, one estimate for the whole batch —
    # exactly the fixed path's step 1.  Stream -1 and the whole
    # experiment budget are seeded once; each round perturbs its slice.
    streams = noise.streams(range(-1, budget))
    overhead_estimate_ns = 0.0
    if options.subtract_overhead:
        raw = options.repetitions * CALL_OVERHEAD_NS
        overhead_estimate_ns = float(
            noise.perturb_batch(np.array([raw]), env, streams[:1])[0]
        )

    # Ideal durations for the full budget up front; adaptive rounds slice
    # columns out of this grid.
    ideals = np.empty((len(requests), budget))
    for k, request in enumerate(requests):
        if request.per_experiment_ideal_ns is not None:
            per_experiment = list(request.per_experiment_ideal_ns)
            if len(per_experiment) < budget:
                raise ValueError(
                    f"per_experiment_ideal_ns has {len(per_experiment)} "
                    f"entries; adaptive stopping needs max_experiments "
                    f"({budget})"
                )
            ideals[k] = per_experiment[:budget]
        else:
            ideals[k] = request.ideal_call_ns
    durations_full = options.repetitions * (ideals + CALL_OVERHEAD_NS)

    # Cycles-per-iteration divisor per configuration; the bootstrap runs
    # on the headline metric, not raw TSC, so rciw_target means the same
    # thing across repetition/unroll settings.
    divisors = np.array(
        [options.repetitions * r.loop_iterations for r in requests],
        dtype=np.float64,
    )

    tsc_samples: list[list[float]] = [[] for _ in requests]
    quality: list[tuple[float, float, float, bool] | None] = [None] * len(
        requests
    )
    live = list(range(len(requests)))
    n_done = 0
    while live:
        step = options.min_experiments if n_done == 0 else options.batch_size
        step = min(step, budget - n_done)
        first_run_mask = np.arange(n_done, n_done + step) == 0
        durations = durations_full[np.array(live)][:, n_done : n_done + step]
        perturbed = noise.perturb_batch(
            durations,
            env,
            streams[1 + n_done : 1 + n_done + step],
            first_run_mask=first_run_mask,
        )
        tsc = np.maximum(perturbed - overhead_estimate_ns, 0.0) * tsc_ghz
        n_done += step

        still_live = []
        for row, cfg in enumerate(live):
            tsc_samples[cfg].extend(float(t) for t in tsc[row])
            cpi = np.asarray(tsc_samples[cfg]) / divisors[cfg]
            ci_low, ci_high, rciw = bootstrap_ci(cpi, noise.seed)
            converged = rciw <= options.rciw_target
            if converged or n_done >= budget:
                quality[cfg] = (ci_low, ci_high, rciw, converged)
                obs.count(
                    "stopping.converged" if converged else "stopping.capped"
                )
                obs.observe(
                    "stopping.experiments",
                    float(n_done),
                    bounds=EXPERIMENT_BUCKETS,
                )
            else:
                still_live.append(cfg)
        live = still_live

    results = []
    for k, request in enumerate(requests):
        ci_low, ci_high, rciw, converged = quality[k]  # type: ignore[misc]
        results.append(
            Measurement(
                kernel_name=request.kernel_name,
                label=options.label,
                trip_count=options.trip_count,
                repetitions=options.repetitions,
                loop_iterations=request.loop_iterations,
                elements_per_iteration=request.elements_per_iteration,
                n_memory_instructions=request.n_memory_instructions,
                experiment_tsc=tuple(tsc_samples[k]),
                freq_ghz=freq_ghz,
                tsc_ghz=tsc_ghz,
                aggregator=options.aggregator,
                alignments=request.alignments,
                core=request.core,
                n_cores=request.n_cores,
                bottleneck=request.bottleneck,
                metadata=dict(request.metadata or {}),
                ci_low=ci_low,
                ci_high=ci_high,
                rciw=rciw,
                converged=converged,
            )
        )
    return results
