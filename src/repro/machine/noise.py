"""Environmental noise: the adversary MicroLauncher's stabilization fights.

Section 4.7 lists the launcher's stability measures: pin the experiment to
a core, disable interrupts, heat the instruction and data caches, repeat
the kernel in an inner loop, and repeat the measurement in an outer loop.
To make those measures *testable* in simulation, this module provides a
deterministic (seeded) noise process whose magnitude responds to exactly
those controls:

- unpinned runs suffer occasional migration spikes (large, rare),
- interrupt-enabled runs suffer periodic small spikes (timer ticks),
- cold-cache first measurements are inflated by the warm-up factor,
- every run carries a small baseline jitter that averages out over the
  inner-repetition loop (jitter scales as 1/sqrt(repetitions)).

With every control engaged, run-to-run spread collapses to the baseline —
the launcher's stability claim, reproduced as an assertable property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

#: Cached primitive draws per noise stream, keyed by ``(|seed|, experiment)``.
#:
#: A stream's first three draws — one standard normal, two uniforms — do
#: not depend on the duration being perturbed or on the environment, only
#: on the stream identity, so they can be drawn once and replayed for
#: every measurement that shares the stream.  Only callers that share one
#: noise seed hit it: a sweep measured call by call under one
#: ``NoiseModel`` seeds each stream once instead of once per
#: configuration.  Campaign jobs each derive their own seed, so their
#: streams never hit across jobs.
_STREAM_CACHE: dict[tuple[int, int], tuple[float, float, float]] = {}

#: Cache bound: cleared wholesale when full (campaign runs derive a fresh
#: seed per job, so unbounded growth is otherwise possible).
_STREAM_CACHE_MAX = 1 << 16

#: Offset of the experiment word in a stream's entropy
#: ``(|seed|, experiment + _STREAM_OFFSET)``: keeps the overhead slot
#: (experiment -1) non-negative.
_STREAM_OFFSET = 1_000_003

# ``numpy.random.SeedSequence``'s constants: the pool size in 32-bit
# words and the hash/mix multipliers of its entropy pool.
_POOL_SIZE = 4
_MASK32 = 0xFFFF_FFFF
_XSHIFT = 16
_INIT_A = 0x43B0_D7E5
_MULT_A = 0x931E_8875
_INIT_B = 0x8B51_F9DD
_MULT_B = 0x58F3_8DED
_MIX_MULT_L = 0xCA01_F9DD
_MIX_MULT_R = 0x4973_F715


def _hash_constants(
    init: int, mult: int, calls: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The (xor, multiply) constants of ``calls`` successive hash steps.

    ``SeedSequence`` threads one running hash constant through its hash
    steps: each step xors the value with the constant, advances the
    constant by ``mult`` and multiplies by the advanced constant.  The
    schedule never depends on the data, so it is computed once.
    """
    xors, mults = [], []
    for _ in range(calls):
        xors.append(init)
        init = (init * mult) & _MASK32
        mults.append(init)
    return tuple(xors), tuple(mults)


# Pool fill (one step per pool word), then the all-pairs mixing.
_POOL_XOR, _POOL_MUL = _hash_constants(
    _INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE
)


def _mix_columns(constants: tuple[int, ...]) -> np.ndarray:
    """Mixing-step constants as uint32 columns, one per source word.

    Source word ``src`` mixes into every other pool word, in index
    order; its own row holds a placeholder, since it is never mixed into
    itself.
    """
    rows = []
    for src in range(_POOL_SIZE):
        first = _POOL_SIZE + src * (_POOL_SIZE - 1)
        row = list(constants[first : first + _POOL_SIZE - 1])
        row.insert(src, 0)
        rows.append(row)
    return np.array(rows, dtype=np.uint32)[:, :, None]


_FILL_XOR, _FILL_MUL = (
    np.array(c[:_POOL_SIZE], dtype=np.uint32)[:, None]
    for c in (_POOL_XOR, _POOL_MUL)
)
_MIX_XOR, _MIX_MUL = _mix_columns(_POOL_XOR), _mix_columns(_POOL_MUL)

# generate_state(4, uint64): eight output words.
_STATE_XOR, _STATE_MUL = (
    np.array(c, dtype=np.uint32)[:, None]
    for c in _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
)


def seed_states(seed: int, words: Sequence[int]) -> np.ndarray:
    """``SeedSequence`` state words of many streams, in one vectorized pass.

    Row ``i`` of the ``(len(words), 4)`` uint64 result equals
    ``np.random.SeedSequence((seed, words[i])).generate_state(4,
    np.uint64)`` bit for bit.  When the seed and every word fit 32 bits,
    the entropy pool's hashing and mixing run as uint32 array math over
    all streams at once (the hash constants never depend on the data).
    Anything else goes through ``SeedSequence`` itself, stream by stream.
    """
    n = len(words)
    if n == 0:
        return np.empty((0, _POOL_SIZE), dtype=np.uint64)
    if not (0 <= seed <= _MASK32 and min(words) >= 0 and max(words) <= _MASK32):
        seed_sequence = np.random.SeedSequence
        return np.array(
            [
                seed_sequence((seed, word)).generate_state(4, np.uint64)
                for word in words
            ],
            dtype=np.uint64,
        )

    # Fill the pool with the two entropy words and zeros, each hashed.
    pool = np.zeros((_POOL_SIZE, n), dtype=np.uint32)
    pool[0] = seed
    pool[1] = words
    pool ^= _FILL_XOR
    pool *= _FILL_MUL
    pool ^= pool >> _XSHIFT

    # Mix every pool word into every other one: all rows at once, then
    # the source row is put back.
    for src in range(_POOL_SIZE):
        hashed = pool[src] ^ _MIX_XOR[src]
        hashed *= _MIX_MUL[src]
        hashed ^= hashed >> _XSHIFT
        mixed = pool * np.uint32(_MIX_MULT_L)
        mixed -= hashed * np.uint32(_MIX_MULT_R)
        mixed ^= mixed >> _XSHIFT
        mixed[src] = pool[src]
        pool = mixed

    # generate_state: cycle the pool through the output hash.
    state = np.concatenate((pool, pool))
    state ^= _STATE_XOR
    state *= _STATE_MUL
    state ^= state >> _XSHIFT
    return (
        np.ascontiguousarray(state.T)
        .astype("<u4", copy=False)
        .view("<u8")
        .astype(np.uint64, copy=False)
    )


class _StateWords:
    """A seed sequence that replays one stream's precomputed state words.

    Registered as a ``numpy.random.bit_generator.ISeedSequence`` on first
    use, so ``PCG64`` seeds itself from the words directly.
    """

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(
        self, n_words: int, dtype: object = np.uint32
    ) -> np.ndarray:
        if n_words != _POOL_SIZE or np.dtype(dtype) != np.uint64:
            raise ValueError("precomputed state words serve PCG64 seeding only")
        return self.words


def _generators(states: np.ndarray) -> list[np.random.Generator]:
    """One ``Generator(PCG64)`` per row of ``seed_states`` output."""
    # ``np.random`` is imported on first access: processes that never
    # draw (the parent of a pooled campaign) never load it.
    random = np.random
    random.bit_generator.ISeedSequence.register(_StateWords)
    generator, pcg64 = random.Generator, random.PCG64
    return [generator(pcg64(_StateWords(words))) for words in states]


class NoiseStreams:
    """One noise model's per-experiment streams, seeded in bulk.

    Iterates as the experiment indices it was built for, so it can stand
    wherever :meth:`NoiseModel.perturb_batch` takes ``experiments``; a
    slice shares the precomputed state words.  Build one with
    :meth:`NoiseModel.streams` to seed a whole experiment budget once and
    hand each batch of experiments its slice.
    """

    __slots__ = ("seed", "experiments", "states")

    def __init__(
        self, seed: int, experiments: tuple[int, ...], states: np.ndarray
    ) -> None:
        self.seed = seed
        self.experiments = experiments
        self.states = states

    def __len__(self) -> int:
        return len(self.experiments)

    def __iter__(self) -> Iterator[int]:
        return iter(self.experiments)

    def __getitem__(self, index: slice) -> NoiseStreams:
        return NoiseStreams(
            self.seed, self.experiments[index], self.states[index]
        )

    def generators(
        self, rows: Sequence[int] | None = None
    ) -> list[np.random.Generator]:
        """Fresh generators for every stream, or for the given rows."""
        return _generators(self.states if rows is None else self.states[rows])


@dataclass(frozen=True, slots=True)
class NoiseEnvironment:
    """Which stabilization measures are in effect for a measurement."""

    pinned: bool = True
    interrupts_disabled: bool = True
    warmed_up: bool = True
    inner_repetitions: int = 1

    def stabilized(self) -> bool:
        return self.pinned and self.interrupts_disabled and self.warmed_up


@dataclass(frozen=True, slots=True)
class NoiseModel:
    """Deterministic noise generator.

    Magnitudes are multiplicative factors applied to a measured duration;
    they are deliberately large enough that an unstabilized measurement is
    *obviously* unstable (the paper's motivation for MicroLauncher) and a
    stabilized one is repeatable to a fraction of a percent.
    """

    seed: int = 12345
    baseline_jitter: float = 0.004          # 0.4 % 1-sigma, per measurement
    migration_probability: float = 0.15     # unpinned: chance of a spike
    migration_magnitude: float = 0.25       # ... costing up to +25 %
    interrupt_rate_per_ms: float = 1.0      # timer ticks while unmasked
    interrupt_cost_us: float = 8.0          # each tick steals ~8 us
    cold_start_factor: float = 1.6          # first run without warm-up

    def rng_for(self, experiment: int) -> np.random.Generator:
        """Independent, reproducible stream per outer-loop experiment.

        The stream is ``default_rng(SeedSequence((|seed|, experiment +
        1_000_003)))``; ``experiment`` may be negative (the
        overhead-measurement slot is conventionally -1), and seed
        material must be non-negative.
        """
        return self.streams((experiment,)).generators()[0]

    def streams(self, experiments: Sequence[int]) -> NoiseStreams:
        """The streams of ``experiments``, seeded in one vectorized pass.

        Stream ``i`` is ``rng_for(experiments[i])``.  Streams this model
        already seeded are returned as they are.
        """
        seed = abs(self.seed)
        if isinstance(experiments, NoiseStreams) and experiments.seed == seed:
            return experiments
        experiments = tuple(map(int, experiments))
        words = [e + _STREAM_OFFSET for e in experiments]
        return NoiseStreams(seed, experiments, seed_states(seed, words))

    def perturb(
        self,
        duration_ns: float,
        env: NoiseEnvironment,
        experiment: int,
        *,
        first_run: bool = False,
    ) -> float:
        """Apply the environment's noise to an ideal duration."""
        rng = self.rng_for(experiment)
        reps = max(1, env.inner_repetitions)
        # Baseline jitter averages down with the inner-loop length: the
        # stated purpose of the inner loop (section 4, "augments the
        # evaluation time of the kernel, further stabilizing the results").
        jitter_sigma = self.baseline_jitter / np.sqrt(reps)
        factor = 1.0 + rng.normal(0.0, jitter_sigma)
        if not env.pinned and rng.random() < self.migration_probability:
            factor += rng.random() * self.migration_magnitude
        if not env.interrupts_disabled:
            expected_ticks = (duration_ns / 1e6) * self.interrupt_rate_per_ms
            ticks = rng.poisson(max(expected_ticks, 0.0))
            duration_ns += ticks * self.interrupt_cost_us * 1e3
        if first_run and not env.warmed_up:
            factor *= self.cold_start_factor
        return duration_ns * max(factor, 0.5)

    # ------------------------------------------------------------------ #
    # vectorized fast path                                                 #
    # ------------------------------------------------------------------ #

    @staticmethod
    def clear_stream_cache() -> None:
        """Drop cached stream primitives (benchmarks time cold starts)."""
        _STREAM_CACHE.clear()

    def _stream_primitives(
        self, experiments: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The first three draws of each experiment's stream, cached.

        ``numpy`` seeds every stream independently, so draws taken past
        the ones a given environment consumes never change the earlier
        values — caching one normal and two uniforms per stream serves
        every interrupt-masked environment, pinned or not.  The streams
        missing from the cache are seeded together.
        """
        seed_key = abs(self.seed)
        keys = [(seed_key, int(e)) for e in experiments]
        primitives = [_STREAM_CACHE.get(key) for key in keys]
        missing = [i for i, p in enumerate(primitives) if p is None]
        if missing:
            generators = self.streams(experiments).generators(missing)
            for i, rng in zip(missing, generators):
                drawn = (
                    float(rng.standard_normal()),
                    float(rng.random()),
                    float(rng.random()),
                )
                if len(_STREAM_CACHE) >= _STREAM_CACHE_MAX:
                    _STREAM_CACHE.clear()
                _STREAM_CACHE[keys[i]] = drawn
                primitives[i] = drawn
        table = np.array(primitives, dtype=np.float64).reshape(len(keys), 3)
        return table[:, 0], table[:, 1], table[:, 2]

    def perturb_batch(
        self,
        durations_ns: object,
        env: NoiseEnvironment,
        experiments: Sequence[int],
        first_run_mask: object = None,
    ) -> np.ndarray:
        """Vectorized :meth:`perturb`: one call for many experiments.

        ``durations_ns`` is an array whose *last* axis aligns with
        ``experiments`` — pass shape ``(n_experiments,)`` for one
        configuration or ``(n_configs, n_experiments)`` for a whole sweep
        sharing this noise model.  ``first_run_mask`` (aligned with
        ``experiments``) marks which experiments are a configuration's
        first run.  Every element of the result is bit-identical to the
        corresponding sequential call
        ``perturb(durations_ns[..., i], env, experiments[i], first_run=first_run_mask[i])``
        — the per-experiment stream definition is frozen API, and the
        vectorized arithmetic replays the scalar operation order exactly.
        """
        durations = np.array(durations_ns, dtype=np.float64, ndmin=1)
        n = len(experiments)
        if durations.shape[-1] != n:
            raise ValueError(
                f"durations last axis ({durations.shape[-1]}) must match "
                f"the number of experiments ({n})"
            )
        reps = max(1, env.inner_repetitions)
        jitter_sigma = self.baseline_jitter / np.sqrt(reps)

        if env.interrupts_disabled:
            # No duration-dependent draw: the whole stream prefix is
            # cacheable and the math is pure array arithmetic.
            z, u1, u2 = self._stream_primitives(experiments)
            factors = 1.0 + jitter_sigma * z
            if not env.pinned:
                factors = np.where(
                    u1 < self.migration_probability,
                    factors + u2 * self.migration_magnitude,
                    factors,
                )
        else:
            # The poisson tick count depends on each duration, so the
            # streams must be consumed live, in scalar draw order.
            generators = self.streams(experiments).generators()
            # 1.0 + sigma * z is bit-identical to rng.normal(0.0, sigma).
            sigma = float(jitter_sigma)
            factors = []
            for rng in generators:
                factor = 1.0 + sigma * rng.standard_normal()
                if not env.pinned and rng.random() < self.migration_probability:
                    factor += rng.random() * self.migration_magnitude
                factors.append(factor)
            factors = np.array(factors)
            rows = durations.reshape(-1, n)
            expected = np.maximum(
                rows / 1e6 * self.interrupt_rate_per_ms, 0.0
            ).tolist()
            ticks = np.empty(rows.shape)
            # Each configuration perturbs with a *fresh* generator in the
            # sequential path; replay that by restoring the post-prefix
            # state for every configuration after the first.
            for i, rng in enumerate(generators):
                state = rng.bit_generator.state if len(rows) > 1 else None
                for k, row in enumerate(expected):
                    if k:
                        rng.bit_generator.state = state
                    ticks[k, i] = rng.poisson(row[i])
            ticks = ticks.reshape(durations.shape)
            durations = durations + ticks * self.interrupt_cost_us * 1e3

        if first_run_mask is not None and not env.warmed_up:
            mask = np.asarray(first_run_mask, dtype=bool)
            factors = np.where(mask, factors * self.cold_start_factor, factors)
        return durations * np.maximum(factors, 0.5)
