"""Process memos of the measurement hot path, and what importing it costs.

Benchmarks start every pass cold by calling
``NoiseModel.clear_stream_cache()`` and ``_RESAMPLE_CACHE.clear()``; a
module-level memo those two calls miss would let a pass reuse its
predecessor's work.  The parent of a pooled campaign never draws random
numbers, so importing the engine must not load ``numpy.random`` (nor
``numpy.ma``) into it.
"""

import functools
import subprocess
import sys
from pathlib import Path

import repro
from repro.launcher import LauncherOptions, MeasurementRequest
from repro.launcher import measurement, stopping
from repro.launcher.measurement import run_measurement_batch
from repro.machine import noise
from repro.machine.noise import NoiseModel

_MUTABLE = (dict, list, set, bytearray)


def _fill_memos():
    requests = [
        MeasurementRequest(
            ideal_call_ns=500.0 + 40.0 * k,
            kernel_name=f"k{k}",
            loop_iterations=64,
            elements_per_iteration=4,
            n_memory_instructions=1,
        )
        for k in range(3)
    ]
    for options in (
        LauncherOptions(experiments=6),
        LauncherOptions(rciw_target=1e-6, max_experiments=12),
        LauncherOptions(
            rciw_target=1e-6, max_experiments=12, disable_interrupts=False
        ),
    ):
        run_measurement_batch(
            requests,
            options=options,
            freq_ghz=2.67,
            tsc_ghz=2.66,
            noise=NoiseModel(seed=4242),
        )


def _memos(module):
    """Every module-level mutable container or functools cache."""
    for name, value in vars(module).items():
        if name.startswith("__"):
            continue
        if isinstance(value, _MUTABLE):
            yield name, len(value)
        elif isinstance(value, functools._lru_cache_wrapper):
            yield name, value.cache_info().currsize


def test_clearing_two_caches_leaves_every_memo_empty():
    _fill_memos()
    assert noise._STREAM_CACHE and stopping._RESAMPLE_CACHE
    NoiseModel.clear_stream_cache()
    stopping._RESAMPLE_CACHE.clear()
    for module in (noise, stopping, measurement):
        filled = {name: size for name, size in _memos(module) if size}
        assert not filled, f"{module.__name__} keeps {filled}"


def test_engine_import_leaves_numpy_random_unloaded():
    src = Path(repro.__file__).resolve().parent.parent
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import repro.engine, repro.launcher, repro.machine; "
        "print(sorted(m for m in ('numpy.random', 'numpy.ma') if m in sys.modules))"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", code, str(src)],
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()
    assert loaded == "[]"
