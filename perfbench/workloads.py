"""The benchmark's workloads: real campaigns generated from a seed.

Every workload is a :class:`~repro.engine.Campaign` run through the
public engine API on the default sharded store.  The seed sets each
campaign's base ``noise_seed``; the engine sees only the campaign.

- ``unroll-sweep``: the paper's Fig. 11/12 family -- every variant of
  ``loadstore_family("movaps")`` and ``("movss")`` (1020 kernels) at the
  L1/L2/L3/RAM footprints, 8 fixed experiments, inline, cold store.
- ``option-grid``: three small-unroll variants per opcode over a
  trip_count x footprint x alignment grid, pooled on two workers, cold
  store.  One half measures 8 fixed experiments with stabilization on,
  the other stops adaptively (RCIW target, 3..64 experiments) with
  stabilization off.
- ``resume``: the ``option-grid`` campaign run inline against a store
  that set-up populated by running it pooled, so every job is a cache
  hit; the pass then aggregates the store's columns per
  (trip_count, footprint).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.engine import Campaign, CampaignRun, SweepSpec, open_result_cache
from repro.engine import generation as _generation
from repro.engine import runner as _runner
from repro.kernels.memkernels import loadstore_family
from repro.launcher import LauncherOptions
from repro.launcher import stopping as _stopping
from repro.launcher.csvout import read_csv
from repro.machine import MachineConfig, MemLevel, nehalem_2s_x5650
from repro.machine.noise import NoiseModel

#: The seed whose CSV digests ``ledger.json`` records.
DEFAULT_SEED = 1

OPCODES = ("movaps", "movss")
LEVELS = (MemLevel.L1, MemLevel.L2, MemLevel.L3, MemLevel.RAM)

#: option-grid axes (besides the four footprints).
TRIP_COUNTS = (256, 1024, 4096, 16384)
ALIGNMENTS = (0, 4, 8, 12, 16, 24, 32, 40, 48, 64, 96, 128)
#: Load-only, store-only and one mixed pair: small unrolls, so the
#: grid, not the kernel, sets the per-job cost.
SMALL_MIXES = ("L", "S", "LS")


def footprints(machine: MachineConfig) -> tuple[int, ...]:
    return tuple(machine.footprint_for(level) for level in LEVELS)


def unroll_sweep(machine: MachineConfig, seed: int) -> Campaign:
    base = LauncherOptions(experiments=8, noise_seed=seed)
    return Campaign(
        name="unroll-sweep",
        machine=machine,
        sweeps=tuple(
            SweepSpec(
                spec=loadstore_family(opcode),
                base=base,
                axes={"array_bytes": footprints(machine)},
                tags={"opcode": opcode},
            )
            for opcode in OPCODES
        ),
    )


def _small_variant(kernel) -> bool:
    return kernel.mix in SMALL_MIXES


def option_grid(machine: MachineConfig, seed: int) -> Campaign:
    fixed = LauncherOptions(experiments=8, noise_seed=seed)
    adaptive = LauncherOptions(
        rciw_target=0.1,
        min_experiments=3,
        max_experiments=64,
        pin=False,
        disable_interrupts=False,
        warmup=False,
        repetitions=1,
        noise_seed=seed,
    )
    axes = {
        "trip_count": TRIP_COUNTS,
        "array_bytes": footprints(machine),
        "alignment": ALIGNMENTS,
    }
    return Campaign(
        name="option-grid",
        machine=machine,
        sweeps=tuple(
            SweepSpec(
                spec=loadstore_family(opcode, unroll=(1, 2)),
                variant_filter=_small_variant,
                base=base,
                axes=axes,
                tags={"opcode": opcode, "half": half},
            )
            for opcode in OPCODES
            for half, base in (("fixed", fixed), ("adaptive", adaptive))
        ),
    )


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[MachineConfig, int], Campaign]
    #: Workers of the timed pass (1 = inline).
    workers: int
    #: Set-up runs the campaign pooled into the store first.
    populated: bool = False
    #: The timed pass ends with the per-(trip_count, footprint) aggregate.
    aggregates: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("unroll-sweep", unroll_sweep, workers=1),
        Workload("option-grid", option_grid, workers=2),
        Workload("resume", option_grid, workers=1, populated=True, aggregates=True),
    )
}


def build_campaign(workload: Workload, seed: int) -> Campaign:
    return workload.build(nehalem_2s_x5650(), seed)


def cold_process_memos() -> None:
    """Drop the per-process memos a freshly started process has not filled.

    Passes run back to back in one process; without this, a pass would
    reuse noise streams, normalized kernels and bootstrap matrices its
    predecessor computed.  Pool workers fork from this process, so they
    start cold too.
    """
    NoiseModel.clear_stream_cache()
    for module, name in (
        (_runner, "_SIM_MEMO"),
        (_generation, "_GEN_MEMO"),
        (_stopping, "_RESAMPLE_CACHE"),
    ):
        memo = getattr(module, name, None)
        if memo is not None:
            memo.clear()


def aggregate(run: CampaignRun, store_dir: Path) -> dict[tuple[int, int], float]:
    """Best cycles/iteration per (trip_count, footprint), from the store.

    Reads the store's columnar view (what a resumed analysis uses), not
    the in-memory measurements.
    """
    columns = open_result_cache(store_dir).columns()
    cpi = columns.cycles_per_iteration()
    groups: dict[tuple[int, int], int] = {}
    group_of_job: dict[str, int] = {}
    for job in run.jobs:
        key = (job.options.trip_count, job.options.array_bytes)
        group_of_job[job.job_id] = groups.setdefault(key, len(groups))
    index = np.fromiter(
        (group_of_job[job_id] for job_id in columns.job_ids.tolist()),
        dtype=np.int64,
        count=len(columns),
    )
    best = np.full(len(groups), np.inf)
    np.minimum.at(best, index, cpi)
    return {key: float(best[g]) for key, g in groups.items()}


def aggregate_reference(run: CampaignRun) -> dict[tuple[int, int], float]:
    """The same aggregate from the run's measurements (cross-check)."""
    best: dict[tuple[int, int], float] = {}
    for job, m in run.rows():
        key = (job.options.trip_count, job.options.array_bytes)
        best[key] = min(best.get(key, np.inf), m.cycles_per_iteration)
    return best


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def csv_problems(path: Path, run: CampaignRun, expected_rows: int) -> list[str]:
    """Why the pass's CSV is wrong, or ``[]`` when it is right."""
    problems = []
    rows = read_csv(path)
    if len(rows) != expected_rows:
        problems.append(f"{path.name}: {len(rows)} rows, expected {expected_rows}")
    trips = [job.options.trip_count for job, _m in run.rows()]
    if [row["trip_count"] for row in rows] != trips:
        problems.append(f"{path.name}: rows do not follow the campaign's job order")
    return problems
