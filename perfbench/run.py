#!/usr/bin/env python3
"""The repository benchmark: real campaigns timed from spec to CSV.

Run from the repository root::

    python3 perfbench/run.py --workload unroll-sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --trace 1

Each *pass* runs one campaign of the chosen workload through
``run_campaign`` on a sharded store and writes its CSV.  Before every
pass, *set-up* drops the process memos, builds the machine and the
campaign, gives the pass a fresh store (or, for ``resume``, populates
one) and spawns the worker pool for pooled passes.  Passes repeat until
``--seconds`` of timed work has been done.

``--trace 0`` reports the end-to-end metrics (tracing off):

- ``jobs_per_s``: jobs completed per second of ``run_campaign`` entry
  to CSV written (plus the store aggregate for ``resume``); median
  over passes.
- ``setup_s``: the median import time of fresh interpreters (at least
  ``IMPORT_SAMPLES``, timed across the run) plus the median set-up time
  of a pass.
- ``peak_rss_mb``: peak resident memory of this process during a pass;
  median over passes.
- ``completed_frac``: jobs completed / jobs attempted (1 - the
  quarantined share).

``--trace 1`` reports the per-layer breakdown instead: each round runs
an untraced inline pass and an inline pass with the timing wrappers of
``layers.py`` installed; ``option-grid`` adds one pooled pass with
``repro.obs`` enabled for the dispatch metrics.  Values are means over
rounds, so the layer self times plus ``unattributed.s`` equal
``traced_wall.s``.

Every pass is checked: the CSV parses, has one row per expected
measurement in job order, and at the default seed matches the digest in
``ledger.json``; ``resume`` must be all cache hits and reproduce the
populating run's CSV and aggregate; the traced inline ``option-grid``
CSV must equal the pooled one.  A failed check prints the problems on
stderr, reports ``correct: false`` without metrics and exits 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"

if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perfbench: {ROOT / 'src' / 'repro'} not found; run from a checkout")
sys.path.insert(0, str(ROOT / "src"))

from repro import obs  # noqa: E402
from repro.engine import (  # noqa: E402
    Campaign,
    CampaignRun,
    get_worker_pool,
    run_campaign,
    shutdown_worker_pool,
)

import workloads as wl  # noqa: E402
from layers import LAYERS, LayerTracer  # noqa: E402

IMPORT_S = time.perf_counter() - _STARTED

#: Fewest set-ups (each followed by its passes) per run.
MIN_SETUPS = 3
#: Fewest fresh interpreters whose import time ``setup_s`` takes the
#: median of, timed before set-ups spread over the run.
IMPORT_SAMPLES = 5

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "completed_frac": "frac",
}

PER_LAYER_UNITS = {
    **{f"{layer}.s": "s" for layer in LAYERS},
    "creator.variants": "count",
    "expand.jobs": "count",
    "hashing.options_digest.calls": "count",
    "hashing.kernel_digest.calls": "count",
    "launcher.calls": "count",
    "launcher.experiments": "count",
    "stopping.converged": "count",
    "stopping.capped": "count",
    "machine.kernel_model.calls": "count",
    "machine.pipeline.calls": "count",
    "machine.noise.calls": "count",
    "machine.sim_memo.hit_frac": "frac",
    "store.put.rows": "count",
    "store.get.calls": "count",
    "store.bytes": "bytes",
    "store.sealed_segments": "count",
    "cache.hit_frac": "frac",
    "serialize.calls": "count",
    "export.csv.bytes": "bytes",
    "dispatch.s": "s",
    "dispatch.chunks": "count",
    "dispatch.worker_busy_frac": "frac",
    "dispatch.pool.spawn": "count",
    "dispatch.pool.reuse": "count",
    "unattributed.s": "s",
    "traced_wall.s": "s",
    "untraced_wall.s": "s",
    "trace_overhead_frac": "frac",
    "failed_frac": "frac",
}


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS watermark for this process."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass  # the peak then spans the whole process lifetime


def peak_rss_mb() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def import_seconds() -> float:
    """Time a fresh interpreter takes to import this benchmark.

    A process imports once, so a run takes its import samples from
    children that each import this module and print its ``IMPORT_S``.
    """
    code = f"import sys; sys.path.insert(0, {str(HERE)!r}); import run; print(run.IMPORT_S)"
    child = subprocess.run(
        [sys.executable, "-c", code],
        check=True,
        capture_output=True,
        text=True,
        timeout=60,
    )
    return float(child.stdout)


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


@dataclass
class Setup:
    campaign: Campaign
    store: Path
    seconds: float
    #: The populating run's CSV and aggregate (``resume`` only).
    populated_csv: Path | None = None
    populated_best: dict | None = None


@dataclass
class Pass:
    run: CampaignRun
    csv: Path
    wall_s: float
    peak_rss_mb: float
    best: dict | None = None


@dataclass
class Bench:
    workload: wl.Workload
    seed: int
    ledger: dict
    problems: list[str] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    #: Digests of CSVs already parsed and checked.
    parsed: set[str] = field(default_factory=set)
    attempted: int = 0
    failed: int = 0

    @property
    def expected(self) -> dict:
        return self.ledger["workloads"][self.workload.name]

    # -- set-up and passes ---------------------------------------------

    def setup(self, workers: int) -> Setup:
        started = time.perf_counter()
        wl.cold_process_memos()
        campaign = wl.build_campaign(self.workload, self.seed)
        store = WORK / "store"
        shutil.rmtree(store, ignore_errors=True)
        store.mkdir(parents=True)
        populated = populated_csv = None
        if self.workload.populated:
            get_worker_pool(2)
            populated = run_campaign(campaign, jobs=2, cache_dir=store)
            populated_csv = populated.write_csv(WORK / "populated.csv")
            shutdown_worker_pool()
            wl.cold_process_memos()
        if workers > 1:
            get_worker_pool(workers)
        setup = Setup(campaign, store, time.perf_counter() - started, populated_csv)
        if populated is not None:
            self.check(populated, populated_csv, workers=2)
            setup.populated_best = wl.aggregate_reference(populated)
        return setup

    def run_pass(
        self,
        setup: Setup,
        workers: int,
        csv_name: str,
        tracer: LayerTracer | None = None,
    ) -> Pass:
        reset_peak_rss()
        started = time.perf_counter()
        run = run_campaign(setup.campaign, jobs=workers, cache_dir=setup.store)
        csv = run.write_csv(WORK / csv_name)
        best = None
        if self.workload.aggregates:
            with tracer.span("aggregate") if tracer else nullcontext():
                best = wl.aggregate(run, setup.store)
        wall = time.perf_counter() - started
        done = Pass(run, csv, wall, peak_rss_mb(), best)
        self.check(run, csv, workers=workers)
        if setup.populated_csv is not None:
            self.check_resume(setup, done)
        return done

    # -- checks ----------------------------------------------------------

    def problem(self, message: str) -> None:
        self.problems.append(f"{self.workload.name}: {message}")

    def check(self, run: CampaignRun, csv: Path, *, workers: int) -> None:
        self.attempted += run.stats.total_jobs
        self.failed += run.stats.failed
        digest = wl.sha256(csv)
        if digest not in self.parsed:  # identical bytes parse identically
            self.parsed.add(digest)
            for message in wl.csv_problems(csv, run, self.expected["shape"]["jobs"]):
                self.problem(message)
        if self.seed == wl.DEFAULT_SEED:
            if digest != self.expected["csv_sha256"]:
                self.problem(f"{csv.name} sha256 {digest} differs from ledger.json")
        if workers > 1 and run.stats.fell_back_inline:
            self.problem("the worker pool was unavailable; the pass ran inline")

    def check_resume(self, setup: Setup, done: Pass) -> None:
        stats = done.run.stats
        if stats.cache_hits != stats.total_jobs:
            self.problem(f"{stats.cache_hits}/{stats.total_jobs} cache hits, expected all")
        if done.csv.read_bytes() != setup.populated_csv.read_bytes():
            self.problem("resumed CSV differs from the cold option-grid CSV")
        if done.best != setup.populated_best:
            self.problem("store aggregate differs from the measurements' aggregate")

    # -- modes -------------------------------------------------------------

    def timed(self, seconds: float) -> dict:
        workers = self.workload.workers
        # Only numbers are kept: holding every pass's results would grow
        # the heap, and with it the later passes' RSS and GC time.
        rates: list[float] = []
        rss: list[float] = []
        setups: list[float] = []
        imports: list[float] = []
        measured = 0.0
        completed = attempted = 0
        while measured < seconds or len(setups) < MIN_SETUPS:
            if len(imports) * seconds <= IMPORT_SAMPLES * measured:
                imports.append(import_seconds())
            setup = self.setup(workers)
            setups.append(setup.seconds)
            while True:
                done = self.run_pass(setup, workers, "pass.csv")
                stats = done.run.stats
                rates.append(stats.completed / done.wall_s)
                rss.append(done.peak_rss_mb)
                measured += done.wall_s
                completed += stats.completed
                attempted += stats.total_jobs
                # A populated store is only read, and populating it costs
                # several passes' worth of time: each of the first
                # MIN_SETUPS set-ups gets its share of the run.
                if not self.workload.populated or (
                    measured >= seconds * len(setups) / MIN_SETUPS
                ):
                    break
            del setup, done
            shutdown_worker_pool()
        while len(imports) < IMPORT_SAMPLES:
            imports.append(import_seconds())
        return {
            "jobs_per_s": statistics.median(rates),
            "setup_s": statistics.median(imports) + statistics.median(setups),
            "peak_rss_mb": statistics.median(rss),
            "completed_frac": completed / attempted,
        }

    def traced(self, seconds: float) -> dict:
        rounds: list[dict] = []
        started = time.perf_counter()
        while not rounds or time.perf_counter() - started < seconds:
            rounds.append(self.traced_round())
        layer = {name: statistics.fmean(r[name] for r in rounds) for name in rounds[0]}
        layer["trace_overhead_frac"] = (
            layer["traced_wall.s"] / layer["untraced_wall.s"] - 1.0
        )
        layer.update(self.dispatch_metrics())
        return layer

    def traced_round(self) -> dict:
        setup = self.setup(1)
        untraced = self.run_pass(setup, 1, "untraced.csv")
        if not self.workload.populated:  # the traced pass needs a cold store
            setup = self.setup(1)
        tracer = LayerTracer()
        tracer.install()
        try:
            traced = self.run_pass(setup, 1, "traced.csv", tracer)
        finally:
            tracer.uninstall()
        if tracer.unbalanced:
            self.problem("a layer span was left open")
        stats = traced.run.stats
        store = tracer.opened[0].store
        self_s = {f"{name}.s": tracer.self_s[name] for name in LAYERS}
        unattributed = traced.wall_s - sum(self_s.values())
        if unattributed < 0:
            self.problem(f"layer self times exceed the traced wall by {-unattributed}s")
        return {
            **self_s,
            "creator.variants": tracer.items["creator"],
            "expand.jobs": tracer.items["expand"],
            "hashing.options_digest.calls": tracer.calls["hashing.options_digest"],
            "hashing.kernel_digest.calls": tracer.calls["hashing.kernel_digest"],
            "launcher.calls": tracer.calls["launcher"],
            "launcher.experiments": tracer.experiments,
            "stopping.converged": tracer.converged,
            "stopping.capped": tracer.capped,
            "machine.kernel_model.calls": tracer.calls["machine.kernel_model"],
            "machine.pipeline.calls": tracer.calls["machine.pipeline"],
            "machine.noise.calls": tracer.calls["machine.noise"],
            "machine.sim_memo.hit_frac": (
                1.0 - tracer.normalizations / stats.executed if stats.executed else 0.0
            ),
            "store.put.rows": tracer.items["store.put"],
            "store.get.calls": tracer.calls["store.get"],
            "store.bytes": tree_bytes(setup.store),
            "store.sealed_segments": sum(sealed for *_, sealed in store.segments()),
            "cache.hit_frac": stats.cache_hit_rate,
            "serialize.calls": tracer.calls["serialize"],
            "export.csv.bytes": traced.csv.stat().st_size,
            "unattributed.s": unattributed,
            "traced_wall.s": traced.wall_s,
            "untraced_wall.s": untraced.wall_s,
            "failed_frac": stats.failed / stats.total_jobs,
        }

    def dispatch_metrics(self) -> dict:
        """One pooled pass with ``repro.obs`` on (``option-grid`` only)."""
        names = [n for n in PER_LAYER_UNITS if n.startswith("dispatch.")]
        if self.workload.workers == 1:
            return dict.fromkeys(names, 0.0)
        session = obs.enable()
        try:
            setup = self.setup(self.workload.workers)
            pooled = self.run_pass(setup, self.workload.workers, "pooled.csv")
            shutdown_worker_pool()
            spans = session.tracer.records
            snapshot = session.metrics.snapshot()
        finally:
            obs.disable()
        if pooled.csv.read_bytes() != (WORK / "traced.csv").read_bytes():
            self.problem("traced inline CSV differs from the pooled CSV")
        dispatch_s = sum(
            s["duration_s"]
            for s in spans
            if s["name"] == "engine.dispatch" and s["attrs"].get("mode") == "pool"
        )
        return {
            "dispatch.s": dispatch_s,
            "dispatch.chunks": sum(s["name"] == "engine.chunk" for s in spans),
            "dispatch.worker_busy_frac": (
                snapshot["histograms"]["engine.job.duration_ms"]["total"]
                / 1000
                / (self.workload.workers * dispatch_s)
            ),
            "dispatch.pool.spawn": snapshot["counters"].get("engine.pool.spawn", 0),
            "dispatch.pool.reuse": snapshot["counters"].get("engine.pool.reuse", 0),
        }


def measure(name: str, seed: int, seconds: float, trace: bool) -> Bench:
    ledger = json.loads((HERE / "ledger.json").read_text())
    bench = Bench(wl.WORKLOADS[name], seed, ledger)
    try:
        bench.metrics = bench.traced(seconds) if trace else bench.timed(seconds)
    finally:
        shutdown_worker_pool()
        shutil.rmtree(WORK, ignore_errors=True)
    return bench


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=[*wl.WORKLOADS, "all"], default="all"
    )
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    problems: list[str] = []
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    lines: list[str] = []
    for name in names:
        bench = measure(name, args.seed, args.seconds, bool(args.trace))
        problems += bench.problems
        attempted += bench.attempted
        failed += bench.failed
        prefix = f"{name}/" if len(names) > 1 else ""
        for metric, unit in units.items():
            value = bench.metrics[metric]
            metrics[prefix + metric] = {"value": value, "unit": unit}
            lines.append(f"{name:>13}  {metric:<30} {value:>16.6g} {unit}")
    for message in problems:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    if not problems:
        print("\n".join(lines))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {} if problems else metrics,
    }
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
