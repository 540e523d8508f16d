"""Equivalence of generation paths: inline vs pooled, cold vs warm.

A run defers generation exactly when a pool is in play (``jobs > 1``):
pooled jobs carry :class:`KernelRef` descriptions that workers
regenerate, inline jobs carry the kernels rendered at expansion.  The
deferral machinery (KernelRef jobs, worker-side regeneration, the
persistent generation cache) is a pure transport optimization — every
combination of {inline, 2-worker pool, pool fallen back inline} x
{no cache, cold cache, warm cache} x chunk cap must produce
byte-identical result files.  These tests pin that contract.
"""

from __future__ import annotations

from repro.engine import (
    Campaign,
    KernelRef,
    SweepSpec,
    generation,
    open_generation_cache,
    run_campaign,
    runner,
)
from repro.engine.pool import PoolUnusable
from repro.kernels import loadstore_family
from repro.kernels.reduction import dot_product_spec
from repro.launcher import LauncherOptions
from repro.machine import nehalem_2s_x5650


def _campaign() -> Campaign:
    base = LauncherOptions(array_bytes=8 * 1024, trip_count=512, experiments=2)
    return Campaign(
        name="genmodes",
        machine=nehalem_2s_x5650(),
        sweeps=(
            SweepSpec(spec=dot_product_spec(2, unroll=(1, 2)), base=base),
            SweepSpec(spec=loadstore_family("movss", unroll=(1, 2)), base=base),
        ),
    )


def _result_bytes(tmp_path, tag, **kwargs):
    run = run_campaign(_campaign(), **kwargs)
    csv = run.write_csv(tmp_path / f"{tag}.csv")
    jsonl = run.write_jsonl(tmp_path / f"{tag}.jsonl")
    return csv.read_bytes(), jsonl.read_bytes()


class TestByteIdentical:
    def test_all_modes_agree(self, tmp_path):
        reference = _result_bytes(tmp_path, "ref", jobs=1)
        pool_dir = tmp_path / "pool-gencache"
        inline_dir = tmp_path / "inline-gencache"
        combos = [
            ("pool", dict(jobs=2)),
            ("pool-c1", dict(jobs=2, chunk_size=1)),
            ("pool-cold", dict(jobs=2, chunk_size=3, gen_cache_dir=pool_dir)),
            ("pool-warm", dict(jobs=2, chunk_size=3, gen_cache_dir=pool_dir)),
            ("inline-cold", dict(jobs=1, gen_cache_dir=inline_dir)),
            ("inline-warm", dict(jobs=1, gen_cache_dir=inline_dir)),
            # The pool's warm cache serves an inline run, and vice versa.
            ("inline-on-pool-cache", dict(jobs=1, gen_cache_dir=pool_dir)),
            ("pool-on-inline-cache", dict(jobs=2, gen_cache_dir=inline_dir)),
        ]
        for tag, kwargs in combos:
            assert _result_bytes(tmp_path, tag, **kwargs) == reference, tag

    def test_pool_fallback_resolves_refs_inline(self, tmp_path, monkeypatch):
        """A pooled run whose pool cannot start runs its deferred jobs
        inline: the parent resolves every KernelRef, and the bytes match."""
        reference = _result_bytes(tmp_path, "ref", jobs=1)

        def no_pool(_workers):
            raise PoolUnusable("no workers in this test")

        resolved: list[KernelRef] = []

        def counting_resolve(ref):
            resolved.append(ref)
            return generation.resolve_kernel_ref(ref)

        monkeypatch.setattr(runner, "get_worker_pool", no_pool)
        monkeypatch.setattr(runner, "resolve_kernel_ref", counting_resolve)
        # Start cold so every job has to regenerate its kernel here.
        monkeypatch.setattr(runner, "_SIM_MEMO", {})
        monkeypatch.setattr(generation, "_GEN_MEMO", {})
        run = run_campaign(_campaign(), jobs=2)
        assert run.stats.fell_back_inline
        assert run.stats.executed == len(run.jobs)
        assert all(isinstance(j.kernel, KernelRef) for j in run.jobs)
        assert {r.digest for r in resolved} == {j.kernel.digest for j in run.jobs}
        fallback = (
            run.write_csv(tmp_path / "fallback.csv").read_bytes(),
            run.write_jsonl(tmp_path / "fallback.jsonl").read_bytes(),
        )
        assert fallback == reference

    def test_warm_cache_round_trips_results(self, tmp_path):
        gen_dir = tmp_path / "gencache"
        cold = _result_bytes(tmp_path, "cold", jobs=1, gen_cache_dir=gen_dir)
        cache = open_generation_cache(gen_dir)
        assert len(cache) == 2  # one expansion per spec
        warm = _result_bytes(tmp_path, "warm", jobs=2, gen_cache=cache)
        assert warm == cold
        assert cache.stats.hits == 2


class TestDeferredJobs:
    def test_worker_mode_ships_refs(self):
        # job_list(defer=True) is what a pooled run (jobs > 1) expands.
        campaign = _campaign()
        plain = campaign.job_list()
        deferred = campaign.job_list(defer=True)
        assert [j.job_id for j in deferred] == [j.job_id for j in plain]
        assert all(isinstance(j.kernel, KernelRef) for j in deferred)
        assert not any(isinstance(j.kernel, KernelRef) for j in plain)

    def test_explicit_kernels_never_deferred(self):
        base = LauncherOptions(array_bytes=8 * 1024, trip_count=512)
        from repro.creator import MicroCreator

        kernels = tuple(MicroCreator().stream(dot_product_spec(2, unroll=(1, 1))))
        campaign = Campaign(
            name="explicit",
            machine=nehalem_2s_x5650(),
            sweeps=(SweepSpec(kernels=kernels, base=base),),
        )
        deferred = campaign.job_list(defer=True)
        assert not any(isinstance(j.kernel, KernelRef) for j in deferred)

    def test_variant_filter_respected_in_both_modes(self, tmp_path):
        base = LauncherOptions(array_bytes=8 * 1024, trip_count=512, experiments=2)

        def only_unroll_2(v) -> bool:
            return v.unroll == 2

        def build():
            return Campaign(
                name="filtered",
                machine=nehalem_2s_x5650(),
                sweeps=(
                    SweepSpec(
                        spec=loadstore_family("movss", unroll=(1, 2)),
                        base=base,
                        variant_filter=only_unroll_2,
                    ),
                ),
            )

        plain = build().job_list()
        deferred = build().job_list(defer=True)
        assert plain, "filter must keep some variants"
        assert [j.job_id for j in deferred] == [j.job_id for j in plain]
        run = run_campaign(build(), jobs=2)
        assert {m.kernel_name for m in run.measurements()} == {
            j.kernel.name for j in deferred
        }

