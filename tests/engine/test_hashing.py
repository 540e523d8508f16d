"""Content-hash tests: job IDs must track measured content, nothing else."""

import dataclasses
import enum
import hashlib
import json

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from repro.engine import (
    job_id_for,
    kernel_digest,
    machine_digest,
    options_digest,
)
from repro.engine.serialize import EncodedOptions
from repro.launcher import LauncherOptions
from repro.machine import nehalem_2s_x5650, sandy_bridge_e31240
from repro.machine.config import MemLevel


class TestKernelDigest:
    def test_same_kernel_same_digest(self, movaps_u8):
        assert kernel_digest(movaps_u8) == kernel_digest(movaps_u8)

    def test_different_variants_differ(self, movaps_variants):
        digests = {kernel_digest(k) for k in movaps_variants}
        assert len(digests) == len(movaps_variants)

    def test_path_digest_matches_text(self, movaps_u8, tmp_path):
        """A kernel written to disk hashes the same as the in-memory one."""
        path = movaps_u8.write(tmp_path)
        assert kernel_digest(path) == kernel_digest(movaps_u8)


class TestKernelDigestMemo:
    def test_memoized_matches_unmemoized(self, movaps_variants):
        """The memo is a cache, not a different hash.

        Each variant is hashed twice — the first call computes and
        memoizes, the second returns the memo — and both must equal a
        from-scratch digest of the rendered text, which is what the
        unmemoized path hashes.
        """
        from repro.engine.hashing import _sha

        for kernel in movaps_variants:
            first = kernel_digest(kernel)
            assert kernel_digest(kernel) == first  # memo path
            assert first == _sha(kernel.asm_text(full_file=True))

    def test_memo_lands_on_the_kernel(self, movaps_u8):
        digest = kernel_digest(movaps_u8)
        assert getattr(movaps_u8, "_digest_memo", None) == digest

    def test_preset_memo_is_trusted(self, movaps_u8):
        """CachedVariant-style objects carry their digest up front."""

        class Carrier:
            _digest_memo = "feedc0de" * 8

        assert kernel_digest(Carrier()) == Carrier._digest_memo


class TestCreatorOptionsDigest:
    def test_none_digests_like_defaults(self):
        from repro.creator import CreatorOptions
        from repro.engine import creator_options_digest

        assert creator_options_digest(None) == creator_options_digest(
            CreatorOptions()
        )

    def test_any_field_changes_it(self):
        from repro.creator import CreatorOptions
        from repro.engine import creator_options_digest

        base = creator_options_digest(CreatorOptions())
        assert base != creator_options_digest(CreatorOptions(seed=7))
        assert base != creator_options_digest(CreatorOptions(max_benchmarks=3))


class TestOptionsDigest:
    def test_stable(self):
        a = LauncherOptions(trip_count=1024)
        b = LauncherOptions(trip_count=1024)
        assert options_digest(a) == options_digest(b)

    def test_any_field_changes_it(self):
        base = LauncherOptions()
        assert options_digest(base) != options_digest(base.with_(trip_count=7))
        assert options_digest(base) != options_digest(base.with_(aggregator="mean"))


class TestJobId:
    def test_every_component_matters(self, movaps_u8):
        k = kernel_digest(movaps_u8)
        o = options_digest(LauncherOptions())
        m1 = machine_digest(nehalem_2s_x5650())
        m2 = machine_digest(sandy_bridge_e31240())
        base = job_id_for(k, o, m1, "sequential")
        assert base == job_id_for(k, o, m1, "sequential")
        assert base != job_id_for(k, o, m2, "sequential")
        assert base != job_id_for(k, o, m1, "forked")
        assert base != job_id_for(o, k, m1, "sequential")

    def test_id_is_short_hex(self, movaps_u8):
        job_id = job_id_for(
            kernel_digest(movaps_u8),
            options_digest(LauncherOptions()),
            machine_digest(nehalem_2s_x5650()),
            "sequential",
        )
        assert len(job_id) == 16
        int(job_id, 16)  # parses as hex


# -- pinned identity --------------------------------------------------------
#
# Literal digests computed by the options encoder that preceded the
# per-field one: job IDs key every stored result and seed every noise
# stream, so these values must never move.

_KERNEL_TEXT = (
    ".text\nloop:\n  movaps (%rsi), %xmm0\n  add $16, %rsi\n"
    "  sub $1, %rdi\n  jnz loop\n  ret\n"
)
_ADAPTIVE_GRID_BASE = LauncherOptions(
    rciw_target=0.1,
    min_experiments=3,
    max_experiments=64,
    pin=False,
    disable_interrupts=False,
    warmup=False,
    repetitions=1,
    noise_seed=1,
)
_GRID_POINT = {"trip_count": 1024, "array_bytes": 262144, "alignment": 24}
_PINNED = {
    "default": (
        LauncherOptions(),
        "a647f29a0733c11548e92752d0617412974dfa2b6dd4f2dde0fa0093cce5a085",
        "66aed85b6afa356a",
    ),
    "adaptive_grid": (
        _ADAPTIVE_GRID_BASE.with_(**_GRID_POINT),
        "a2ee1a2633b734627c5cfb2b5c020b352deda27c3d1186f0e2575336d40f7ab0",
        "be68cfee5a9bbda0",
    ),
    "per_vector": (
        LauncherOptions(
            alignments=(0, 64, 128),
            array_bytes_per_vector=(4096, 65536),
            residence_per_vector=(MemLevel.L1, None, MemLevel.RAM),
        ),
        "4da5105fd9c6b1b3ca60305de44a63ea7551c15c1ea306815af592bf665444f0",
        "01341df25d02ecd6",
    ),
    "residence": (
        LauncherOptions(residence=MemLevel.L2, frequency_ghz=2.67),
        "b4d3d39164a024bf19399480402062439afe30350a9262939a6de9286039b0a9",
        "1fd858ec1e4616b0",
    ),
    "negative_seed": (
        LauncherOptions(noise_seed=-7, label="neg"),
        "20aa49c08686f8ada023b904a64047465bf02ffb44887859eda00a7bdd7567b2",
        "fb98fa5c500bd617",
    ),
}


class TestPinnedIdentity:
    @pytest.mark.parametrize("case", sorted(_PINNED))
    def test_options_digest_and_job_id(self, case):
        options, digest, job_id = _PINNED[case]
        assert options_digest(options) == digest
        kernel = kernel_digest(_KERNEL_TEXT)
        assert kernel == (
            "afd3c123f7c6fa4af410cf207a4670a65dfcd533d6d41dd05ad430047a800b95"
        )
        machine = machine_digest(nehalem_2s_x5650())
        assert machine == (
            "7f2e10c206120ae762775fb4a9104d548c5170357e106284f3f3800fe509cb73"
        )
        assert job_id_for(kernel, digest, machine, "sequential") == job_id

    def test_sweep_expansion_keeps_the_pinned_ids(self):
        """The per-sweep base encoding yields the same IDs as a full encode."""
        from repro.engine import Campaign, SweepSpec

        campaign = Campaign(
            name="pinned",
            machine=nehalem_2s_x5650(),
            sweeps=(
                SweepSpec(
                    kernels=(_KERNEL_TEXT,),
                    base=_ADAPTIVE_GRID_BASE,
                    axes={k: (v,) for k, v in _GRID_POINT.items()},
                ),
            ),
        )
        (job,) = campaign.job_list()
        assert job.job_id == _PINNED["adaptive_grid"][2]


# -- the per-field encoder against the one it replaced -----------------------


def _reference_json_safe(value):
    """Verbatim copy of ``repro.engine.serialize._json_safe``."""
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, (list, tuple)):
        return [_reference_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _reference_json_safe(v) for k, v in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


_REFERENCE_DEFAULT_FIELDS = (
    "rciw_target",
    "min_experiments",
    "max_experiments",
    "batch_size",
)


def _reference_options_to_dict(options):
    """Verbatim copy of the earlier ``options_to_dict``."""
    defaults = {
        f.name: f.default
        for f in dataclasses.fields(LauncherOptions)
        if f.name in _REFERENCE_DEFAULT_FIELDS
    }
    return {
        f.name: _reference_json_safe(getattr(options, f.name))
        for f in dataclasses.fields(LauncherOptions)
        if f.name not in defaults
        or getattr(options, f.name) != defaults[f.name]
    }


def _reference_digest(options) -> str:
    canonical = json.dumps(
        _reference_options_to_dict(options), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


#: Values that compare equal but encode differently: 1 == True == 1.0,
#: 0 == False == 0.0 == -0.0.
_ONES = st.sampled_from([1, True, 1.0])
_ZEROS = st.sampled_from([0, False, 0.0, -0.0])
_AT_LEAST_1 = st.one_of(_ONES, st.integers(1, 2**40))
_ANY_INT = st.one_of(_ONES, _ZEROS, st.integers(-(2**63), 2**63))
_FLAG = st.sampled_from([True, False, 1, 0, 1.0, 0.0, -0.0])
_FLOAT = st.one_of(
    _ONES, _ZEROS, st.floats(allow_nan=True, allow_infinity=True)
)
_LEVEL = st.one_of(st.none(), st.sampled_from(list(MemLevel)))

_FIELD_VALUES = {
    "function_name": st.one_of(st.none(), st.text(max_size=8)),
    "nbvectors": st.one_of(st.none(), _AT_LEAST_1),
    "trip_count": _AT_LEAST_1,
    "array_bytes": _ANY_INT,
    "array_bytes_per_vector": st.lists(_ANY_INT, max_size=3).map(tuple),
    "element_size": _AT_LEAST_1,
    "residence": _LEVEL,
    "residence_per_vector": st.lists(_LEVEL, max_size=3).map(tuple),
    "alignment": _ANY_INT,
    "alignments": st.lists(_ANY_INT, max_size=3).map(tuple),
    "alignment_min": _ANY_INT,
    "alignment_max": _ANY_INT,
    "alignment_step": _AT_LEAST_1,
    "max_alignment_configs": _ANY_INT,
    "residence_mode": st.sampled_from(["footprint", "trace"]),
    "eval_library": st.sampled_from(["rdtsc", "events"]),
    "repetitions": _AT_LEAST_1,
    "experiments": _AT_LEAST_1,
    "rciw_target": st.one_of(
        _ZEROS, _ONES, st.floats(min_value=0.0, max_value=10.0)
    ),
    "min_experiments": st.one_of(_ONES, st.integers(1, 3)),
    "max_experiments": st.one_of(st.sampled_from([64, 64.0]), st.integers(3, 200)),
    "batch_size": st.one_of(_ONES, st.sampled_from([8, 8.0]), st.integers(1, 64)),
    "warmup": _FLAG,
    "subtract_overhead": _FLAG,
    "aggregator": st.sampled_from(["min", "median", "mean"]),
    "pin": _FLAG,
    "core": _ANY_INT,
    "pin_policy": st.sampled_from(["scatter", "compact"]),
    "disable_interrupts": _FLAG,
    "noise_seed": _ANY_INT,
    "frequency_ghz": st.one_of(st.none(), _FLOAT),
    "n_cores": _ANY_INT,
    "omp_threads": _ANY_INT,
    "omp_region_overhead_ns": _FLOAT,
    "sync_start": _FLAG,
    "csv_path": st.one_of(st.none(), st.text(max_size=8)),
    "csv_full": _FLAG,
    "label": st.text(max_size=8),
}


def test_strategies_cover_every_field():
    assert set(_FIELD_VALUES) == {
        f.name for f in dataclasses.fields(LauncherOptions)
    }


_option_kwargs = st.fixed_dictionaries({}, optional=_FIELD_VALUES)


def _options_or_reject(base, changes):
    try:
        return base.with_(**changes)
    except ValueError:
        reject()


@settings(max_examples=300, deadline=None)
@given(kwargs=_option_kwargs)
@example(kwargs={"trip_count": True, "alignment": -0.0, "rciw_target": -0.0})
@example(kwargs={"rciw_target": 0, "batch_size": 8.0, "max_experiments": 64.0})
@example(kwargs={"pin": 1, "warmup": 1.0, "noise_seed": -1, "frequency_ghz": float("nan")})
def test_full_encoding_matches_the_earlier_digest(kwargs):
    options = _options_or_reject(LauncherOptions(), kwargs)
    assert options_digest(options) == _reference_digest(options)


@settings(max_examples=300, deadline=None)
@given(base=_option_kwargs, overrides=_option_kwargs)
@example(base={"trip_count": 1}, overrides={"trip_count": True})
@example(base={"alignment": 0.0}, overrides={"alignment": -0.0})
@example(base={"rciw_target": 0.1}, overrides={"rciw_target": 0.0})
@example(base={}, overrides={"max_experiments": 64.0, "noise_seed": -3})
def test_sweep_encoding_matches_the_earlier_digest(base, overrides):
    """A base encoded once plus per-point overrides digests like a full
    encode of the point, including overrides that equal the base value
    under ``==`` but not in type."""
    base_options = _options_or_reject(LauncherOptions(), base)
    options = _options_or_reject(base_options, overrides)
    encoded = EncodedOptions(base_options)
    assert options_digest(options, encoded, overrides) == _reference_digest(options)
    # The template is not consumed: the base still encodes as itself.
    assert options_digest(base_options, encoded) == _reference_digest(base_options)


class TestWith:
    def test_matches_dataclasses_replace(self):
        base = _ADAPTIVE_GRID_BASE
        changes = {"trip_count": 7, "residence": MemLevel.L3, "label": "x"}
        assert base.with_(**changes) == dataclasses.replace(base, **changes)
        assert base.with_() == base

    def test_unknown_field_rejected(self):
        with pytest.raises(TypeError):
            LauncherOptions().with_(no_such_field=1)

    def test_copy_is_validated(self):
        with pytest.raises(ValueError, match="trip_count"):
            LauncherOptions().with_(trip_count=0)
