"""The campaign-engine flags, bound once for every CLI.

``microlauncher``, ``microcreator`` and ``python -m repro.characterize``
all run campaigns through :func:`repro.engine.run_campaign`.  Each flag
here is stored under the name of the ``run_campaign`` keyword it sets,
so :func:`engine_kwargs` hands the parsed values over unchanged and
``run_campaign`` stays the one place that declares and validates them.
"""

from __future__ import annotations

import argparse

#: ``run_campaign`` keywords bound to command-line flags.
_ENGINE_KEYWORDS = (
    "jobs",
    "chunk_size",
    "cache_dir",
    "gen_cache_dir",
    "resume",
    "max_retries",
    "job_timeout",
)


def add_engine_arguments(
    parser: argparse.ArgumentParser, *, gen_cache: bool = False
) -> None:
    """Add the engine flags to ``parser`` (``--gen-cache`` on request)."""
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for campaign execution (default: 1, inline)",
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        metavar="K",
        help="cap on jobs per worker batch with --jobs (default: sized "
        "from measured per-job durations); results are byte-identical "
        "for every chunking",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="cache measurements by content hash; re-runs skip finished "
        "jobs (a legacy JSONL cache is migrated on first open)",
    )
    if gen_cache:
        parser.add_argument(
            "--gen-cache",
            dest="gen_cache_dir",
            metavar="DIR",
            default=None,
            help="persist generated variants for spec-backed sweeps keyed "
            "by (spec, options); a warm cache skips the generation pipeline",
        )
    parser.add_argument(
        "--resume",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="reuse cached results (--no-resume re-measures everything)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="N",
        help="failed attempts a job may retry before it is quarantined "
        "(default: 2); a degraded run exits 3",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per job; a chunk past its budget is "
        "killed and its jobs retried (default: no timeout)",
    )


def engine_kwargs(args: argparse.Namespace) -> dict[str, object]:
    """The parsed engine flags as ``run_campaign`` keyword arguments."""
    return {key: getattr(args, key) for key in _ENGINE_KEYWORDS if hasattr(args, key)}
