"""Parallel, cached execution of independent experiments.

Every :class:`~repro.bench.experiment.ExperimentConfig` describes a fully
deterministic simulation: same config + same code ⇒ bit-identical
:class:`~repro.bench.experiment.ExperimentResult`.  That contract (pinned
by ``tests/test_bench_runner.py``) makes two optimizations legitimate:

- **fan-out** — independent configs run concurrently in worker processes
  (:func:`run_experiments` with ``jobs > 1``), because no simulation shares
  state with another;
- **memoization** — results are cached on disk keyed by a stable hash of
  the config *and* a digest of the source tree, so re-running a figure
  script is free until either the scenario or the code changes.

Repeat-run support (:func:`run_repeated`) expands one config over a list
of seeds and aggregates per-seed results into mean/stdev stability
statistics, in the spirit of PASTRAMI-style performance assessment: a
single-seed number is a point estimate; the spread across seeds says
whether a comparison is trustworthy.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.bench.digest import jsonable, result_digest
from repro.bench.experiment import (
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
)

__all__ = [
    "BatchReport",
    "MetricStability",
    "RepeatedResult",
    "ResultCache",
    "code_version",
    "config_key",
    "default_cache_dir",
    "result_digest",
    "run_batch",
    "run_experiments",
    "run_repeated",
]

#: Environment override for the on-disk cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
_code_digest: Optional[str] = None


def code_version() -> str:
    """Digest of the ``repro`` source tree (cache-key component).

    Any change to any module invalidates the cache — coarse, but the cache
    must never serve a result the current code would not produce.
    """
    global _code_digest
    if _code_digest is None:
        root = Path(__file__).resolve().parents[1]
        h = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            h.update(path.relative_to(root).as_posix().encode())
            h.update(b"\0")
            h.update(path.read_bytes())
            h.update(b"\0")
        _code_digest = h.hexdigest()[:16]
    return _code_digest


def config_key(config: ExperimentConfig) -> str:
    """Stable cache key for one experiment under the current code.

    The code digest keys every entry, so an entry is only ever read by
    the code that wrote it: the cache needs no format version.
    """
    payload = {
        "code": code_version(),
        "config": jsonable(config),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "prism-repro" / "experiments"


class ResultCache:
    """On-disk JSON cache of :class:`ExperimentResult`, one file per key.

    Entries are ``ExperimentResult.to_dict()``, inspectable with any JSON
    tool; the config in an entry is :func:`jsonable` text for readers.
    :meth:`get` is the one place a result is decoded, and it hands the
    config it looked up to :meth:`ExperimentResult.from_dict`, so no
    config is ever decoded.  Any unreadable or wrong-shape entry is a
    miss.
    """

    def __init__(self, directory: Optional[Path] = None) -> None:
        self.directory = Path(directory) if directory else default_cache_dir()
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, config: ExperimentConfig) -> Optional[ExperimentResult]:
        path = self._path(config_key(config))
        try:
            with path.open("r", encoding="utf-8") as fh:
                result = ExperimentResult.from_dict(json.load(fh), config)
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            # Missing file, truncated/corrupt JSON, or a wrong-shape
            # entry — all of these are simply cache misses.
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, config: ExperimentConfig, result: ExperimentResult) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(config_key(config))
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with tmp.open("w", encoding="utf-8") as fh:
            json.dump(result.to_dict(), fh, separators=(",", ":"))
        tmp.replace(path)  # atomic: concurrent writers race harmlessly


@dataclass
class BatchReport:
    """What one :func:`run_batch` call did."""

    results: List[ExperimentResult]
    cache_hits: int = 0
    cache_misses: int = 0
    jobs: int = 1
    wall_seconds: float = 0.0

    def __str__(self) -> str:
        return (f"<BatchReport n={len(self.results)} jobs={self.jobs} "
                f"hits={self.cache_hits} misses={self.cache_misses} "
                f"wall={self.wall_seconds:.2f}s>")


def _resolve_jobs(jobs: Optional[int]) -> int:
    """Effective worker count: explicit jobs capped at the CPU count.

    Experiment workers are CPU-bound simulations — running more of them
    than cores buys nothing and actively harms a box that is *also*
    running shard workers (``--shards``, :mod:`repro.shard`): both fan
    out over processes, so their product should stay at or under the
    core count.  ``python -m repro <figure> --jobs N`` and explicit
    ``jobs=`` both pass through here, so neither can oversubscribe.  ``jobs<=0``/``None`` means one worker
    per CPU.
    """
    cpus = os.cpu_count() or 1
    if jobs is None or jobs <= 0:
        return cpus
    return min(jobs, cpus)


def run_batch(configs: Sequence[ExperimentConfig], *,
              jobs: int = 1,
              cache: bool = True,
              cache_dir: Optional[Path] = None) -> BatchReport:
    """Run many independent experiments, fanning out and memoizing.

    Results come back in the order of *configs*.  ``jobs=1`` runs strictly
    serially in-process (identical to calling :func:`run_experiment` in a
    loop); ``jobs>1`` fans cache misses out over a process pool;
    ``jobs<=0``/``None`` means one worker per CPU.
    """
    configs = list(configs)
    jobs = _resolve_jobs(jobs)
    started = time.perf_counter()
    store = ResultCache(cache_dir) if cache else None

    results: List[Optional[ExperimentResult]] = [None] * len(configs)
    miss_indices: List[int] = []
    if store is not None:
        for i, config in enumerate(configs):
            cached = store.get(config)
            if cached is not None:
                results[i] = cached
            else:
                miss_indices.append(i)
    else:
        miss_indices = list(range(len(configs)))

    miss_configs = [configs[i] for i in miss_indices]
    if miss_configs:
        if jobs > 1 and len(miss_configs) > 1:
            # Imported here: digesting or reading cached results loads
            # no process-pool stack.
            from concurrent.futures import ProcessPoolExecutor

            workers = min(jobs, len(miss_configs))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                fresh = list(pool.map(run_experiment, miss_configs,
                                      chunksize=1))
        else:
            fresh = [run_experiment(config) for config in miss_configs]
        for i, result in zip(miss_indices, fresh):
            results[i] = result
            if store is not None:
                store.put(configs[i], result)

    return BatchReport(
        results=results,  # type: ignore[arg-type]  # every slot is filled
        cache_hits=store.hits if store else 0,
        cache_misses=len(miss_configs),
        jobs=jobs,
        wall_seconds=time.perf_counter() - started,
    )


def run_experiments(configs: Sequence[ExperimentConfig], *,
                    jobs: int = 1,
                    cache: bool = True,
                    cache_dir: Optional[Path] = None
                    ) -> List[ExperimentResult]:
    """Drop-in batched replacement for ``[run_experiment(c) for c in configs]``."""
    return run_batch(configs, jobs=jobs, cache=cache,
                     cache_dir=cache_dir).results


# ----------------------------------------------------------------------
# Repeat runs and stability statistics
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MetricStability:
    """Mean/stdev of one metric across repeat runs."""

    mean: float
    stdev: float
    n: int

    @property
    def rel_stdev(self) -> float:
        """Coefficient of variation (0 when the mean is 0)."""
        return self.stdev / self.mean if self.mean else 0.0

    def __str__(self) -> str:
        return f"{self.mean:.1f} ±{self.stdev:.1f} (n={self.n})"


@dataclass
class RepeatedResult:
    """Per-seed results plus aggregate stability statistics."""

    config: ExperimentConfig
    seeds: List[int]
    results: List[ExperimentResult]
    stability: Dict[str, MetricStability] = field(default_factory=dict)


def _stability(values: List[float]) -> MetricStability:
    mean = statistics.fmean(values)
    stdev = statistics.stdev(values) if len(values) > 1 else 0.0
    return MetricStability(mean=mean, stdev=stdev, n=len(values))


def run_repeated(config: ExperimentConfig, seeds: Iterable[int], *,
                 jobs: int = 1,
                 cache: bool = True,
                 cache_dir: Optional[Path] = None) -> RepeatedResult:
    """Run *config* once per seed and aggregate stability statistics.

    The aggregated metrics are the headline quantities every figure reads:
    foreground latency (avg/p50/p99), delivered rates, and CPU utilization.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("run_repeated needs at least one seed")
    configs = [dataclasses.replace(config, seed=seed) for seed in seeds]
    results = run_experiments(configs, jobs=jobs, cache=cache,
                              cache_dir=cache_dir)

    stability: Dict[str, MetricStability] = {}
    latencies = [r.fg_latency for r in results if r.fg_latency is not None]
    if latencies:
        stability["fg_avg_ns"] = _stability([l.avg_ns for l in latencies])
        stability["fg_p50_ns"] = _stability([l.p50_ns for l in latencies])
        stability["fg_p99_ns"] = _stability([l.p99_ns for l in latencies])
    stability["fg_delivered_pps"] = _stability(
        [r.fg_delivered_pps for r in results])
    stability["bg_delivered_pps"] = _stability(
        [r.bg_delivered_pps for r in results])
    stability["cpu_utilization"] = _stability(
        [r.cpu_utilization for r in results])
    return RepeatedResult(config=config, seeds=seeds, results=results,
                          stability=stability)
