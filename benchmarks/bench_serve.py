"""Campaign service: throughput and coalescing dedup speedup.

Two concurrent, fully-overlapping submissions to a
:class:`~repro.serve.CampaignService` must compute each (chip, core) unit
exactly once; the baseline is the naive alternative — two back-to-back
``ExperimentRunner.run`` calls on uncached runners doing the work twice.
The dedup speedup should therefore approach 2x (minus scheduling
overhead); the assertion only requires that coalescing beats naive.
"""

from _shared import scale, settings

from repro.core import BASELINE, TS, AdaptationMode
from repro.exps.runner import ExperimentRunner, RunnerConfig
from repro.exps import RunSpec
from repro.serve import CampaignService


def _config() -> RunnerConfig:
    chips, cores = scale()
    return RunnerConfig(
        n_chips=chips,
        cores_per_chip=cores,
        fuzzy_examples=settings().fc_examples,
        fuzzy_epochs=2,
    )


def _spec() -> RunSpec:
    return RunSpec(
        environments=(BASELINE, TS), modes=(AdaptationMode.EXH_DYN,)
    )


def _two_naive_runs():
    spec = _spec()
    # Fresh runners, no cache: what two clients without a shared service
    # would each pay.
    ExperimentRunner(_config()).run(spec)
    ExperimentRunner(_config()).run(spec)


def _two_coalesced_jobs():
    spec = _spec()
    with CampaignService(ExperimentRunner(_config()), workers=2) as service:
        first = service.submit(spec)
        second = service.submit(spec)
        service.result(first, timeout=600)
        return service.result(second, timeout=600)


def test_serve_dedup_speedup(benchmark):
    import time

    start = time.perf_counter()
    _two_naive_runs()
    naive = time.perf_counter() - start

    start = time.perf_counter()
    result = benchmark.pedantic(_two_coalesced_jobs, rounds=1, iterations=1)
    coalesced = time.perf_counter() - start

    print()
    print(f"two naive back-to-back runs: {naive:.2f}s")
    print(f"two coalesced submissions:   {coalesced:.2f}s "
          f"(dedup speedup {naive / coalesced:.2f}x, ideal 2.0x)")
    assert (TS.name, "Exh-Dyn") in result.summaries
    assert coalesced < naive


def test_serve_submission_throughput(benchmark, tmp_path):
    """Round trips through a warm service: admission + cache-hit delivery."""
    from repro.exps.cache import ExperimentCache

    runner = ExperimentRunner(_config())
    spec = _spec()
    cache = ExperimentCache(tmp_path)
    with CampaignService(runner, workers=2, cache=cache) as service:
        service.result(service.submit(spec), timeout=600)  # warm the cache

        def submit_and_wait():
            return service.result(service.submit(spec), timeout=600)

        result = benchmark.pedantic(submit_and_wait, rounds=10, iterations=1)
    assert (BASELINE.name, "Exh-Dyn") in result.summaries
    assert cache.stats.hits["summary"] >= 20  # 2 cells x 10 rounds
