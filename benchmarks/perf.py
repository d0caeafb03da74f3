"""Wall-clock perf trajectory: cold vs warm fast paths.

Unlike the table/figure benchmarks in this directory, which replay the
paper's *modeled* numbers, this one measures the reproduction's own
wall time: every scenario runs once with the crypto caches disabled
(the pure-Python oracle) and once warm, and the speedup is pinned so a
regression that loses the fast paths fails loudly.

Run standalone (``python benchmarks/perf.py``, same as
``python -m repro bench``) or under pytest-benchmark::

    pytest benchmarks/perf.py --benchmark-only -s
"""

import sys

from conftest import emit

from repro import perfbench


def test_perf_fastpaths(once, benchmark):
    doc = once(lambda: perfbench.run_perf(smoke=True, repeats=3))
    assert perfbench.validate_perf(doc) == []
    emit(perfbench.format_perf(doc))
    for name, entry in doc["scenarios"].items():
        benchmark.extra_info[f"{name}_cold_median_s"] = entry["cold_median_s"]
        benchmark.extra_info[f"{name}_warm_median_s"] = entry["warm_median_s"]
        benchmark.extra_info[f"{name}_speedup"] = entry["speedup"]
        # Warm must never lose to cold: the caches replay the exact
        # modeled charges, so their only observable effect is wall
        # time — and that effect must point the right way.
        assert entry["speedup"] >= 1.0, f"{name}: cached path slower than cold"


if __name__ == "__main__":
    sys.exit(perfbench.main())
