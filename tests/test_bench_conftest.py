"""The bench suite's memoised simulator builder (``benchmarks/conftest.py``)."""

from benchmarks.conftest import simulate
from repro.simulator import (
    CLUSTER_2011,
    GB,
    SESSIONIZATION,
    ClusterSpec,
    HadoopPipeline,
    HOPPipeline,
    HOPSimConfig,
)

PROFILE = SESSIONIZATION.scaled(1 * GB)


def test_simulate_returns_the_same_run_for_equal_arguments():
    stock = simulate(HadoopPipeline, PROFILE)
    assert simulate(HadoopPipeline, PROFILE, CLUSTER_2011) is stock
    assert simulate(HadoopPipeline, PROFILE, spec=ClusterSpec(merge_factor=10)) is stock
    assert simulate(HadoopPipeline, PROFILE, ClusterSpec(merge_factor=5)) is not stock

    hop = simulate(HOPPipeline, PROFILE, hop=HOPSimConfig(granularity_bytes=4 * 1024 * 1024))
    assert simulate(HOPPipeline, PROFILE, hop=HOPSimConfig(granularity_bytes=4 << 20)) is hop
    assert simulate(HOPPipeline, PROFILE) is not hop
