"""One job, two hash seeds: the output and counters may not depend on
``PYTHONHASHSEED``.

Set and frozenset iteration order follows the per-process hash seed, so a
set iterated where order matters looks stable inside one process and
moves between processes.  This test runs :func:`digest` in two fresh
interpreters, under seeds 0 and 1, and requires equal digests.  Its two
jobs reach the two orders that matter on string keys: the hot set's
eviction order (a one-pass hot-set job whose capacity forces evictions)
and a fault plan's choice of node to crash (a Hadoop job under
``FaultPlan.random(..., nodes=..., crash_after=...)``).

    PYTHONPATH=src python -m tests.integration.test_hash_seeds   # print the digest
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

from repro.core.engine import OnePassConfig, OnePassEngine
from repro.mapreduce.faults import FaultPlan
from repro.mapreduce.runtime import HadoopEngine, LocalCluster
from repro.workloads import page_frequency_onepass_job, per_user_count_job
from repro.workloads.clickstream import ClickStreamConfig, generate_clicks

ROOT = Path(__file__).resolve().parents[2]


def _cluster():
    cluster = LocalCluster(num_nodes=4, block_size=32 * 1024, replication=2)
    config = ClickStreamConfig(num_clicks=12_000, num_users=120, num_urls=90, seed=3)
    cluster.hdfs.write_records("in", list(generate_clicks(config)))
    return cluster


def _fold(h, cluster, result):
    for block in cluster.hdfs.namenode.blocks_of(result.output_path):
        h.update(cluster.hdfs.read_block_bytes(block.block_id))
    counters = result.counters.as_dict()
    h.update(repr([(k, v) for k, v in counters.items() if not k.startswith("time.")]).encode())


def digest() -> str:
    """Output bytes and non-``time.*`` counters of the two jobs, hashed."""
    h = hashlib.sha256()
    cluster = _cluster()
    config = OnePassConfig(mode="hotset", hotset_capacity=16, map_side_combine=False)
    job = page_frequency_onepass_job("in", "hot", config=config)
    _fold(h, cluster, OnePassEngine(cluster).run(job))

    cluster = _cluster()
    job = per_user_count_job("in", "crash")
    plan = FaultPlan.random(
        7,
        num_map_tasks=len(cluster.hdfs.input_splits("in")),
        num_reducers=job.config.num_reducers,
        nodes=cluster.nodes,
        crash_after=3,
    )
    _fold(h, cluster, HadoopEngine(cluster, fault_plan=plan).run(job))
    return h.hexdigest()


def test_digest_does_not_depend_on_the_hash_seed():
    def run(seed: str) -> str:
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": seed}
        proc = subprocess.run(
            [sys.executable, "-m", "tests.integration.test_hash_seeds"],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True,
        )
        return proc.stdout.split()[-1]  # the digest is the last line

    first, second = run("0"), run("1")
    assert len(first) == 64
    assert first == second


if __name__ == "__main__":
    print(digest())
