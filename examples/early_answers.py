#!/usr/bin/env python3
"""Early answers from incremental state — the "one-pass" in the title.

The paper's two early-answer mechanisms over one click stream:

1. **Incremental threshold query** — "return all the groups where the
   count of items exceeds a threshold": the one-pass engine emits each
   group at the exact moment its count crosses, mid-scan.
2. **Hot-key approximate results** — with memory for only a fraction of
   the user states, the frequent-key cache still reports every hot user's
   (lower-bound) count the instant the input ends, before any spill replay.

Run:  python examples/early_answers.py
"""

from repro.core import (
    OnePassConfig,
    OnePassEngine,
    count_threshold_policy,
)
from repro.mapreduce import LocalCluster
from repro.workloads import (
    ClickStreamConfig,
    generate_clicks,
    page_frequency_onepass_job,
    per_user_count_onepass_job,
    reference_page_counts,
    reference_user_counts,
)


def part1_incremental_threshold(clicks) -> None:
    print("=" * 72)
    print("1. incremental threshold query: pages crossing 100 visits")
    print("=" * 72)
    cluster = LocalCluster(num_nodes=3, block_size=256 * 1024)
    cluster.hdfs.write_records("clicks", clicks)

    job = page_frequency_onepass_job(
        "clicks",
        "out",
        config=OnePassConfig(mode="incremental", map_side_combine=False),
    )
    job.emit_policy = count_threshold_policy(100)
    result = OnePassEngine(cluster).run(job)

    early = result.extras["early_emitted"]
    truth = reference_page_counts(clicks)
    expected = {u for u, n in truth.items() if n >= 100}
    print(
        f"{len(early)} pages emitted the moment their count reached 100 "
        f"(final answer has {len(expected)}; match={set(k for k, _ in early) == expected})"
    )
    for url, count in early[:5]:
        print(f"  {url} emitted at count {count} (finished at {truth[url]})")
    print()


def part2_hot_key_answers(clicks) -> None:
    print("=" * 72)
    print("2. hot-key cache: approximate per-user counts under tight memory")
    print("=" * 72)
    cluster = LocalCluster(num_nodes=3, block_size=256 * 1024)
    cluster.hdfs.write_records("clicks", cluster_clicks := clicks)

    cfg = OnePassConfig(mode="hotset", hotset_capacity=64, map_side_combine=False)
    result = OnePassEngine(cluster).run(
        per_user_count_onepass_job("clicks", "out", config=cfg)
    )

    truth = reference_user_counts(cluster_clicks)
    approx = sorted(
        result.extras["approximate_results"], key=lambda a: -a.count_estimate
    )
    print(
        f"memory held {cfg.hotset_capacity} user states per reducer out of "
        f"{len(truth)} users; hottest users, reported before any disk replay:\n"
    )
    for a in approx[:5]:
        print(
            f"  user {a.key}: >= {a.result} clicks "
            f"(sketch: <= {a.count_estimate}, err <= {a.count_error}; "
            f"true {truth[a.key]})"
        )
    exact = dict(cluster.hdfs.read_records("out"))
    print(f"\nexact results after cold-spill replay: {exact == truth}")


def main() -> None:
    clicks = list(
        generate_clicks(
            ClickStreamConfig(
                num_clicks=80_000, num_users=3_000, num_urls=400, user_skew=1.4
            )
        )
    )
    part1_incremental_threshold(clicks)
    part2_hot_key_answers(clicks)


if __name__ == "__main__":
    main()
