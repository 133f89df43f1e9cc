"""Ablations A2, A3 and A5 — the reduce-side hash table under a Zipf key stream.

One driver feeds a generated Zipf key stream through the frequent-key
cache (``HotSetIncrementalHash``: hot keys resident, cold pairs spilled)
or the plain ``IncrementalHash`` (first-come states, hybrid-hash overflow)
and reads exactness, hit rate and spill back.  Four sweeps:

* **A2** the plain hash's memory budget across the fits/doesn't-fit
  boundary: graceful degradation, spill grows as memory shrinks;
* **A2b** hot keys vs *random* keys resident at equal capacity — the
  paper's direct justification for the frequent algorithm;
* **A3** the Zipf exponent: the hot set only pays off under skew ("hot
  keys are typically of greater importance to the users"), and on
  uniform keys a frequency-managed cache cannot beat the churn it causes;
* **A5** the hot set's capacity from 1% to 100% of the keys: the hit rate
  saturates long before capacity reaches the key count — the
  quantitative case for "memory for important groups" over "memory for
  all groups".
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.analysis.report import ExperimentReport
from repro.analysis.tables import format_table, human_bytes
from repro.core.aggregates import SUM
from repro.core.hotset import HotSetIncrementalHash
from repro.core.incremental import IncrementalHash
from repro.io.disk import LocalDisk
from repro.io.runio import RunWriter
from repro.mapreduce.counters import C, Counters
from repro.workloads.zipf import ZipfSampler


def zipf_stream(keys: int, skew: float, updates: int, seed: int) -> list[int]:
    return [int(k) for k in ZipfSampler(keys, skew, seed=seed).draw(updates)]


def drive(stream, *, capacity=None, memory_bytes=None) -> dict:
    """``stream`` as a SUM per key through a hot set of ``capacity`` states
    or, given ``memory_bytes`` instead, a plain incremental hash, fed as
    the one-pass engine feeds it: ``update_batch`` of one chunk at a time."""
    counters = Counters()
    if capacity is None:
        table = IncrementalHash(SUM, memory_bytes=memory_bytes, disk=LocalDisk(), counters=counters)
    else:
        table = HotSetIncrementalHash(SUM, LocalDisk(), "hot", capacity=capacity, counters=counters)
    pairs = [(key, 1) for key in stream]
    for i in range(0, len(pairs), 4096):
        table.update_batch(pairs[i : i + 4096])
    exact = dict(table.results()) == Counter(stream)
    hits, misses = counters[C.HOT_HITS], counters[C.HOT_MISSES]
    return {
        "exact": exact,
        "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "spill": counters[C.REDUCE_SPILL_BYTES],
        "evictions": int(counters[C.HOT_EVICTIONS]),
    }


#: A2 and A2b share one stream: 120k updates over 10k keys at Zipf 1.3.
A2_KEYS, A2_UPDATES = 10_000, 120_000


def test_memory_budget_sweep(check):
    budgets = (16 * 1024, 64 * 1024, 256 * 1024, 4 * 1024 * 1024)
    stream = zipf_stream(A2_KEYS, 1.3, A2_UPDATES, seed=77)
    rows = {b: drive(stream, memory_bytes=b) for b in budgets}
    spills = {b: r["spill"] for b, r in rows.items()}
    correct = all(r["exact"] for r in rows.values())

    report = ExperimentReport(
        "A2",
        "Ablation: incremental-hash memory budget",
        setup=f"{A2_UPDATES} updates, {A2_KEYS} keys, Zipf 1.3, budgets "
        f"{[human_bytes(b) for b in budgets]}",
    )
    report.observe("exact at every budget", "overflow preserves answers", str(correct), correct)
    report.observe(
        "ample memory -> zero spill",
        "fast in-memory processing when states fit",
        human_bytes(spills[budgets[-1]]),
        spills[budgets[-1]] == 0,
    )
    report.observe(
        "spill grows monotonically as memory shrinks",
        "graceful degradation",
        {human_bytes(b): human_bytes(s) for b, s in spills.items()},
        spills[budgets[0]] >= spills[budgets[1]] >= spills[budgets[2]] >= spills[budgets[3]],
    )
    check(report)


def _random_resident_spill(stream, capacity, seed=5):
    """The paper's strawman: ``capacity`` *random* keys resident in memory.

    Cold pairs go to disk exactly as the hot-set variant spills them, so
    the byte comparison is apples to apples.
    """
    rng = np.random.default_rng(seed)
    resident = set(int(k) for k in rng.choice(A2_KEYS, size=capacity, replace=False))
    writer = RunWriter(LocalDisk(), "cold")
    states: dict[int, int] = {}
    try:
        for key in stream:
            if key in resident:
                states[key] = states.get(key, 0) + 1
            else:
                writer.write((key, 1))
    finally:
        writer.close()
    return writer.bytes_written


def test_hotset_beats_random_resident_set(check):
    """'Maintaining hot keys instead of random keys in memory results in
    less I/Os' — the paper's direct justification for the frequent
    algorithm."""
    capacity = 800
    stream = zipf_stream(A2_KEYS, 1.3, A2_UPDATES, seed=77)
    random_spill = _random_resident_spill(stream, capacity)
    hot = drive(stream, capacity=capacity)

    report = ExperimentReport(
        "A2b",
        "Ablation: hot-key retention vs random-key retention",
        setup=f"same stream, {capacity} resident states each "
        f"({capacity / A2_KEYS:.0%} of keys)",
    )
    report.observe(
        "hot keys in memory spill far less than random keys",
        "maintaining hot keys results in less I/O",
        f"random {human_bytes(random_spill)} vs hot-set {human_bytes(hot['spill'])}",
        hot["spill"] < 0.6 * random_spill,
    )
    report.observe(
        "hit rate of the hot set",
        "hot keys absorb most updates",
        f"{hot['hit_rate']:.1%}",
        hot["hit_rate"] > 0.6,
    )
    report.note(
        format_table(
            ("resident-set policy", "spill bytes"),
            [
                ("random keys", human_bytes(random_spill)),
                ("hot keys (Space-Saving)", human_bytes(hot["spill"])),
            ],
        )
    )
    report.note(
        "a first-come resident set (plain incremental hash) also does well "
        "under skew because hot keys tend to arrive early; the frequent "
        "algorithm's advantage is robustness — it converges to the hot set "
        "regardless of arrival order"
    )
    check(report)


def test_skew_sweep(check):
    keys, updates, capacity = 8_000, 80_000, 800
    skews = (0.0, 0.8, 1.2, 1.6)
    rows = {s: drive(zipf_stream(keys, s, updates, seed=31), capacity=capacity) for s in skews}
    hit_rates = {s: rows[s]["hit_rate"] for s in skews}
    spills = {s: rows[s]["spill"] for s in skews}
    correct = all(r["exact"] for r in rows.values())

    report = ExperimentReport(
        "A3",
        "Ablation: key skew vs hot-set effectiveness",
        setup=f"{updates} updates over {keys} keys, capacity {capacity} "
        f"(10% of keys), Zipf s in {skews}",
    )
    report.observe("exact at every skew", "cold replay preserves answers", str(correct), correct)
    report.observe(
        "hit rate grows with skew",
        "frequent keys only exist under skew",
        {s: f"{h:.0%}" for s, h in hit_rates.items()},
        hit_rates[0.0] < hit_rates[0.8] < hit_rates[1.2] < hit_rates[1.6],
    )
    report.observe(
        "spill shrinks with skew",
        "hot mass stays in memory",
        {s: human_bytes(b) for s, b in spills.items()},
        spills[1.6] < spills[1.2] < spills[0.8] <= spills[0.0] * 1.05,
    )
    report.observe(
        "uniform keys gain little",
        "cache cannot beat uniform churn",
        f"hit rate {hit_rates[0.0]:.0%} ~= capacity/keys = {capacity / keys:.0%} "
        "(plus in-block repeats)",
        hit_rates[0.0] < 0.45,
    )
    report.note(
        format_table(
            ("zipf s", "hit rate", "spill", "evictions"),
            [
                (s, f"{r['hit_rate']:.0%}", human_bytes(r["spill"]), r["evictions"])
                for s, r in rows.items()
            ],
        )
    )
    check(report)


def test_hotset_capacity_sweep(check):
    keys, updates = 10_000, 100_000
    capacities = (100, 500, 1_000, 2_500, 10_000)
    stream = zipf_stream(keys, 1.3, updates, seed=19)
    rows = {c: drive(stream, capacity=c) for c in capacities}
    hit = {c: rows[c]["hit_rate"] for c in capacities}
    spill = {c: rows[c]["spill"] for c in capacities}
    steps = list(zip(capacities, capacities[1:]))

    report = ExperimentReport(
        "A5",
        "Ablation: hot-set capacity vs hit rate and spill",
        setup=f"{updates} updates over {keys} keys, Zipf 1.3",
    )
    report.observe(
        "hit rate monotone in capacity",
        "more resident states never hurt",
        {c: f"{h:.0%}" for c, h in hit.items()},
        all(hit[a] <= hit[b] + 1e-9 for a, b in steps),
    )
    report.observe(
        "1% capacity already absorbs most of the stream",
        "Zipf mass concentrates on hot keys",
        f"{hit[100]:.0%} hit rate at capacity 100",
        hit[100] > 0.5,
    )
    report.observe(
        "saturation well before full capacity",
        "diminishing returns past the hot mass",
        f"{hit[2_500]:.0%} at 25% capacity vs {hit[10_000]:.0%} at 100%",
        hit[2_500] > 0.95 * hit[10_000],
    )
    report.observe(
        "full capacity eliminates spill",
        "in-memory processing when states fit",
        human_bytes(spill[10_000]),
        spill[10_000] == 0,
    )
    report.observe(
        "spill falls monotonically with capacity",
        "graceful memory/IO trade",
        {c: human_bytes(s) for c, s in spill.items()},
        all(spill[a] >= spill[b] for a, b in steps),
    )
    report.note(
        format_table(
            ("capacity", "% of keys", "hit rate", "spill"),
            [
                (c, f"{100 * c / keys:.0f}%", f"{hit[c]:.1%}", human_bytes(spill[c]))
                for c in capacities
            ],
        )
    )
    check(report)
