"""Per-pair references for the three reduce-side hash backends.

Each function drives a real backend object one pair at a time, the way the
backends folded before they shared ``AccountedStateTable.fold``, with its
own admission, byte accounting, freeze and shed.  They call nothing of the
table but its dict, so a test that compares a backend's batched fold with
them compares two implementations, not the fold with itself.  Misses
spill a pair at a time (:func:`spill_one`), as before the backends
bucketed a segment's misses.
"""

from repro.core.hash_tables import SpilledState
from repro.core.hybrid_hash import HybridHashGrouper
from repro.io.disk import LocalDisk
from repro.io.runio import RunWriter
from repro.io.serialization import estimate_size
from repro.mapreduce.counters import C

SLOT_BYTES = 104


def fold_one(table, key, value):
    """One probe; a fresh state on first touch; the state's growth charged."""
    table.probes += 1
    state = table.states.get(key)
    if state is None:
        state = table.states[key] = table.aggregator.initial()
        table.used_bytes += estimate_size(key) + SLOT_BYTES + state.size_bytes()
    if isinstance(value, SpilledState):
        table.used_bytes += state.merge(value.state)
    else:
        table.used_bytes += state.update(value)
    return state


def remeasured(table):
    """A table's bytes measured afresh: key estimate, dict slot and state
    size over every resident key."""
    return sum(estimate_size(k) + SLOT_BYTES + state.size_bytes() for k, state in table.items())


def table_fold(table, pairs, sheds=None):
    """``AccountedStateTable.fold`` a pair at a time with :func:`fold_one`'s
    own accounting and the table's admission rule; the misses in order.
    Each shed appends ``(used_bytes before it, victims)`` to ``sheds``."""
    misses = []
    for key, value in pairs:
        if key not in table.states and (table.frozen or len(table.states) >= table.capacity):
            misses.append((key, value))
            continue
        fold_one(table, key, value)
        if table.budget is None:
            continue
        if not table.frozen:
            if table.used_bytes > table.budget:
                table.frozen, table.frozen_bytes = True, table.used_bytes
        elif table.shed and table.used_bytes > 2 * table.budget:
            before, victims = table.used_bytes, []
            by_size = sorted(table.states.items(), key=lambda kv: kv[1].size_bytes(), reverse=True)
            for victim, state in by_size:
                if table.used_bytes <= table.budget:
                    break
                del table.states[victim]
                table.used_bytes -= estimate_size(victim) + state.size_bytes() + SLOT_BYTES
                misses.append((victim, SpilledState(state)))
                victims.append(victim)
            if sheds is not None:
                sheds.append((before, victims))
    return misses


def spill_one(spills, key, value):
    """One hash and one ``RunWriter.write`` for one pair into ``SpillBuckets``."""
    bucket = spills.hash(key) % len(spills.writers)
    writer = spills.writers[bucket]
    if writer is None:
        writer = spills.writers[bucket] = RunWriter(spills.disk, f"{spills.prefix}{bucket:03d}")
    writer.write((key, value))


def hybrid_add(g, key, value):
    """``HybridHashGrouper.add``: a cold key spills once frozen, the first
    pair past the budget freezes, a frozen pair past twice it sheds.
    Returns the keys a shed evicted, or ``None``."""
    if g._finished:
        raise RuntimeError("grouper already finished")
    table = g._table
    if table.frozen and key not in table.states:
        spill_one(g._spills, key, value)
        return None
    fold_one(table, key, value)
    if not table.frozen:
        if table.used_bytes > g.memory_bytes:
            table.frozen = True
            table.frozen_bytes = table.used_bytes
            g.counters.set_max(C.HASH_STATE_BYTES_PEAK, table.used_bytes)
    elif table.used_bytes > 2 * g.memory_bytes:
        return shed(g)
    return None


def shed(g):
    """Spill the biggest resident states until back under budget."""
    table = g._table
    victims = []
    by_size = sorted(table.states.items(), key=lambda kv: kv[1].size_bytes(), reverse=True)
    for key, state in by_size:
        if table.used_bytes <= g.memory_bytes:
            break
        del table.states[key]
        table.used_bytes -= estimate_size(key) + state.size_bytes() + SLOT_BYTES
        spill_one(g._spills, key, SpilledState(state))
        victims.append(key)
    return victims


def incremental_update(ih, key, value):
    """``IncrementalHash.update``: a cold key overflows once frozen, a folded
    pair may emit, and the first pair past the budget freezes."""
    if ih._finished:
        raise RuntimeError("incremental hash already finished")
    ih.updates += 1
    table = ih._table
    if ih._overflow is not None and key not in table.states:
        hybrid_add(ih._overflow, key, value)
        return
    state = fold_one(table, key, value)
    if ih.emit_policy is not None:
        ih._maybe_emit(key, state)
    budget = ih.memory_bytes
    if ih._overflow is None and budget is not None and table.used_bytes > budget:
        table.frozen = True
        table.frozen_bytes = table.used_bytes
        ih.counters.set_max(C.HASH_STATE_BYTES_PEAK, table.used_bytes)
        ih._overflow = HybridHashGrouper(
            ih.disk,
            f"{ih.namespace}/overflow",
            ih.memory_bytes,
            aggregator=ih.aggregator,
            counters=ih.counters,
        )


def incremental_restore(ih, states):
    """``IncrementalHash.restore_payload``'s table: every state merged into
    a fresh table (the caller restores the rest)."""
    table = ih._table
    table.states.clear()
    table.used_bytes = table.probes = 0
    for key, state in states:
        fold_one(table, key, SpilledState(state))


def hotset_update(h, key, value):
    """``HotSetIncrementalHash.update``: one sketch offer, one admission
    decision and one refresh check per pair."""
    if h._finished:
        raise RuntimeError("hot-set hash already finished")
    h.updates += 1
    h.sketch.offer(key)
    if key in h._table.states or len(h._table.states) < h.capacity:
        fold_one(h._table, key, value)
        h.counters.inc(C.HOT_HITS)
    else:
        spill_one(h._spills, key, value)
        h.counters.inc(C.HOT_MISSES)
    h._since_refresh += 1
    if h._since_refresh >= h.refresh_interval:
        h._refresh()


class KeepingDisk(LocalDisk):
    """A disk that keeps the bytes of every file it deletes, unaccounted."""

    def __init__(self):
        super().__init__()
        self.deleted = {}

    def delete(self, path):
        self.deleted[path] = self.peek(path)
        super().delete(path)


def cut(pairs, cuts):
    """``pairs`` as consecutive chunks split at ``cuts``."""
    edges = [0, *sorted(min(c, len(pairs)) for c in cuts), len(pairs)]
    return [pairs[a:b] for a, b in zip(edges, edges[1:])]
