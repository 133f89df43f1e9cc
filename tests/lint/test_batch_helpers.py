"""Reprolint must see *into* the batch helper modules.

The batch kernel path routes hot-loop work through helper modules
(``repro.io.batch``-style fanout/sort/merge functions).  That indirection
must not blind the analysers: REP002 still closes over module-local batch
helpers a kernel calls, and a nondeterministic source inside a batch
helper in another module is flagged there — the helper module is in
deterministic scope, as every module deterministic code imports is.  The
clean helpers — pure fanout, stable sorts, concat-merge — must produce
no false positives: any finding fails the lint run.
"""

import textwrap

from repro.lint import LintConfig, lint_source

ENGINE_MOD = "repro/core/fixture.py"
KERNEL_MOD = "repro/exec/kernels.py"

#: A stand-in for ``repro.io.batch``: the real helpers' shapes, plus a
#: deliberately tainted variant the rules must catch where it stands.
BATCH_MOD = "repro/io/batchfix.py"
BATCH_SRC = textwrap.dedent(
    """
    import time
    from operator import itemgetter

    _FIRST = itemgetter(0)

    def sort_bucket(bucket):
        bucket.sort(key=_FIRST)
        return bucket

    def fanout_pairs(pairs, partitioner, num_partitions):
        buckets = [[] for _ in range(num_partitions)]
        appends = [b.append for b in buckets]
        for pair in pairs:
            appends[partitioner(pair[0], num_partitions)](pair)
        return buckets

    def merge_segments(segments):
        out = []
        for seg in segments:
            out.extend(seg)
        out.sort(key=_FIRST)
        return out

    def stamp_batch(pairs):
        return (time.time(), pairs)
    """
)


def lint(source, *, modpath=ENGINE_MOD):
    return lint_source(textwrap.dedent(source), modpath=modpath, config=LintConfig())


def rules_of(findings):
    return [f.rule for f in findings]


class TestREP101ThroughBatchHelpers:
    def test_tainted_batch_helpers_flagged_where_they_stand(self):
        """The engine never calls ``time.time`` itself — a batch helper
        does, and the helper module holds the finding while the engine
        that calls it stays clean."""
        engine = lint(
            """
            from repro.io import batchfix

            def emit_run(pairs):
                return batchfix.stamp_batch(pairs)
            """
        )
        assert engine == []
        helpers = lint(BATCH_SRC, modpath=BATCH_MOD)
        assert sorted((f.rule, f.line) for f in helpers) == [("REP101", 26)]

    def test_clean_batch_helpers_produce_no_findings(self):
        """The real batch-path shape: fanout, per-bucket stable sort,
        concat-and-sort merge.  Deterministic end to end — any finding
        here would fail the lint run for the batch path."""
        findings = lint(
            """
            from repro.io import batchfix

            def run_batch(pairs, partitioner, n):
                buckets = batchfix.fanout_pairs(pairs, partitioner, n)
                for bucket in buckets:
                    batchfix.sort_bucket(bucket)
                return batchfix.merge_segments(buckets)
            """
        )
        assert findings == []


class TestREP002ThroughBatchHelpers:
    def kernel_lint(self, source):
        return lint_source(textwrap.dedent(source), modpath=KERNEL_MOD, config=LintConfig())

    def test_impure_module_local_batch_helper_flagged(self):
        """A kernel delegating its per-batch loop to a module-local helper
        must not launder impurity through it: REP002 closes over the
        helper and reports the ``open`` at the bottom."""
        findings = self.kernel_lint(
            """
            def _emit_buckets(buckets):
                for bucket in buckets:
                    bucket.sort()
                open("/tmp/spill", "wb").write(repr(buckets).encode())

            def batch_map_kernel(ctx, spec):
                buckets = [[], []]
                for key, value in spec.pairs:
                    buckets[hash(key) % 2].append((key, value))
                _emit_buckets(buckets)
                return buckets

            register_kernel("batch-map", batch_map_kernel)
            """
        )
        assert set(rules_of(findings)) == {"REP002"}
        assert "open()" in " ".join(f.message for f in findings)

    def test_clean_batch_kernel_passes(self):
        findings = self.kernel_lint(
            """
            def _sort_buckets(buckets):
                for bucket in buckets:
                    bucket.sort()
                return buckets

            def batch_map_kernel(ctx, spec):
                buckets = [[], []]
                for key, value in spec.pairs:
                    buckets[0].append((key, value))
                return _sort_buckets(buckets)

            register_kernel("batch-map", batch_map_kernel)
            """
        )
        assert findings == []
