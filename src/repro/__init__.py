"""repro — reproduction of *Towards Scalable One-Pass Analytics Using
MapReduce* (Mazur, Li, Diao, Shenoy; IPDPS Workshops 2011).

The package contains three executable engines sharing one cluster
substrate, plus a calibrated discrete-event simulator for paper-scale
experiments:

* :mod:`repro.mapreduce` — stock-Hadoop sort-merge baseline and the
  MapReduce Online (HOP) pipelined variant;
* :mod:`repro.core` — the paper's hash-based one-pass analytics engine
  (hybrid hash, incremental hash with early emission, hot-key cache);
* :mod:`repro.hdfs`, :mod:`repro.io` — block storage and accounted disks;
* :mod:`repro.simulator` — event-driven cluster model reproducing the
  paper's timelines and utilisation figures at 256 GB scale;
* :mod:`repro.workloads` — click-stream and web-document generators and
  the four benchmark jobs;
* :mod:`repro.analysis` — table/series rendering for the benchmark
  harness.

Quickstart::

    from repro.mapreduce import LocalCluster, HadoopEngine
    from repro.core import OnePassEngine
    from repro.workloads import (
        ClickStreamConfig, generate_clicks, page_frequency_job,
        page_frequency_onepass_job,
    )

    cluster = LocalCluster(num_nodes=4, block_size=256 * 1024)
    cluster.hdfs.write_records("clicks", generate_clicks(ClickStreamConfig()))
    result = HadoopEngine(cluster).run(
        page_frequency_job("clicks", "out-sortmerge"))
    onepass = OnePassEngine(cluster).run(
        page_frequency_onepass_job("clicks", "out-onepass"))
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
