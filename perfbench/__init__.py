"""perfbench: the repository's one benchmark (see README.md, ../BENCHMARK.json).

Four workloads drive the system from outside — public constructors, the
service client, and the daemon / worker entry points — and report a
small set of end-to-end metrics plus a price tag per layer.  Every
``repro`` symbol the benchmark touches is named in :mod:`perfbench.sut`.
"""
