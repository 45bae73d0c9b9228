"""Benchmark of the feedsched pipeline: seeded generators (`generators`),
the harness (`run`), span recording (`tracing`) and layer baselines
(`baselines`). See README.md."""
