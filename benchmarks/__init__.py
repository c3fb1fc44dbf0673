"""Benchmark harness package (README's paper-claim table names each claim's bench).

Making this directory a package gives its ``conftest.py`` the import name
``benchmarks.conftest``, so it can never shadow the top-level ``conftest``
module of the tier-1 test-suite under ``tests/`` (which bench modules used to
collide with when pytest collected both directories from the repo root).
"""
