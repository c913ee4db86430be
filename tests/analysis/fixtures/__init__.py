"""Seeded-bug fixtures for the dataflow pass's source-reading checks.

``backend_bugs`` plants exactly one bug per check (LINT07, LINT08) at a
known ``file:line``; tests/analysis/test_dataflow.py asserts each fires
exactly once at that location.  The running checks (LINT04, LINT06) plant
theirs as patched drivers in the tests themselves.
"""
