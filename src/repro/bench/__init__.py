"""Benchmark harness: one driver per paper table/figure (``python -m
repro <name>``), the "fluid" performance simulator they share
(:mod:`repro.bench.fluid`), the claims ledger that holds the paper's
numbers and gates what the drivers measure (:mod:`repro.bench.claims`).
"""
