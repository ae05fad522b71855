"""Benchmark harness for goodfun; the entry point is perfbench/run.py."""
