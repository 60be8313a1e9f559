"""Garbage collectors: the paper's non-predictive collector and baselines."""
