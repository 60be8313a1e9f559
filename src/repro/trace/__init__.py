"""Lifetime measurement: traces, survival tables, storage profiles."""
