"""Tests for the resilience layer: atomic writes, fault injection,
chaos detection, snapshots, and resuming a killed sweep."""
