"""Synthetic lifetime-driven workloads for the analytical experiments."""
