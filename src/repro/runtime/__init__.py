"""Scheme-ish runtime over the simulated heap: values, machine, interop."""
