"""The observability plane: metrics, telemetry events, exporters.

Zero-overhead-when-disabled instrumentation shared by all five
collectors and the heap.  See :mod:`repro.metrics.registry` for the
metric types and their exact merge laws,
:mod:`repro.metrics.instrument` for how collectors attach, and
:mod:`repro.metrics.export` for the output formats behind the
``repro-gc metrics`` CLI command.
"""
