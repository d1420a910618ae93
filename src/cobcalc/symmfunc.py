"""The multiplicative class P and its deformation now live in `chow_models`.

This module exists only because the benchmark's tracer (`bench/tracer.py`)
times `symmfunc.total_P` and `symmfunc.total_P_deformed` by those names; it
goes with the tracer (ROADMAP item 2)."""

from .chow_models import pi_series, total_P, total_P_deformed  # noqa: F401
