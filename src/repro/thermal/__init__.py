"""Thermal substrate: the Eq 6-9 steady-state solver."""

from .solver import T_RUNAWAY, ThermalSolution, solve_temperatures

__all__ = [
    "T_RUNAWAY",
    "ThermalSolution",
    "solve_temperatures",
]
