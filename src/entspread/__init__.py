"""Entanglement spreading in single-excitation XXZ spin chains.

Simulation and analysis toolkit: exact Bessel-function dynamics for ordered
chains, Chebyshev propagation for disordered ones, concurrence spreading
moments, bound and asymptote verification, and power-law exponent extraction.
Each name is imported from the module that defines it, e.g.
`from entspread.propagator import evolve_series`; importing the package
itself loads nothing else.
"""

__version__ = "0.1.0"
