"""Finite-scale fractal dimension spectra, Legendre duality checks, and
radial half-wave sharpness experiments."""

__version__ = "0.1.0"

__all__ = ["__version__"]
