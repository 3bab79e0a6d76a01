"""Numerical laboratory for hyperbolic maps of the 2-torus.

The package computes the statistical objects that connect orbit averages to
entropy for area-preserving hyperbolic toral maps and their small C1
perturbations: empirical measures and a concrete weak* metric, volume
estimates of the finite-time statistical basins A(eps, n) together with their
exponential decay rates, Lyapunov data along the unstable bundle, and cylinder
entropy over an Adler-Weiss Markov partition of the cat map.  The headline
check is the rate identity

    rate(mu) = h(mu) - integral of log |det Df restricted to F| d mu,

evaluated at desk scale by deterministic grid sweeps.
"""
