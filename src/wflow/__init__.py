"""Desk-scale laboratory for flow-based generative models.

Invertible neural-ODE blocks trained under likelihood, proximal-step,
and velocity-matching objectives, applied to optimal transport, density
ratio estimation, and worst-case sampling, with analytic Gaussian
oracles throughout.
"""

__version__ = "0.1.0"
