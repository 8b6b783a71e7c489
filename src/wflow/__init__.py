"""Desk-scale laboratory for flow-based generative models.

Invertible neural-ODE blocks trained under likelihood, proximal-step,
and velocity-matching objectives, applied to optimal transport, density
ratio estimation, and worst-case sampling, with analytic Gaussian
oracles throughout.
"""

from wflow._alloc import tune_allocator

# Raising glibc's mmap and trim thresholds keeps large short-lived arrays
# on the heap instead of returning them to the system and faulting them in
# again; a JKO training step ran ~1.3x slower without it (see README).
# Opt out with WFLOW_MALLOC_TUNE=0.
tune_allocator()

__version__ = "0.1.0"
