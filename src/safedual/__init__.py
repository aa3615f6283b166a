"""Safe dual gradient method for network utility maximization.

Price-based resource allocation where the posted prices must never induce a
demand profile that violates the capacity constraints.  Ships the safe
method, three unsafe first-order baselines, a certified reference solver,
and a reproducible experiment harness.  The package imports nothing: each
name is imported from the module that defines it.
"""

__version__ = "0.1.0"
