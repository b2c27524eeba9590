"""Numerical laboratory for quantified Tauberian decay bounds.

Models locally-BV integrators (jumps plus densities), their Laplace-Stieltjes
transforms, and the explicit decay machinery that turns a uniform ratio bound
plus an analytic extension into a computable rate; everything is checked
numerically on grids rather than assumed.

Each name is imported from the module that defines it (``tauberian_lab.bv``,
``tauberian_lab.verify``, ...); the package root holds only ``__version__``.
"""

__version__ = "0.1.0"
