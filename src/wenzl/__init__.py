"""Exact computer algebra for cyclotomic Nazarov-Wenzl algebras.

Modules by subject:

- ``combinat``:   multipartitions, updown tableaux, contents, coset reps,
                  permutations and generator words
- ``params``:     parameter sets, the step table, W at a shape as the int
                  roots of its linear factors and its expansion at infinity
                  (Omega, u-admissible by construction)
- ``_linalg``:    sparse int matrices: products, the multiply-accumulate,
                  rank, determinant and inverse by fraction-free elimination
- ``seminormal``: rational seminormal models, their realization, and checks
- ``hecke``:      the degenerate cyclotomic Hecke quotient and Murphy basis
- ``wcell``:      cellular elements and their certified rank on it
- ``cli``:        batch command-line front end, one command per statement
                  (``verify``, ``gram``, ``cellrank``); it imports
                  ``combinat`` and ``params``, and each command its own
                  module when it runs
"""

__version__ = "0.1.0"
