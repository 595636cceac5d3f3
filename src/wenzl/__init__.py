"""Exact computer algebra for cyclotomic Nazarov-Wenzl algebras.

Modules by subject:

- ``combinat``:   multipartitions, updown tableaux, contents, coset reps,
                  permutations and generator words
- ``params``:     parameter sets, the step table, admissible sequences, W
                  at a shape as the int roots of its linear factors and its
                  expansion at infinity (Omega and the tower scalars)
- ``_linalg``:    sparse int matrices: products, the multiply-accumulate,
                  rank, determinant and inverse by fraction-free elimination
- ``seminormal``: rational seminormal representations and exact checks
- ``hecke``:      the degenerate cyclotomic Hecke quotient and Murphy basis
- ``wcell``:      the faithful matrix realization and cellular elements
- ``cli``:        batch command-line front end; it imports ``combinat`` and
                  ``params``, and each command its own module when it runs
"""

__version__ = "0.1.0"
