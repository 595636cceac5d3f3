"""Exact computer algebra for cyclotomic Nazarov-Wenzl algebras.

Subpackages by subject:

- ``combinat``:   multipartitions, updown tableaux, contents, coset reps,
                  permutations and generator words
- ``params``:     parameter sets, the step table, admissible sequences, W
                  at a shape as the int roots of its linear factors and its
                  expansion at infinity (Omega and the tower scalars)
- ``seminormal``: rational seminormal representations and exact checks
- ``hecke``:      the degenerate cyclotomic Hecke quotient and Murphy basis
- ``wcell``:      the faithful matrix realization and cellular elements
- ``cli``:        batch command-line front end
"""

__version__ = "0.1.0"
