"""Exact computer algebra for cyclotomic Nazarov-Wenzl algebras.

Subpackages by subject:

- ``diagrams``:   Brauer diagrams, their multiplication, generator words
- ``combinat``:   multipartitions, updown tableaux, contents, coset reps
- ``params``:     parameter sets, Schur q-functions, admissible sequences,
                  the rational functions and series attached to tableaux
- ``seminormal``: rational seminormal representations and exact checks
- ``hecke``:      the degenerate cyclotomic Hecke quotient and Murphy basis
- ``wcell``:      the faithful matrix realization and cellular elements
- ``cli``:        batch command-line front end
"""

__version__ = "0.1.0"
