"""Symmetric algebraic circuits for homomorphism polynomials.

Submodules:
  exactnum   exact rationals, sparse polynomials, exact linear algebra
  pattern    bipartite multigraphs, the census, minors, quotients
  width      exact treewidth / pathwidth / treedepth with certificates
  circuit    the circuit IR: validation, evaluation, expansion, (de)serialization
  symmetry   group action on circuits: rigidification, orbits, supports
  compilers  width certificates -> symmetric formulas / skew / general circuits
  oracle     brute-force reference semantics (hom, colhom, emb, bases)
  reduce     gadgets, CFI pairs, tensor/slice toolkit, extraction pipelines
  cli        the `symcirc` command-line entry point
"""

__version__ = "0.1.0"
