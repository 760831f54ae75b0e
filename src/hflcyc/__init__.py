"""hflcyc: a proof kernel and cyclic-proof checker for higher-order
fixed-point logic over the naturals.  It parses and validates pre-proofs,
decides the global trace condition by a size-change closure with a
counterexample lasso, and has a bounded semantic evaluator.
"""

__version__ = "0.1.0"
