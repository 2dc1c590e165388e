"""Overlapping graph clustering via vertex splitting.

Covers by cliques, split sequences, reductions between the four problems,
a 3k+3 vertex kernel, exact desk-scale solvers, and a counterexample hunter
over all small graphs.  See the README for the problem statements and the
command-line interface.
"""
