"""Toolkit for heavy-tailed linear processes and their stable partial-sum limits.

Simulates X_n = sum_{i>=1} (ell(i)/i) * eps_{n-i} for innovations in the
domain of attraction of an alpha-stable law (alpha in (1, 2]), computes the
normalizer A_N = N^{1/alpha} H_alpha(N)^{1/alpha} sum_{i<=N} ell(i)/i, and
verifies the convergence of the normalized partial-sum finite-dimensional
distributions to the alpha-stable Levy limit, both by an exact
characteristic-function oracle and by Monte Carlo.
"""

__version__ = "0.1.0"
