"""Exact rational oracle for the coefficients of step weights.

The step moments are rational multiples of pi, so alpha_n * pi is an exact
rational of the weight's float data (every float is a binary fraction).
The tests compare float results and proven signs against it.
"""

from fractions import Fraction


def step_alpha_pi_fraction(weight, n: int) -> Fraction:
    """alpha_n * pi of a StepWeight, exactly: (n+1) / sum_i v_i (b_i^(2n+2) - b_{i-1}^(2n+2))."""
    acc = prev = Fraction(0)
    for b, v in zip(weight.breakpoints, weight.values):
        fb = Fraction(b)
        acc += Fraction(v) * (fb ** (2 * n + 2) - prev ** (2 * n + 2))
        prev = fb
    return (n + 1) / acc


def second_difference_signs(weight, n_cutoff: int) -> list:
    """Exact signs (-1, 0, 1) of alpha_k - 2 alpha_{k-1} + alpha_{k-2}, k = 2..n_cutoff."""
    a = [step_alpha_pi_fraction(weight, n) for n in range(n_cutoff + 1)]
    d2 = (a[k] - 2 * a[k - 1] + a[k - 2] for k in range(2, n_cutoff + 1))
    return [(d > 0) - (d < 0) for d in d2]
