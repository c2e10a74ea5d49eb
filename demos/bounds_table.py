"""Re-derive every built-in lower-bound value with exact arithmetic.

The two known-opt programs are linear in the ratio variable and solved
outright by the exact simplex; the square-packing and class-constrained
programs carry ratio-times-variable products and are bracketed by exact
feasibility bisection.  Each bracket then gives its program's exact
minimum ratio: the one root of an integer polynomial in an isolating
interval, read off the solves the bisection kept.  The hand multiplier
certificates are replayed symbolically as an independent route to the
known-opt bounds.
"""

from fractions import Fraction

from packbound import (
    bisect_min_r,
    builtin_program,
    builtin_program_ids,
    check_certificate,
    decimal_str,
    exact_threshold,
    ko_certificate_suite,
    solve_min_r_exact,
)

print("exact optima (simplex)")
for pid in ("ko-case1", "ko-case2"):
    value = solve_min_r_exact(builtin_program(pid))
    print(f"  {pid:14s} min ratio = {value}  ({decimal_str(value)})")


def render(polynomial) -> str:
    """An integer polynomial in R, highest power first, as text."""
    degree = len(polynomial) - 1
    terms = [f"{'-' if c < 0 else '+'} {abs(c) if abs(c) != 1 or not k else ''}"
             f"{'R' if k else ''}{f'^{k}' if k > 1 else ''}"
             for c, k in zip(polynomial, range(degree, -1, -1)) if c]
    return " ".join(terms).removeprefix("+ ")


print("\nbisection brackets (tolerance 1e-9) and exact thresholds")
for pid in builtin_program_ids():
    program = builtin_program(pid)
    if program.linear_in_r:
        continue
    lo, hi = bisect_min_r(program, Fraction(1, 10**9))
    threshold = exact_threshold(program, lo, hi)
    a, b = threshold.interval
    print(f"  {pid:14s} in [{decimal_str(lo)}, {decimal_str(hi)}]")
    print(f"  {'':14s} root of {render(threshold.polynomial)}")
    print(f"  {'':14s} in ({a}, {b}), {'proven' if threshold.proven else 'not proven'}")

print("\nmultiplier certificates, replayed symbolically")
for cert in ko_certificate_suite():
    derived = check_certificate(cert)
    print(f"  {cert.name:16s} -> {derived.render()}")
