"""Walk one symbol up the whole ladder of determinant formulas.

The fixture F4 has winding -1 with zeros at 0.3, 1.4 and 2.2: every route
in the library applies to it somewhere.  For each matrix size x the table
shows the exact moment determinant, the Fredholm determinant on the
selected contour, the leading term on that same circle (the Cauchy suite
of the symbol and x finds it by itself), and the fully corrected series,
with relative gaps to the oracle.
"""

from detlab import asymptotics, fredholm, symbols, toeplitz

spec = symbols.fixture("F4")
ana = symbols.analyze(spec)
radius = asymptotics.base_contour(spec)

print(f"symbol {spec.label}: winding {ana.winding}, "
      f"zeros at {[f'{z.real:.2f}' for z in ana.zeros]}, "
      f"contour radius {radius:.4f}")
print()
print(f"{'x':>3} {'oracle':>24} {'fredholm gap':>14} "
      f"{'leading gap':>14} {'corrected gap':>14}")

for x in range(1, 9):
    oracle = toeplitz.toeplitz_det(spec, x)
    fd = fredholm.nystrom_det(fredholm.kernel_S(spec, x), radius).value
    lead = asymptotics.tau_leading(spec, x)
    full = asymptotics.slavnov_series(spec, x)
    def gap(v):
        return abs(v - oracle) / abs(oracle)
    print(f"{x:>3} {oracle.real:>24.16e} {gap(fd):>14.2e} "
          f"{gap(lead):>14.2e} {gap(full):>14.2e}")

print()
print("the leading term decays toward the oracle exponentially in x;")
print("the corrected series is exact at every x (rounding-floor gaps).")
