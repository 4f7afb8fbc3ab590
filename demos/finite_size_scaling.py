"""Finite-size overlap sums converging to the deformed determinant.

At grid size L the determinant is represented as a sum over N-point
subsets of the L-th roots of unity, each weighted by a squared overlap
with the shifted root system: the L + w roots of p^L phi(p) = 1, one per
cell of the counting function.  As L grows with N = L + w the sum
converges to det(1 + V) on the unit circle, for zero winding (F2) and
negative winding (F4, w = -1, so N = L - 1) alike.  The sum is taken in
closed form, so L runs into the thousands; the half-filled column of F2
(N = L/2, C(L, L/2) subsets) is one N x N determinant.  The strong-limit
constant is shown for contrast: it is only reached as x grows.  At L = 8
the root that F4's zero at 1.4 holds of its own lies among the L - 1
roots, so no sum is taken there (``NewtonDiverged``).
"""

from detlab import asymptotics, errors, formfactors, symbols, toeplitz

spec = symbols.fixture("F2")
spec4 = symbols.fixture("F4")
x = 2
target = asymptotics.tau_eff(spec, x)
target4 = asymptotics.tau_eff(spec4, x)
print(f"x = {x}; F2 winding 0, F4 winding {symbols.winding_number(spec4)}")
print(f"F2 det(1 + V) target   = {target.real:.16e}")
print(f"F2 moment determinant  = {toeplitz.toeplitz_det(spec, x).real:.16e}")
print(f"F2 strong-limit const. = {asymptotics.szego(spec, x).real:.16e}")
print(f"F4 det(1 + V) target   = {target4.real:.16e}")
print()
print(f"{'L':>5} {'F2, N = L':>24} {'gap':>9} {'F2, N = L/2':>24} "
      f"{'F4, N = L - 1':>24} {'gap':>9}")
for L in (8, 16, 32, 64, 128, 256, 512, 1024):
    val = formfactors.tau_eff_finite(spec, L, L, x)
    half = formfactors.tau_eff_finite(spec, L, L // 2, x)
    try:
        val4 = formfactors.tau_eff_finite(spec4, L, x=x)
        f4 = (f"{val4.real:>24.16e} "
              f"{abs(val4 - target4) / abs(target4):>9.2e}")
    except errors.NewtonDiverged:
        f4 = f"{'L too small':>24}"
    print(f"{L:>5} {val.real:>24.16e} "
          f"{abs(val - target) / abs(target):>9.2e} {half.real:>24.16e} {f4}")

print()
print("gap decay in x of the strong-limit constant (F2):")
for xx in (2, 4, 6, 8):
    t = toeplitz.toeplitz_det(spec, xx)
    s = asymptotics.szego(spec, xx)
    print(f"  x={xx}: |T_x/szego - 1| = {abs(t / s - 1):.2e}")
