"""Finite-size overlap sums converging to the deformed determinant.

At grid size L the determinant is represented as a sum over N-point
subsets of the L-th roots of unity, each weighted by a squared overlap
with the shifted root system.  As L grows with N = L the sum converges
to det(1 + V) on the unit circle.  The sum is taken in closed form, so L
runs into the thousands; the half-filled column (N = L/2, C(L, L/2)
subsets) is one N x N determinant.  The strong-limit constant is shown
for contrast: it is only reached as x grows.
"""

from detlab import asymptotics, formfactors, symbols, toeplitz

spec = symbols.fixture("F2")
x = 2
target = asymptotics.tau_eff(spec, x)
print(f"symbol {spec.label}, x = {x}")
print(f"det(1 + V) target      = {target.real:.16e}")
print(f"moment determinant     = {toeplitz.toeplitz_det(spec, x).real:.16e}")
print(f"strong-limit constant  = {asymptotics.szego(spec, x).real:.16e}")
print()
print(f"{'L':>5} {'finite-size value':>24} {'gap to target':>14} "
      f"{'N = L/2 value':>24}")
for L in (8, 16, 32, 64, 128, 256, 512, 1024):
    val = formfactors.tau_eff_finite(spec, L, L, x)
    half = formfactors.tau_eff_finite(spec, L, L // 2, x)
    print(f"{L:>5} {val.real:>24.16e} "
          f"{abs(val - target) / abs(target):>14.2e} {half.real:>24.16e}")

print()
print("gap decay in x of the strong-limit constant:")
for xx in (2, 4, 6, 8):
    t = toeplitz.toeplitz_det(spec, xx)
    s = asymptotics.szego(spec, xx)
    print(f"  x={xx}: |T_x/szego - 1| = {abs(t / s - 1):.2e}")
