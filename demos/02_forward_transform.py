"""Forward direction: canonical form -> reduced (Schrodinger) form.

Takes the polynomial-coefficient problem

    -( (x+s)^3 u' )' + 4 (x+s) u = lambda (x+s)^5 u,   s = sqrt(0.2),

on (0, sqrt(2 pi + 0.2) - s) with Dirichlet conditions, builds the change
of variable t = integral sqrt(r/p) dx numerically, and shows that the
resulting potential is exactly the reciprocal-quadratic 1/(t+0.1)^2 on
(0, pi).
"""

import math

from slpkit import CanonicalSLP, forward_transform, parse, validate
from slpkit.liouville import weight_ast

s = math.sqrt(0.2)
b = math.sqrt(2 * math.pi + 0.2) - s
problem = CanonicalSLP(
    p=parse(f"(x+{s!r})^3"),
    q=parse(f"4*(x+{s!r})"),
    r=parse(f"(x+{s!r})^5"),
    a=0.0,
    b=b,
)
print("violations:", validate(problem))

reduced, xmap = forward_transform(problem, quad_tol=1e-10)
print(f"reduced interval: ({reduced.alpha}, {reduced.beta})   target: (0, pi)")
print(f"|beta - pi| = {abs(reduced.beta - math.pi):.2e}")

print("\n   t        I(t)       1/(t+0.1)^2    |difference|")
for j in range(1, 10):
    t = math.pi * j / 10
    value = reduced.invariant.evaluate(t)
    target = 1.0 / (t + 0.1) ** 2
    print(f"  {t:5.3f}  {value:11.7f}  {target:11.7f}   {abs(value - target):.2e}")

# the map inverts to full precision
t_probe = 1.234
x_probe = xmap.x_of_t(t_probe)
print(f"\nmap self-consistency at t={t_probe}: |t(x(t)) - t| ="
      f" {abs(xmap.t_of_x(x_probe) - t_probe):.2e}")
print(f"w(x) = (p r)^(-1/4) as an expression: {weight_ast(problem)}")
