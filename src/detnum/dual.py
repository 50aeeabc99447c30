"""Forward-mode dual numbers over a fixed four-slot gradient.

Tiny algorithmic-differentiation helper for the scalar box-loss formulas.
A :class:`Dual` carries a value plus the four partial derivatives with
respect to the prediction box's (cx, cy, w, h). The elementary functions
below accept plain floats or Duals, so a formula written once against them
yields values or derivatives depending on what is fed in.

Comparisons read the primal value, against Duals or plain numbers alike.
Branch points (abs / min / max) follow the branch selected by the primal
values; at exact ties the first argument wins. Callers are expected to
detect and flag those configurations separately — this module just
propagates one-sided derivatives through them.
"""

from __future__ import annotations

import math

__all__ = [
    "Dual", "seed", "value", "grad",
    "exp", "sqrt", "arcsin", "cos", "atan", "fabs", "vmin", "vmax",
]

_ZERO = (0.0, 0.0, 0.0, 0.0)


class Dual:
    __slots__ = ("val", "d")

    def __init__(self, val: float, d=_ZERO):
        self.val = float(val)
        self.d = d

    def __repr__(self):
        return f"Dual({self.val!r}, d={self.d!r})"

    # -- comparisons --------------------------------------------------------

    def __lt__(self, other):
        return self.val < value(other)

    def __le__(self, other):
        return self.val <= value(other)

    def __gt__(self, other):
        return self.val > value(other)

    def __ge__(self, other):
        return self.val >= value(other)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Dual):
            a, b = self.d, other.d
            return Dual(self.val + other.val,
                        (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]))
        return Dual(self.val + other, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            a, b = self.d, other.d
            return Dual(self.val - other.val,
                        (a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3]))
        return Dual(self.val - other, self.d)

    def __rsub__(self, other):
        a = self.d
        return Dual(other - self.val, (-a[0], -a[1], -a[2], -a[3]))

    def __mul__(self, other):
        if isinstance(other, Dual):
            a, b = self.d, other.d
            u, v = self.val, other.val
            return Dual(u * v,
                        (a[0] * v + b[0] * u, a[1] * v + b[1] * u,
                         a[2] * v + b[2] * u, a[3] * v + b[3] * u))
        a = self.d
        return Dual(self.val * other,
                    (a[0] * other, a[1] * other, a[2] * other, a[3] * other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            a, b = self.d, other.d
            u, v = self.val, other.val
            # primal must be the single-rounded u / v so values stay
            # bit-identical to the plain-float evaluation of the formula
            q = u / v
            inv = 1.0 / v
            return Dual(q,
                        ((a[0] - q * b[0]) * inv, (a[1] - q * b[1]) * inv,
                         (a[2] - q * b[2]) * inv, (a[3] - q * b[3]) * inv))
        inv = 1.0 / other
        a = self.d
        return Dual(self.val / other,
                    (a[0] * inv, a[1] * inv, a[2] * inv, a[3] * inv))

    def __rtruediv__(self, other):
        # other / self with other a plain number
        u = self.val
        q = other / u
        s = -q / u
        a = self.d
        return Dual(q, (s * a[0], s * a[1], s * a[2], s * a[3]))

    def __neg__(self):
        a = self.d
        return Dual(-self.val, (-a[0], -a[1], -a[2], -a[3]))

    def __pow__(self, n):
        # d(u^n) = n * u^(n-1) * du; fine at u = 0 for n >= 1
        u = self.val
        s = n * u ** (n - 1)
        a = self.d
        return Dual(u ** n, (s * a[0], s * a[1], s * a[2], s * a[3]))


def seed(values) -> tuple[Dual, Dual, Dual, Dual]:
    """Lift four scalars into Duals carrying the identity Jacobian."""
    v0, v1, v2, v3 = values
    return (Dual(v0, (1.0, 0.0, 0.0, 0.0)),
            Dual(v1, (0.0, 1.0, 0.0, 0.0)),
            Dual(v2, (0.0, 0.0, 1.0, 0.0)),
            Dual(v3, (0.0, 0.0, 0.0, 1.0)))


def value(x) -> float:
    return x.val if isinstance(x, Dual) else float(x)


def grad(x) -> tuple[float, float, float, float]:
    return x.d if isinstance(x, Dual) else _ZERO


def _chain(x, fval: float, dfdx: float):
    a = x.d
    return Dual(fval, (dfdx * a[0], dfdx * a[1], dfdx * a[2], dfdx * a[3]))


def exp(x):
    if isinstance(x, Dual):
        e = math.exp(x.val)
        return _chain(x, e, e)
    return math.exp(x)


def sqrt(x):
    if isinstance(x, Dual):
        r = math.sqrt(x.val)
        return _chain(x, r, 0.5 / r)
    return math.sqrt(x)


def arcsin(x):
    if isinstance(x, Dual):
        return _chain(x, math.asin(x.val), 1.0 / math.sqrt(1.0 - x.val * x.val))
    return math.asin(x)


def cos(x):
    if isinstance(x, Dual):
        return _chain(x, math.cos(x.val), -math.sin(x.val))
    return math.cos(x)


def atan(x):
    if isinstance(x, Dual):
        return _chain(x, math.atan(x.val), 1.0 / (1.0 + x.val * x.val))
    return math.atan(x)


def fabs(x):
    if isinstance(x, Dual):
        # one-sided at 0: the non-negative branch
        return _chain(x, abs(x.val), -1.0 if x.val < 0.0 else 1.0)
    return abs(x)


def vmin(a, b):
    """min(a, b) taking the branch of the smaller primal; a wins ties."""
    return a if a <= b else b


def vmax(a, b):
    """max(a, b) taking the branch of the larger primal; a wins ties."""
    return a if a >= b else b
