"""Exact algebra of trigonometric monomials in two angles.

A function is represented as a finite sum of monomials

    coeff * cos(phi1)**a * sin(phi1)**b * cos(phi2)**c * sin(phi2)**d

with rational coefficients and rational exponents whose denominators are 1
or 2 (the ladder construction on the sphere only ever produces integer and
half-integer powers; negative exponents encode tan/cot/sec/csc factors).

    TrigPoly ~ dict[(2a, 2b, 2c, 2d) -> int numerator] over one int denominator

Exponents are stored doubled, as plain ints, so products and derivatives add
and hash small ints; `cos^(3/2)` is key component 3.  Coefficients are stored
as int numerators over one denominator, reduced so that the denominator is
positive and shares no factor with all the numerators; the kernel (sums,
products, derivatives, the normal form) does int arithmetic only and divides
out one gcd per result.  Every exact sum is one linear accumulation, `_sum`:
weighted int term dicts are brought to the lcm of their denominators and
added into one int dict, keys in first-occurrence order and zero sums
dropped.  `TrigPoly(terms)`, `+`, `-` and `linear_combine` are calls of it,
and so is the Jacobi closed form of `hierarchy`; `diffop.apply_normal_at`
makes the same accumulation over its memoised image tables.  Products have
the one bilinear accumulation, `sum_of_products` (sum of w_i p_i q_i, as
operator application forms it), of which `mul` is the one-product case.
Fractions appear only at the boundary: the constructors validate and double
Fraction (or int) exponents and take Fraction coefficients, and `items`,
`terms`, `normal_form`, `class_reduce`, `coordinate_vectors` and the JSON
object form give Fractions back.

The stored ("canonical") form only merges identical exponent tuples and drops
zero coefficients; with the reduced denominator it is unique for a map of
Fraction coefficients, so `p == q` is cheap structural equality.  Equality as
functions is decided by `normal_form`, the unique expansion of p over a fixed
basis: a monomial's exponents mod 2 give its residue class (r1, r1', r2, r2'),
and per angle, with s = sin**2, the class's basis is

    cos^r sin^(r' + 2j)  for every integer j,   cos^(r - 2k) sin^r'  for k >= 1,

the partial fractions in s of cos^(r + 2i) sin^(r' + 2j) = s^j (1 - s)^i times
cos^r sin^r'.  A memoised table rewrites cos^(2i) sin^(2j) over this basis
using sin**2 + cos**2 = 1, one angle after the other.  Distinct classes are
linearly independent on the open octant (0, pi/2)^2, which the test suite
additionally guards by random-point sampling, so `normal_form(p)` is empty
exactly when p is the zero function there, and `is_zero`, `proportionality`
and `coordinate_vectors` are read off its int-keyed form.  `normalized(p)`
stores p in that form, as the ladder builder keeps its states.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

Exps = tuple[Fraction, Fraction, Fraction, Fraction]
Key = tuple[int, int, int, int]   # doubled exponents, the stored form

PHI1, PHI2 = 1, 2


def coupling(x) -> Fraction:
    """A coupling, coefficient or exponent as a Fraction; ValueError if it is
    not a finite rational.  A Fraction is returned as it is."""
    if type(x) is Fraction:
        return x
    try:
        return Fraction(x)
    except OverflowError:
        raise ValueError(f"must be a finite rational, got {x!r}") from None


def _exp2(x) -> int:
    """Twice the exponent x, which must have denominator 1 or 2."""
    if type(x) is int:
        return 2 * x
    f = x if isinstance(x, Fraction) else coupling(x)
    if f.denominator not in (1, 2):
        raise ValueError(f"exponent {f} has denominator {f.denominator}; only 1 or 2 allowed")
    return 2 * f.numerator // f.denominator


def _exps(exps) -> Key:
    a, b, c, d = exps
    return (_exp2(a), _exp2(b), _exp2(c), _exp2(d))


@functools.cache
def _half(k: int) -> Fraction:
    return Fraction(k, 2)


def _fracs(key: Key) -> Exps:
    return (_half(key[0]), _half(key[1]), _half(key[2]), _half(key[3]))


@dataclass(frozen=True)
class TrigTerm:
    """One monomial: coeff * cos^a(phi1) sin^b(phi1) cos^c(phi2) sin^d(phi2)."""

    coeff: Fraction
    exps: Exps

    def __post_init__(self):
        if not isinstance(self.coeff, Fraction):
            object.__setattr__(self, "coeff", coupling(self.coeff))
        object.__setattr__(self, "exps", _fracs(_exps(self.exps)))


class TrigPoly:
    """Canonical linear combination of trigonometric monomials.

    `TrigPoly(terms)` takes {exponents: coeff} with Fraction or int exponents
    and coefficients.  The stored form is int numerators over one denominator:
    coefficient of key e is `_terms[e] / _den`, with `_den > 0`, no zero
    numerator and `gcd(_den, *numerators) == 1`.  Immutable by convention:
    nothing mutates `_terms` or `_den` after construction, so the hash is
    computed once, on first use, into the `_hash` slot.
    """

    __slots__ = ("_terms", "_den", "_hash")

    def __init__(self, terms: dict[Exps, Fraction] | None = None):
        p = _sum((c, 1, {_exps(e): 1}) for e, c in (terms or {}).items())
        self._terms = p._terms
        self._den = p._den

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def zero() -> "TrigPoly":
        return TrigPoly()

    @staticmethod
    def constant(c) -> "TrigPoly":
        return _monomial(c, (0, 0, 0, 0))

    @staticmethod
    def monomial(coeff, exps) -> "TrigPoly":
        return _monomial(coeff, _exps(exps))

    # -- canonical views -----------------------------------------------------

    def terms(self) -> Iterator[TrigTerm]:
        """Terms in the canonical (lexicographic exponent) order."""
        for e in sorted(self._terms):
            yield TrigTerm(Fraction(self._terms[e], self._den), _fracs(e))

    def items(self):
        """(Fraction exponents, Fraction coeff) pairs in stored order."""
        return {_fracs(e): Fraction(n, self._den) for e, n in self._terms.items()}.items()

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return self._den == other._den and self._terms == other._terms

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self._den, tuple(sorted(self._terms.items()))))
            return self._hash

    def __repr__(self) -> str:
        if not self._terms:
            return "TrigPoly(0)"
        bits = []
        for t in self.terms():
            bits.append(f"{t.coeff}*c1^{t.exps[0]} s1^{t.exps[1]} c2^{t.exps[2]} s2^{t.exps[3]}")
        return "TrigPoly(" + " + ".join(bits) + ")"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        return _sum(((1, self._den, self._terms), (1, other._den, other._terms)))

    def __neg__(self) -> "TrigPoly":
        return _new({e: -n for e, n in self._terms.items()}, self._den)

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        return _sum(((1, self._den, self._terms), (-1, other._den, other._terms)))

    def __mul__(self, other):
        if isinstance(other, TrigPoly):
            return mul(self, other)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c) -> "TrigPoly":
        cn, cd = _ratio(c)
        if cn == 0:
            return TrigPoly()
        return _reduced({e: cn * n for e, n in self._terms.items()}, cd * self._den)


def _ratio(c) -> tuple[int, int]:
    """(numerator, denominator > 0) of the rational c."""
    if type(c) is int:
        return c, 1
    if not isinstance(c, Fraction):
        c = coupling(c)
    return c.numerator, c.denominator


def _new(terms: dict[Key, int], den: int) -> TrigPoly:
    """TrigPoly storing terms over den as given: nonzero int numerators, den > 0."""
    p = object.__new__(TrigPoly)
    p._terms = terms
    p._den = den
    return p


def _reduced(terms: dict[Key, int], den: int) -> TrigPoly:
    """The canonical TrigPoly of int numerators over den > 0: drops zero
    numerators and divides out gcd(den, *numerators)."""
    if 0 in terms.values():
        terms = {e: n for e, n in terms.items() if n}
    if den != 1:
        g = math.gcd(den, *terms.values())
        if g != 1:
            den //= g
            terms = {e: n // g for e, n in terms.items()}
    return _new(terms, den)


def _monomial(coeff, key: Key) -> TrigPoly:
    cn, cd = _ratio(coeff)
    return _new({key: cn}, cd) if cn else TrigPoly()


def _sum(parts: Iterable[tuple[Fraction | int, int, dict[Key, int]]]) -> TrigPoly:
    """The canonical sum of w * terms / d over the parts (w, d, terms), w
    rational, d a positive int and terms an int numerator dict: the one linear
    accumulation.  Every part is brought to the lcm of the denominators and
    added into one int dict, keys in first-occurrence order; zero sums are
    dropped and one gcd divides out.  Parts with w == 0 or no terms are skipped."""
    kept = []
    den = 1
    for w, d, terms in parts:
        if type(w) is not int:
            w, wd = _ratio(w)
            d *= wd
        if w and terms:
            kept.append((w, d, terms))
            if den % d:
                den = math.lcm(den, d)
    acc: dict[Key, int] = {}
    for w, d, terms in kept:
        w *= den // d
        for e, v in terms.items():
            v *= w
            v0 = acc.get(e)
            acc[e] = v if v0 is None else v0 + v
    return _reduced(acc, den)


def linear_combine(pairs: Sequence[tuple[Fraction, TrigPoly]]) -> TrigPoly:
    """Canonical sum of c_i * p_i."""
    return _sum((c, p._den, p._terms) for c, p in pairs)


def sum_of_products(triples: Iterable[tuple[Fraction | int, TrigPoly, TrigPoly]]) -> TrigPoly:
    """Canonical sum of w_i * p_i * q_i, w_i rational: the one bilinear
    accumulation.  Like `_sum`, it adds every product term by term into one
    int dict over the lcm of the denominators, with one gcd."""
    kept = []
    den = 1
    for w, p, q in triples:
        d = p._den * q._den
        if type(w) is not int:
            w, wd = _ratio(w)
            d *= wd
        if w and p._terms and q._terms:
            kept.append((w, d, p._terms, q._terms))
            if den % d:
                den = math.lcm(den, d)
    acc: dict[Key, int] = {}
    for w, d, pt, qt in kept:
        w *= den // d
        for (a1, b1, c1, d1), v1 in pt.items():
            v1 *= w
            for (a2, b2, c2, d2), v2 in qt.items():
                e = (a1 + a2, b1 + b2, c1 + c2, d1 + d2)
                v = v1 * v2
                v0 = acc.get(e)
                acc[e] = v if v0 is None else v0 + v
    return _reduced(acc, den)


def mul(p: TrigPoly, q: TrigPoly) -> TrigPoly:
    """Exact product; exponents add componentwise."""
    return sum_of_products(((1, p, q),))


def differentiate(p: TrigPoly, var: int) -> TrigPoly:
    """Exact partial derivative, var in {PHI1, PHI2}.

    Per term: d/dphi cos^a sin^b = -a cos^(a-1) sin^(b+1) + b cos^(a+1) sin^(b-1),
    which on doubled exponents (2a, 2b) moves them by (-2, +2) and (+2, -2)
    and multiplies the numerators by -2a and 2b over twice the denominator.
    """
    if var not in (PHI1, PHI2):
        raise ValueError(f"unknown variable {var!r}")
    acc: dict[Key, int] = {}
    for e, n in p._terms.items():
        if var == PHI1:
            a, b, x, y = e
            down, up = (a - 2, b + 2, x, y), (a + 2, b - 2, x, y)
        else:
            x, y, a, b = e
            down, up = (x, y, a - 2, b + 2), (x, y, a + 2, b - 2)
        if a:
            v = -a * n
            v0 = acc.get(down)
            acc[down] = v if v0 is None else v0 + v
        if b:
            v = b * n
            v0 = acc.get(up)
            acc[up] = v if v0 is None else v0 + v
    return _reduced(acc, 2 * p._den)


# -- fixed-basis normal form -------------------------------------------------

ClassKey = tuple[Fraction, Fraction, Fraction, Fraction]


def _pythagoras(i: int, j: int) -> tuple[tuple[int, int, int], ...]:
    """cos^(2i) sin^(2j) over the basis {sin^(2j)} u {cos^(-2k), k >= 1}.

    Returns (i', j', coeff) triples with i' == 0, or i' < 0 and j' == 0: the
    partial-fraction expansion in s = sin^2 of s^j / u^k, u = 1 - s, k = -i:
        s^j / u^k = sum_{m<k} (-1)^m C(j, m) u^(m-k) + (-1)^k sum_r C(j-1-r, k-1) s^r,
        s^-a / u^k = sum_{r=1..a} C(a+k-r-1, k-1) s^-r + sum_{r=1..k} C(a+k-r-1, a-1) u^-r.
    """
    if i >= 0:  # (1 - sin^2)^i sin^(2j)
        return tuple((0, j + m, (-1) ** m * math.comb(i, m)) for m in range(i + 1))
    k, a = -i, -j
    if j >= 0:
        return tuple((m - k, 0, (-1) ** m * math.comb(j, m)) for m in range(min(k, j + 1))) \
            + tuple((0, r, (-1) ** k * math.comb(j - 1 - r, k - 1)) for r in range(j - k + 1))
    return tuple((0, -r, math.comb(a + k - r - 1, k - 1)) for r in range(a, 0, -1)) \
        + tuple((-r, 0, math.comb(a + k - r - 1, a - 1)) for r in range(1, k + 1))


@functools.cache
def _angle_basis(a: int, b: int) -> tuple[tuple[int, int, int], ...]:
    """cos^(a/2) sin^(b/2) over the basis of its residue class, on doubled
    exponents: the class is (a mod 4, b mod 4)."""
    i, j = a // 4, b // 4
    ra, rb = a - 4 * i, b - 4 * j
    return tuple((ra + 4 * i2, rb + 4 * j2, c) for i2, j2, c in _pythagoras(i, j))


def _reduce_angle(terms, ci: int) -> dict[Key, int]:
    """Rewrite the (cos, sin) exponents at positions ci, ci + 1 over the basis;
    the int numerators keep their denominator."""
    acc: dict[Key, int] = {}
    for e, c in terms:
        for x, y, k in _angle_basis(e[ci], e[ci + 1]):
            key = (x, y, e[2], e[3]) if ci == 0 else (e[0], e[1], x, y)
            v = c if k == 1 else c * k
            v0 = acc.get(key)
            acc[key] = v if v0 is None else v0 + v
    return {e: c for e, c in acc.items() if c}


def _normal_form(p: TrigPoly) -> dict[Key, int]:
    """`normal_form` keyed by doubled exponents, as int numerators over p._den."""
    return _reduce_angle(_reduce_angle(p._terms.items(), 0).items(), 2)


def normal_form(p: TrigPoly) -> dict[Exps, Fraction]:
    """The unique expansion of p over the fixed basis, as {exponents: coeff}.

    Empty exactly when p is the zero function on the open octant, and equal
    for any two polys that are equal as functions.
    """
    return {_fracs(e): Fraction(n, p._den) for e, n in _normal_form(p).items()}


def normalized(p: TrigPoly) -> TrigPoly:
    """p stored in its normal form: the same function, with the keys and
    coefficients of `normal_form(p)`; the zero poly exactly when p is zero."""
    return _reduced(_normal_form(p), p._den)


def is_zero(p: TrigPoly) -> bool:
    """True iff p is the zero function on the open octant (0, pi/2)^2."""
    return not _normal_form(p)


def proportionality(p: TrigPoly, q: TrigPoly) -> Fraction | None:
    """c with p == c q as functions; None when q is zero or no such c exists."""
    nq = _normal_form(q)
    if not nq:
        return None
    np_ = _normal_form(p)
    if not np_:
        return Fraction(0)
    if np_.keys() != nq.keys():
        return None
    key = next(iter(nq))
    a, b = np_[key], nq[key]
    # np_ / p._den == c * nq / q._den with c = (a * q._den) / (b * p._den)
    if any(b * v != a * nq[e] for e, v in np_.items()):
        return None
    return Fraction(a * q._den, b * p._den)


def class_reduce(p: TrigPoly) -> dict[ClassKey, dict[Exps, Fraction]]:
    """The normal form of p grouped by residue class (exponents mod 2)."""
    out: dict[ClassKey, dict[Exps, Fraction]] = {}
    for e, n in _normal_form(p).items():
        out.setdefault(_fracs(tuple(x % 4 for x in e)), {})[_fracs(e)] = Fraction(n, p._den)
    return out


def coordinate_vectors(polys: Sequence[TrigPoly]) -> list[dict]:
    """Normal forms of several polys, one coordinate dict each.

    A rational linear combination of the inputs is the zero function iff the
    same combination of the returned dicts vanishes.  The dicts are keyed by
    doubled exponents, as stored, with Fraction values; `normal_form` gives the
    Fraction keys.  Used by the multiplier solver.
    """
    return [{e: Fraction(n, p._den) for e, n in _normal_form(p).items()} for p in polys]


# -- numeric evaluation ------------------------------------------------------

def eval_numeric(p: TrigPoly, phi1: float, phi2: float) -> float:
    """Floating-point value of p at an interior point.

    Relative error is ~1e-13 per term for |exponents| <= 20.  Points outside
    the open octant raise, since negative/fractional powers are singular at
    the boundary, and so does a coefficient, power or value beyond the float
    range.
    """
    half_pi = math.pi / 2
    if not (0.0 < phi1 < half_pi) or not (0.0 < phi2 < half_pi):
        raise ValueError("singular evaluation: point outside open octant (0, pi/2)^2")
    c1, s1 = math.cos(phi1), math.sin(phi1)
    c2, s2 = math.cos(phi2), math.sin(phi2)
    total = 0.0
    den = p._den
    # n / den is correctly rounded, so each term is float(Fraction(n, den)) * ...
    try:
        for e, n in p._terms.items():
            total += n / den * c1 ** (e[0] / 2) * s1 ** (e[1] / 2) \
                * c2 ** (e[2] / 2) * s2 ** (e[3] / 2)
    except OverflowError:
        raise ValueError("a coefficient or power overflows a float") from None
    if not math.isfinite(total):
        raise ValueError("the value overflows a float")
    return total


# -- JSON serialization ------------------------------------------------------

def frac_to_str(x: Fraction) -> str:
    x = coupling(x)
    return f"{x.numerator}/{x.denominator}"


def frac_from_str(s: str) -> Fraction:
    if not isinstance(s, str):
        raise ValueError(f"expected a 'num/den' string, got {s!r}")
    num, den = s.split("/")
    if int(den) == 0:
        raise ValueError(f"zero denominator in {s!r}")
    return Fraction(int(num), int(den))


def obj_field(obj, name: str, kind: type):
    """obj[name] from a parsed JSON object; ValueError unless obj is a dict
    whose field `name` holds a `kind`."""
    if not isinstance(obj, dict) or not isinstance(obj.get(name), kind):
        raise ValueError(f"malformed object: no {kind.__name__} field {name!r} in {obj!r}")
    return obj[name]


@functools.cache
def _half_str(k: int) -> str:
    return frac_to_str(_half(k))


def to_obj(p: TrigPoly) -> dict:
    """{"terms": [{"coeff": "n/d", "exps": ["n/d"] * 4}]} in canonical term order,
    each fraction written in lowest terms straight from the stored ints."""
    den = p._den
    out = []
    for e in sorted(p._terms):
        n = p._terms[e]
        g = math.gcd(n, den)
        out.append({"coeff": f"{n // g}/{den // g}", "exps": [_half_str(k) for k in e]})
    return {"terms": out}


def from_obj(obj: dict) -> TrigPoly:
    """Inverse of `to_obj`; ValueError on a malformed object."""
    return _sum((frac_from_str(obj_field(t, "coeff", str)), 1,
                 {_exps([frac_from_str(e) for e in obj_field(t, "exps", list)]): 1})
                for t in obj_field(obj, "terms", list))


# -- common monomials --------------------------------------------------------

_F0, _F1 = Fraction(0), Fraction(1)
ONE = TrigPoly.constant(1)
COS1 = TrigPoly.monomial(1, (_F1, _F0, _F0, _F0))
SIN1 = TrigPoly.monomial(1, (_F0, _F1, _F0, _F0))
COS2 = TrigPoly.monomial(1, (_F0, _F0, _F1, _F0))
SIN2 = TrigPoly.monomial(1, (_F0, _F0, _F0, _F1))
TAN1 = TrigPoly.monomial(1, (-_F1, _F1, _F0, _F0))
COT1 = TrigPoly.monomial(1, (_F1, -_F1, _F0, _F0))
TAN2 = TrigPoly.monomial(1, (_F0, _F0, -_F1, _F1))
COT2 = TrigPoly.monomial(1, (_F0, _F0, _F1, -_F1))
