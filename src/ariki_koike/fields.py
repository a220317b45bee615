"""Exact coefficient fields (rationals and prime fields) and parameter bundles.

Every computation in this package happens over an exact field: either the
rationals, with elements stored as `fractions.Fraction`, or a prime field
GF(p), with elements stored as `FpElement`.  Both element types support the
usual arithmetic operators, compare equal to Python integers where that makes
sense, and are hashable, so the rest of the library is field-agnostic.

The module also evaluates the three separation/semisimplicity products that
gate the heavier suites:

* ``f_s_value``       -- the split-point separation product f_s(q, Q),
* ``poincare``        -- the Poincare-type semisimplicity product P_H(q, Q),
* ``f_partition_value`` -- the general block-partition product f_Pi(q, Q).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Iterable, Sequence, Union

MAX_PRIME = 97


def _parse_fraction(text: str) -> Fraction:
    """A rational from text such as "3" or "-2/5"; a zero denominator is a ValueError."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{text!r} has a zero denominator") from None


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class FpElement:
    """An element of GF(p), stored as a residue in 0..p-1."""

    __slots__ = ("val", "p")

    def __init__(self, val: int, p: int):
        self.val = val % p
        self.p = p

    def _coerce(self, other) -> "FpElement":
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise ValueError(f"mixed primes {self.p} and {other.p}")
            return other
        if isinstance(other, int):
            return FpElement(other, self.p)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement(self.val + other.val, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement(self.val - other.val, self.p)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement(other.val - self.val, self.p)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement(self.val * other.val, self.p)

    __rmul__ = __mul__

    def __neg__(self):
        return FpElement(-self.val, self.p)

    def inverse(self) -> "FpElement":
        if self.val == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.p})")
        return FpElement(pow(self.val, self.p - 2, self.p), self.p)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return FpElement(pow(self.val, e, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.val == other.val
        if isinstance(other, int):
            return self.val == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.val, self.p))

    def __bool__(self):
        return self.val != 0

    def __lt__(self, other):
        # Residue order; used only to sort content multisets canonically.
        other = self._coerce(other)
        return self.val < other.val

    def __repr__(self):
        return f"{self.val}"


@dataclass(frozen=True)
class Rationals:
    """The field of rational numbers; elements are `Fraction`s."""

    name = "Q"
    # Shared constants: Fractions are immutable.
    zero = Fraction(0)
    one = Fraction(1)

    def __call__(self, x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return _parse_fraction(x)
        raise TypeError(f"cannot coerce {x!r} into Q")

    # The product engine's int form: (den, {k: int}) stands for {k: int / den}.

    def to_ints(self, terms: dict) -> tuple[int, dict]:
        """(den, ints) with terms[k] == ints[k] / den, den the lcm of the denominators."""
        den = 1
        for v in terms.values():
            d = v.denominator
            if den % d:
                den = den // gcd(den, d) * d
        if den == 1:
            return 1, {k: v.numerator for k, v in terms.items()}
        return den, {k: v.numerator * (den // v.denominator) for k, v in terms.items()}

    def canonical(self, den: int, ints: dict) -> tuple[int, dict]:
        """The same values with den their least common denominator and no zero
        int: den and the ints divided by their gcd (a zero int leaves it alone)."""
        g = gcd(den, *ints.values())
        if g == 1:
            return den, {k: a for k, a in ints.items() if a}
        return den // g, {k: a // g for k, a in ints.items() if a}

    def from_ints(self, den: int, ints: dict) -> dict:
        """{k: ints[k] / den} as Fractions, dropping the zeros."""
        if den == 1:
            return {k: Fraction(a) for k, a in ints.items() if a}
        return {k: Fraction(a, den) for k, a in ints.items() if a}

    @property
    def characteristic(self) -> int:
        return 0

    def __repr__(self):
        return "Q"


@dataclass(frozen=True)
class PrimeField:
    """The field GF(p) for a prime p."""

    p: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @property
    def name(self) -> str:
        return f"GF({self.p})"

    def __call__(self, x) -> FpElement:
        if isinstance(x, FpElement):
            if x.p != self.p:
                raise ValueError(f"element of GF({x.p}) used in GF({self.p})")
            return x
        if isinstance(x, int):
            return FpElement(x, self.p)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ValueError(
                    f"{x} is undefined in GF({self.p}): its denominator is divisible by {self.p}")
            return FpElement(x.numerator, self.p) / FpElement(x.denominator, self.p)
        if isinstance(x, str):
            return self(_parse_fraction(x))
        raise TypeError(f"cannot coerce {x!r} into GF({self.p})")

    # The product engine's int form: (1, {k: residue}); the engine leaves the
    # residues unreduced while it adds them, and `canonical` reduces them.

    def to_ints(self, terms: dict) -> tuple[int, dict]:
        """(1, residues) of a term dict."""
        return 1, {k: v.val for k, v in terms.items()}

    def canonical(self, den: int, ints: dict) -> tuple[int, dict]:
        """The same values as (1, residues in 1..p-1): den inverted mod p and
        every int reduced once."""
        p = self.p
        if den == 1:
            return 1, {k: r for k, a in ints.items() if (r := a % p)}
        scale = pow(den, -1, p)
        return 1, {k: r for k, a in ints.items() if (r := a * scale % p)}

    def from_ints(self, den: int, ints: dict) -> dict:
        """{k: ints[k] / den} as FpElements, dropping the zeros."""
        p = self.p
        return {k: FpElement(a, p) for k, a in self.canonical(den, ints)[1].items()}

    # Built once per field; an FpElement is never mutated.
    @cached_property
    def zero(self) -> FpElement:
        return FpElement(0, self.p)

    @cached_property
    def one(self) -> FpElement:
        return FpElement(1, self.p)

    @property
    def characteristic(self) -> int:
        return self.p

    def __repr__(self):
        return self.name


Field = Union[Rationals, PrimeField]
FieldValue = Union[Fraction, FpElement]


def parse_field(text: str) -> Field:
    """Parse a field descriptor: "Q" or "GF(p)"."""
    text = text.strip()
    if text in ("Q", "QQ"):
        return Rationals()
    if text.startswith("GF(") and text.endswith(")"):
        p = int(text[3:-1])
        if p > MAX_PRIME:
            raise ValueError(f"prime {p} exceeds the supported bound {MAX_PRIME}")
        return PrimeField(p)
    raise ValueError(f"unknown field descriptor {text!r}")


class GateError(Exception):
    """A hypothesis gate failed (e.g. the separation product vanishes)."""


class SizeGuardError(Exception):
    """An instance exceeds the configured size bounds."""


class ComputationError(Exception):
    """An internal computation failed; indicates a bug or an infeasible run."""


@dataclass(frozen=True)
class Params:
    """Parameter bundle (field; q; Q_1..Q_r; n; r; optional split point s).

    q must be invertible (nonzero). The split point s, when present, satisfies
    1 <= s <= r; entry points that need a proper two-sided split additionally
    require s < r and raise `GateError` otherwise.
    """

    field: Field
    q: FieldValue
    Q: tuple
    n: int
    r: int
    s: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "q", self.field(self.q))
        object.__setattr__(self, "Q", tuple(self.field(x) for x in self.Q))
        if self.n < 0:
            raise ValueError("n must be non-negative")
        if self.r < 1:
            raise ValueError("r must be at least 1")
        if len(self.Q) != self.r:
            raise ValueError(f"expected {self.r} cyclotomic parameters, got {len(self.Q)}")
        if not self.q:
            raise ValueError("q must be invertible (nonzero)")
        if self.s is not None and not (1 <= self.s <= self.r):
            raise ValueError(f"split point s={self.s} out of range 1..{self.r}")
        if isinstance(self.field, PrimeField) and self.field.p > MAX_PRIME:
            raise ValueError(f"prime {self.field.p} exceeds the supported bound {MAX_PRIME}")

    def q_power(self, a: int) -> FieldValue:
        """q**a for a possibly negative integer a."""
        return self.q ** a

    def require_split(self) -> int:
        """The split point for two-sided Morita runs; rejects s = r.

        The column shape construction assigns component s and component r
        separately, which collide when s = r, so a proper split is required.
        """
        if self.s is None:
            raise GateError("no split point s was supplied")
        if self.s >= self.r:
            raise GateError(
                f"split point s={self.s} must be strictly less than r={self.r} "
                "for the Morita suite (the two parameter groups must be non-empty)"
            )
        return self.s

    def describe(self) -> dict:
        """JSON-friendly rendering, used in reports."""
        d = {
            "field": self.field.name,
            "q": str(self.q),
            "Q": [str(x) for x in self.Q],
            "n": self.n,
            "r": self.r,
        }
        if self.s is not None:
            d["s"] = self.s
        return d


def _pair_product(params: Params, pairs: Iterable[tuple[int, int]]) -> FieldValue:
    """prod over index pairs (i, j) and -n < a < n of (q^a Q_i - Q_j)."""
    value = params.field.one
    for i, j in pairs:
        for a in range(-params.n + 1, params.n):
            value = value * (params.q_power(a) * params.Q[i - 1] - params.Q[j - 1])
    return value


def f_s_value(params: Params) -> FieldValue:
    """The separation product f_s(q, Q) for the split 1..s | s+1..r.

    f_s(q, Q) = prod over 1 <= i <= s < j <= r and -n < a < n of (q^a Q_i - Q_j).
    Its invertibility (nonvanishing, over a field) gates the Morita suite.
    """
    s = params.s
    if s is None or not (1 <= s < params.r):
        raise ValueError("f_s needs a split point with 1 <= s < r")
    return _pair_product(params, ((i, j) for i in range(1, s + 1) for j in range(s + 1, params.r + 1)))


def poincare(params: Params) -> FieldValue:
    """The semisimplicity product P_H(q, Q).

    P_H(q, Q) = prod_{1<=i<j<=r} prod_{|a|<n} (q^a Q_i - Q_j)
                * prod_{k=1}^{n} (1 + q + ... + q^{k-1});
    the algebra over a field is semisimple iff this value is nonzero.
    """
    value = _pair_product(params, itertools.combinations(range(1, params.r + 1), 2))
    qint = params.field.one
    acc = params.field.one
    for k in range(2, params.n + 1):
        acc = acc * params.q
        qint = qint + acc
        value = value * qint
    return value


def f_partition_value(params: Params, blocks: Sequence[Sequence[int]]) -> FieldValue:
    """The block-partition product f_Pi(q, Q).

    `blocks` partitions the index set {1..r}; the product runs over unordered
    pairs of distinct blocks, parameters one from each, and |a| < n.
    """
    seen: set[int] = set()
    for block in blocks:
        if len(block) == 0:
            raise ValueError("empty block in parameter partition")
        for i in block:
            if i in seen or not (1 <= i <= params.r):
                raise ValueError(f"index {i} repeated or out of range in partition")
            seen.add(i)
    if len(seen) != params.r:
        raise ValueError("blocks do not cover the parameter index set")
    return _pair_product(params, ((i, j) for left, right in itertools.combinations(blocks, 2)
                                  for i in left for j in right))


def parse_params_file(text: str, n_override: int | None = None) -> Params:
    """Parse the key=value parameter format.

    Recognized keys: field (Q or GF(p)), q, Q (comma list), n, r, s.
    Blank lines and lines starting with '#' are ignored.
    """
    data: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"bad parameter line {line!r}")
        key, _, val = line.partition("=")
        data[key.strip()] = val.strip()
    field = parse_field(data.get("field", "Q"))
    if "Q" not in data:
        raise ValueError("parameter file is missing Q")
    q_list = [x.strip() for x in data["Q"].split(",") if x.strip()]
    r = int(data["r"]) if "r" in data else len(q_list)
    if n_override is None and "n" not in data:
        raise ValueError("parameter file is missing n")
    n = n_override if n_override is not None else int(data["n"])
    s = int(data["s"]) if "s" in data else None
    return Params(
        field=field,
        q=field(data.get("q", "1")),
        Q=tuple(field(x) for x in q_list),
        n=n,
        r=r,
        s=s,
    )
