"""Codimension-3 arithmetically Gorenstein resolutions over P^5.

A surface S in P^5 in this family has a self-dual length-3 resolution

    0 -> O(-socle) -> (+) O(-m_j) -> (+) O(-n_i) -> I_S -> 0

recorded here as twist/multiplicity pairs.  Every count reads the record
through its Hilbert numerator P(z) = 1 - sum_t net(t) z^t - z^socle, where
net(t) is the number of generators minus the number of syzygies of twist t;
validate accepts a record exactly when P is the numerator of a surface's
Hilbert series.  Multiplicities may be affine expressions in one named
parameter, so one surface's resolution padded with a varying number of
cancelling pairs is a single record; parse_resolution refuses a second
parameter, and validate a parameter that moves a net count.
All section counts derived from a resolution are exact, not
Euler-characteristic approximations, because the terms are sums of line
bundles on P^5 whose middle cohomology vanishes.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Mapping, Sequence
from math import comb, inf
from typing import NamedTuple

from .combinatorics import Count, EulerNumber


class UnresolvedParameterError(ValueError):
    """A parametric quantity was evaluated without a parameter value."""


class ResolutionValidationError(ValueError):
    """A resolution failed a structural invariant."""


_TERM_RE = re.compile(
    r"""\s*(?:
        (?P<coeff>[+-]?\d+)\s*\*\s*(?P<pvar>[A-Za-z_]\w*)   # k*x
      | (?P<svar>[+-]?)\s*(?P<bvar>[A-Za-z_]\w*)            # x or -x
      | (?P<csign>[+-]?)\s*(?P<cdigits>\d+)                 # bare integer
    )\s*""",
    re.VERBOSE | re.ASCII,  # \d would match every Unicode digit, and int() reads them all
)


class AffineExpr(namedtuple("AffineExpr", "const coeff param")):
    """An integer affine expression const + coeff * param.

    At most one named parameter; constant expressions have param None.
    """

    __slots__ = ()

    def __new__(cls, const: int = 0, coeff: int = 0, param: str | None = None) -> AffineExpr:
        if param is None and coeff != 0:
            raise ValueError("coefficient without a parameter name")
        # normalize k*x with k = 0 down to a constant
        return super().__new__(cls, const, coeff, param if coeff else None)

    def evaluate(self, x: int | None = None) -> int:
        if self.param is None:
            return self.const
        if x is None:
            raise UnresolvedParameterError(
                f"expression {self} needs a value for parameter {self.param!r}"
            )
        return self.const + self.coeff * x

    def __str__(self) -> str:
        if self.param is None:
            return str(self.const)
        if self.coeff == 1:
            head = self.param
        elif self.coeff == -1:
            head = f"-{self.param}"
        else:
            head = f"{self.coeff}*{self.param}"
        if self.const == 0:
            return head
        sign = "+" if self.const > 0 else "-"
        return f"{head} {sign} {abs(self.const)}"


def parse_affine(text: str) -> AffineExpr:
    """Parse expressions like '3', 'x', '-x', '2*b', 'b-2', '1+2*x'."""
    const = 0
    coeff = 0
    param: str | None = None
    pos = 0
    first = True
    while pos < len(text):
        if not first:
            rest = text[pos:].lstrip()
            if not rest:
                break
            if rest[0] not in "+-":
                raise ValueError(f"cannot parse multiplicity {text!r}")
        match = _TERM_RE.match(text, pos)
        if match is None or match.end() == pos:
            raise ValueError(f"cannot parse multiplicity {text!r}")
        if match.group("cdigits") is not None:
            value = int(match.group("cdigits"))
            const += -value if match.group("csign") == "-" else value
        else:
            if match.group("pvar") is not None:
                name = match.group("pvar")
                k = int(match.group("coeff"))
            else:
                name = match.group("bvar")
                k = -1 if match.group("svar") == "-" else 1
            if param is not None and name != param:
                raise ValueError(
                    f"multiplicity {text!r} mixes parameters {param!r} and {name!r}"
                )
            param = name
            coeff += k
        pos = match.end()
        first = False
    if first:
        raise ValueError("empty multiplicity expression")
    if coeff == 0:
        param = None
    return AffineExpr(const=const, coeff=coeff, param=param)


def parse_multiplicity(value: int | str) -> AffineExpr:
    if isinstance(value, bool):
        raise ValueError("multiplicity must be an integer or expression string")
    if isinstance(value, int):
        return AffineExpr(const=value)
    if isinstance(value, str):
        return parse_affine(value)
    raise ValueError(f"multiplicity must be int or str, got {type(value).__name__}")


#: Twist/multiplicity pairs; the multiset of twists after expansion.
TwistVector = tuple[tuple[int, AffineExpr], ...]

#: (twist, count) pairs, sorted by twist with counts > 0: a record's canonical blocks (see _walk).
Blocks = list[tuple[int, int]]

#: The most [twist, mult] pairs parse_resolution takes in gens or in syz.  The KMR count
#: pairs every generator block with every syzygy block, so its cost grows as its square.
MAX_PAIRS = 128

#: The largest |twist| and |socle| parse_resolution takes.  Binomials grow with a twist's
#: digits: a surface with 127 generator and 127 syzygy blocks spread over 1..socle takes
#: about 10 to 20 ms for the walk and kmr in-process at socle 10**6 (2-vCPU Xeon).  Every
#: twist is checked here, at parse, before validate bounds the powers of P by the socle.
MAX_TWIST = 10**6


def _check_twist(value: int, what: str) -> None:
    if abs(value) > MAX_TWIST:
        raise ResolutionValidationError(
            f"{what} {value} has absolute value above {MAX_TWIST}, the limit a resolution takes"
        )


def _parse_twist_vector(raw: object, label: str) -> TwistVector:
    if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
        raise ResolutionValidationError(f"{label} must be a list of [twist, mult] pairs")
    if len(raw) > MAX_PAIRS:
        raise ResolutionValidationError(
            f"{label} has {len(raw)} [twist, mult] pairs; a resolution takes at most {MAX_PAIRS}"
        )
    out = []
    for entry in raw:
        if not isinstance(entry, Sequence) or isinstance(entry, (str, bytes)) or len(entry) != 2:
            raise ResolutionValidationError(f"{label} entries must be [twist, mult] pairs")
        twist, mult = entry
        if isinstance(twist, bool) or not isinstance(twist, int):
            raise ResolutionValidationError(f"{label} twist must be an integer")
        _check_twist(twist, f"{label} twist")
        try:
            out.append((twist, parse_multiplicity(mult)))
        except ValueError as exc:
            raise ResolutionValidationError(f"{label}: {exc}") from exc
    return tuple(out)


class GorensteinResolution(NamedTuple):
    """Twist data of a length-3 resolution of I_S on P^5, maybe padded with cancelling pairs."""

    generators: TwistVector
    syzygies: TwistVector
    socle_twist: int

    def parameter(self) -> str | None:
        """The record's one parameter, or None; a second name raises UnresolvedParameterError.

        This is the one place the rule is decided.  parse_resolution applies it, so only
        a record built directly can carry two names, and every evaluation refuses it.
        """
        names = {mult.param for _, mult in self.generators + self.syzygies}
        names.discard(None)
        if len(names) > 1:
            raise UnresolvedParameterError(
                f"resolution has parameters {', '.join(sorted(names))}; a record takes at most"
                " one, so substitute the degree-balance relation for one of them"
            )
        return names.pop() if names else None

    def expand(self, x: int | None = None) -> tuple[list[int], list[int]]:
        """Multiplicity-expanded twist lists (generators, syzygies) at x, ascending.

        A second parameter name, the parameter without x, or a count below
        0 raises; a negative count names its list, and x when the
        multiplicity has the parameter.
        """
        self.parameter()
        out = []
        for label, vector in (("gens", self.generators), ("syz", self.syzygies)):
            twists: list[int] = []
            for twist, mult in vector:
                count = mult.evaluate(x)
                if count < 0:
                    where = "" if mult.param is None else f" at x={x}"
                    raise ResolutionValidationError(
                        f"{label} multiplicity {mult} of twist {twist} is {count}{where}"
                    )
                twists += [twist] * count
            out.append(sorted(twists))
        return out[0], out[1]


def parse_resolution(data: Mapping) -> GorensteinResolution:
    """Build a resolution from {'gens': ..., 'syz': ..., 'socle': int}; refuse other keys."""
    if not isinstance(data, Mapping):
        raise ResolutionValidationError("resolution must be a JSON object")
    missing = {"gens", "syz", "socle"} - set(data)
    if missing:
        raise ResolutionValidationError(f"resolution lacks keys: {sorted(missing)}")
    unknown = [key for key in data if key not in ("gens", "syz", "socle")]
    if unknown:
        raise ResolutionValidationError(
            f"resolution has unknown keys {unknown}; it takes only gens, syz and socle"
        )
    socle = data["socle"]
    if isinstance(socle, bool) or not isinstance(socle, int):
        raise ResolutionValidationError("socle must be an integer twist")
    _check_twist(socle, "socle")
    res = GorensteinResolution(
        generators=_parse_twist_vector(data["gens"], "gens"),
        syzygies=_parse_twist_vector(data["syz"], "syz"),
        socle_twist=socle,
    )
    res.parameter()
    return res


class SurfaceInvariants(NamedTuple):
    """Numerical invariants read off the Hilbert polynomial of S."""

    degree: Count
    sectional_genus: int
    chi_structure: EulerNumber

    def chi(self, t: int) -> EulerNumber:
        """chi(O_S(t)) = degree t(t+1)/2 + (1 - genus) t + chi(O_S), at every integer t."""
        return self.degree * t * (t + 1) // 2 + (1 - self.sectional_genus) * t + self.chi_structure


class Violation(NamedTuple):
    """One failed structural invariant."""

    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"{self.invariant}: {self.detail}"


def validate(res: GorensteinResolution, grid: range | None = None) -> list[Violation]:
    """Check that the record is a surface's resolution padded with cancelling pairs; never raises.

    Every count depends on the record only through its net counts
    net(t), generators minus syzygies of twist t (see _kmr), so the
    record is read as its Hilbert numerator P(z) = 1 - sum_t net(t) z^t
    - z^s, s the socle.  A parameter may only add cancelling pairs: the
    violation names each twist whose net count moves with it, since then
    the Hilbert function of S does as well.  A family is valid on an
    interval, the values of its parameter where every multiplicity is
    >= 0, and a grid must lie inside it: one violation names a grid that
    leaves it.  A negative constant is reported once per expression, and
    a record built directly with two parameters is one violation.  Then
    P must be the numerator of a surface, a codimension 3 arithmetically
    Gorenstein one: h = P/(1 - z)^3 is a polynomial with h_0 = 1 and no
    negative power, of length s - 2, symmetric, and with positive sum,
    the surface degree.  That one test holds exactly when the canonical
    record (see _walk) is balanced and self-dual with generator twists in
    1..s - 1, and describes a surface.  Returns every violation found, in
    the order _walk checks them.
    """
    return _walk(res, grid)[0]


def _polynomial(coefficients: dict[int, int]) -> str:
    """A Laurent polynomial in z from {power: coefficient}, ascending: '1 - 2z + 2z^3 - z^4'.

    Past 11 terms only the first and last five print, and a count of the others.
    """
    terms = []
    for power, c in sorted(coefficients.items()):
        monomial = "" if power == 0 else "z" if power == 1 else f"z^{power}"
        size = "" if abs(c) == 1 and monomial else str(abs(c))
        sign = ("-" if c < 0 else "") if not terms else (" - " if c < 0 else " + ")
        terms.append(sign + size + monomial)
    if len(terms) > 11:
        terms[5:-5] = [f" ... ({len(terms) - 10} more terms) ..."]
    return "".join(terms) or "0"


def _walk(
    res: GorensteinResolution, grid: range | None = None
) -> tuple[list[Violation], tuple[tuple[Blocks, Blocks], SurfaceInvariants] | None]:
    """validate's checks, and the canonical blocks and the invariants of a record that passes.

    The canonical blocks (generators, syzygies) hold each twist's net
    count: the positive ones as generators, the negated negative ones as
    syzygies.  They drop every generator/syzygy pair of one twist, which
    moves no count (see _kmr), and with it the parameter.  One pass over
    the record's entries builds P, each twist's slope and the admissible
    interval lo <= x <= hi, where every multiplicity count + slope x is
    >= 0, with an infinite end where no multiplicity bounds x.  The
    checks run in this order, and each of 1, 3, 4 and 5 ends the walk
    when it fails:
    1. two parameter names, read once from parameter();
    2. cancelling pairs: the slope of each twist's net count must vanish;
    3. on a family, an empty grid, then an empty interval;
    4. negative constants, once per expression, and on a family a grid
       whose min or max leaves the interval: each multiplicity is affine
       in x, so it is negative on the grid exactly when it is at an end;
    5. when 2 passed too, the Hilbert numerator P of the net counts, in
       this order: (1 - z)^3 divides P (its moments sum_e e^k P_e vanish
       for k = 0, 1, 2), h = P/(1 - z)^3 has h_0 = P_0 = 1 and no
       negative power, length s - 2, so deg P = s, and is symmetric,
       which is P_e = -P_(s-e), and its sum, the surface degree, is > 0.
    A record without a parameter ignores the grid.  Step 5 reads only P's
    at most 2 MAX_PAIRS + 2 terms, never h, whose length the socle sets.
    Its binomial moments are h's Taylor coefficients at z = 1: sum_j C(j,
    k) h_j = -sum_e C(e, k + 3) P_e, as P(z) = -(z - 1)^3 h(z).  The
    invariants read them off: degree sum_j h_j, genus 1 - sum_j (1 - j)
    h_j, and chi(O_S) = sum_j h_j (2 - j)(1 - j)/2.
    """
    try:
        name = res.parameter()
    except UnresolvedParameterError as exc:
        return [Violation("unresolved-parameters", str(exc))], None

    socle = res.socle_twist
    # P(z) = 1 - sum_t net(t) z^t - z^socle, as {power: coefficient}, from the constant parts
    numerator = {0: 1}
    numerator[socle] = numerator.get(socle, 0) - 1
    slopes: dict[int, int] = {}  # twist -> slope of its net count
    lo, hi = -inf, inf  # the admissible interval
    negative = []
    for sign, label, vector in ((1, "gens", res.generators), (-1, "syz", res.syzygies)):
        for twist, mult in vector:
            count, slope, _ = mult
            numerator[twist] = numerator.get(twist, 0) - sign * count
            if slope:
                slopes[twist] = slopes.get(twist, 0) + sign * slope
                if slope > 0:  # x >= ceil(-count / slope)
                    lo = max(lo, -(count // slope))
                else:  # x <= floor(count / -slope)
                    hi = min(hi, count // -slope)
            elif count < 0:
                detail = f"{label} multiplicity {mult} of twist {twist} is negative"
                negative.append(Violation("negative-multiplicity", detail))
    violations = []
    moving = ", ".join(str(t) for t in sorted(slopes) if slopes[t])
    if moving:
        detail = (
            f"{name} moves the net count of generators minus syzygies at twists {moving};"
            " a parameter may only add cancelling pairs"
        )
        violations.append(Violation("cancelling-pairs", detail))

    if name is not None:
        if grid is not None and not grid:
            return violations + [Violation("empty-grid", "parameter grid is empty")], None
        low, high = (lo, hi) if grid is None else sorted((grid[0], grid[-1]))
        if lo > hi or low < lo or high > hi:
            interval = " <= ".join(str(end) for end in (lo, name, hi) if end not in (-inf, inf))
            if lo > hi:
                detail = f"no value of {name} makes every multiplicity >= 0 ({interval} is empty)"
                return violations + [Violation("empty-domain", detail)], None
            step = "" if grid.step == 1 else f" step {grid.step}"
            where = f"x={low}" if low == high else f"grid {grid[0]}..{grid[-1]}{step}"
            detail = f"{where} leaves {interval}, where every multiplicity is >= 0"
            negative.append(Violation("negative-multiplicity", detail))
    if negative or violations:
        return violations + negative, None

    numerator = {e: c for e, c in numerator.items() if c}
    rank = degree = square = 0  # sum_e e^k P_e for k = 0, 1, 2
    for e, c in numerator.items():
        rank += c
        degree += c * e
        square += c * e * e
    get = numerator.get
    if rank or degree or square:
        failed = "h is not a polynomial"
    elif min(numerator, default=0) < 0 or get(0) != 1:
        failed = "h does not start with h_0 = 1 at z^0"
    elif max(numerator) != socle:
        failed = f"h does not have length socle - 2 = {socle - 2}"
    elif any(get(socle - e) != -c for e, c in numerator.items()):
        failed = "h is not symmetric"
    else:
        total = first = second = 0  # sum_j C(j, k) h_j for k = 0, 1, 2
        for e, c in numerator.items():
            total -= c * comb(e, 3)
            first -= c * comb(e, 4)
            second -= c * comb(e, 5)
        if total > 0:  # net(t) = -P_t strictly between the powers 0 and socle
            terms = sorted(numerator.items())[1:-1]
            gens = [(t, -c) for t, c in terms if c < 0]
            syz = [(t, c) for t, c in terms if c > 0]
            surface = SurfaceInvariants(total, 1 - total + first, total - first + second)
            return [], ((gens, syz), surface)
        failed = f"h sums to {total}, not a positive surface degree"
    detail = f"{failed}, with h = P(z)/(1 - z)^3 and P(z) = {_polynomial(numerator)}"
    return [Violation("hilbert-numerator", detail)], None


def checked_resolution(
    res: GorensteinResolution, grid: range | None = None
) -> tuple[tuple[Blocks, Blocks], SurfaceInvariants]:
    """Validate a resolution and read its surface type: ((gens, syz), invariants).

    This is the one path from raw twist data to counts: evaluate_case,
    the kmr and hilbert commands and the (res, x) wrappers take it.  One
    walk over the record (see _walk) validates it on its admissible
    interval, which a grid must lie inside, and gives its canonical
    blocks, which no admissible parameter value moves, and the invariants
    read off its Hilbert numerator.  Invalid twist data raises
    ResolutionValidationError naming every violation found.
    """
    problems, case = _walk(res, grid)
    if problems:
        raise ResolutionValidationError(
            "invalid resolution: " + "; ".join(str(p) for p in problems)
        )
    return case


def _at(x: int | None) -> range | None:
    """The one-point grid of x, or no grid."""
    return None if x is None else range(x, x + 1)


def term_sum(gens: Blocks, syz: Blocks, socle: int, t: int) -> Count:
    """sum_i h^0(O(t - n_i)) - sum_j h^0(O(t - m_j)) + h^0(O(t - socle)) over P^5.

    The alternating sum over the resolution of I_S, taken block by
    block: a block of count c contributes c times its term.  Each term
    h^0(O_P5(k)) is comb(k + 5, 5) if k >= 0 else 0, binom_trunc's
    convention, written inline.
    """
    total = comb(t - socle + 5, 5) if t >= socle else 0
    for n, c in gens:
        if t >= n:
            total += c * comb(t - n + 5, 5)
    for m, c in syz:
        if t >= m:
            total -= c * comb(t - m + 5, 5)
    return total


def h0_ideal(res: GorensteinResolution, t: int, x: int | None = None) -> Count:
    """h^0(I_S(t)), exact alternating sum over the checked resolution's terms at x.

    Exactness holds because h^1 and h^2 of line bundles on P^5 vanish,
    so both kernel corrections in the section-count chase are zero.
    """
    return term_sum(*checked_resolution(res, _at(x))[0], res.socle_twist, t)


def surface_invariants(res: GorensteinResolution, x: int | None = None) -> SurfaceInvariants:
    """Degree, sectional genus and chi(O_S) of the checked resolution at x (see _walk)."""
    return checked_resolution(res, _at(x))[1]
