"""Codimension-3 arithmetically Gorenstein resolutions over P^5.

A surface S in P^5 in this family has a self-dual length-3 resolution

    0 -> O(-socle) -> (+) O(-m_j) -> (+) O(-n_i) -> I_S -> 0

recorded here as twist/multiplicity pairs.  Multiplicities may be affine
expressions in one named parameter, so one surface's resolution padded with
a varying number of ghost pairs is a single record; parse_resolution
refuses a second parameter, and validate a parameter that adds more than
ghost pairs, so every check and count at one value holds at all of them.
All section counts derived from a resolution are exact, not
Euler-characteristic approximations, because the terms are sums of line
bundles on P^5 whose middle cohomology vanishes.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Mapping, Sequence
from math import comb
from typing import NamedTuple

from .combinatorics import Count, EulerNumber


class UnresolvedParameterError(ValueError):
    """A parametric quantity was evaluated without a parameter value."""


class ResolutionValidationError(ValueError):
    """A resolution failed a structural invariant."""


class DegenerateResolutionError(ValueError):
    """The Hilbert polynomial does not describe a surface."""


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

#: (twist, count) pairs at one parameter value: sorted, merged, counts > 0.
Blocks = list[tuple[int, int]]

#: The most [twist, mult] pairs parse_resolution takes in gens or in syz.  The KMR count
#: pairs every generator block with every syzygy block, so its cost grows as its square.
MAX_PAIRS = 128

#: The largest |twist| and |socle| parse_resolution takes.  Binomials grow with a twist's
#: digits: kmr at MAX_PAIRS on a (1,1,K) complete intersection padded with 63 ghost pairs
#: spread over 1..socle takes about 20 ms in-process at socle 10**6, 48 ms at 10**30,
#: 0.65 s at 10**300 and 3.7 s at 10**1000 (2-vCPU Xeon).  Every twist is checked here, at
#: parse, before validate bounds the generator twists by the socle.
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
    """Twist data of a self-dual length-3 resolution of I_S on P^5."""

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

    def blocks(self, x: int | None = None) -> tuple[Blocks, Blocks]:
        """Twist/count blocks (generators, syzygies) at x.

        Each list is sorted by twist, with equal twists merged and zero
        counts dropped.  This is the one place multiplicities are
        evaluated and checked; every count is a sum over these blocks.
        Multiplicities are read in record order, tracking the one
        parameter name as they go.  Every refusal asks parameter() first,
        so a record built directly with two parameters is refused for
        that whatever else is wrong; otherwise the first multiplicity
        with the parameter but no x, or with a count below 0, is refused.
        A negative count names its list, and x when the multiplicity has
        the parameter.
        """
        name = None
        out: list[Blocks] = []
        for label, vector in (("gens", self.generators), ("syz", self.syzygies)):
            merged: dict[int, int] = {}
            for twist, mult in vector:
                const, coeff, param = mult
                if param is None:
                    count = const
                else:
                    if param != name:  # the first name met, or a second one
                        if name is not None or x is None:
                            self.parameter()  # raises on a second name
                            mult.evaluate(x)  # else raises: no value for the parameter
                        name = param
                    count = const + coeff * x
                if count < 0:
                    self.parameter()
                    where = "" if param is None else f" at x={x}"
                    raise ResolutionValidationError(
                        f"{label} multiplicity {mult} of twist {twist} is {count}{where}"
                    )
                if count:
                    merged[twist] = merged.get(twist, 0) + count
            out.append(sorted(merged.items()))
        return out[0], out[1]

    def expand(self, x: int | None = None) -> tuple[list[int], list[int]]:
        """Multiplicity-expanded twist lists (generators, syzygies) at x, ascending."""
        gens, syz = self.blocks(x)
        return [t for t, c in gens for _ in range(c)], [t for t, c in syz for _ in range(c)]


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


class Violation(NamedTuple):
    """One failed structural invariant, located at a parameter value or range."""

    invariant: str
    param_value: int | range | None
    detail: str

    def __str__(self) -> str:
        x = self.param_value
        if isinstance(x, range):  # a one-point range prints as its point
            step = "" if x.step == 1 else f" step {x.step}"
            x = x[0] if x[0] == x[-1] else f"{x[0]}..{x[-1]}{step}"
        where = "" if x is None else f" at x={x}"
        return f"{self.invariant}{where}: {self.detail}"


def _domain(res: GorensteinResolution) -> tuple[int | None, int | None]:
    """The interval {x : every multiplicity >= 0} of a one-parameter record as (lo, hi).

    lo > hi when it is empty; None marks an open end, where no
    multiplicity bounds x.
    """
    lo = hi = None
    for _, (const, coeff, _) in res.generators + res.syzygies:
        if coeff > 0:
            bound = -(const // coeff)  # ceil(-const / coeff)
            if lo is None or bound > lo:
                lo = bound
        elif coeff < 0:
            bound = const // -coeff
            if hi is None or bound < hi:
                hi = bound
    return lo, hi


def _negative_span(mult: AffineExpr, grid: range) -> range:
    """The grid points, ascending, where mult < 0: a prefix or a suffix, as mult is affine."""
    if grid.step < 0:
        grid = grid[::-1]
    value, slope = mult.evaluate(grid[0]), mult.coeff * grid.step
    if slope > 0:  # negative for i < -value / slope
        return grid[: max(0, -(value // slope))]
    if slope < 0:  # negative for i > value / -slope
        return grid[max(0, value // -slope + 1) :]
    return grid if value < 0 else grid[:0]


def validate(res: GorensteinResolution, grid: range | None = None) -> list[Violation]:
    """Check balance, ghost pairs, self-duality and twist range; never raises.

    An ideal sheaf of a surface has no sections in degree <= 0, so a
    generator twist n is >= 1; its dual, the syzygy twist socle - n,
    relates generators of twist >= 1, so it is >= 1 too and n is below
    the socle.  Under self-duality that one range 1 <= n <= socle - 1
    bounds the syzygy twists as well.  Outside it the KMR pair sum is
    wrong.  A parameter may only add ghost pairs: twists t and socle - t
    with 1 <= t <= socle - 1, with one slope on both lists.  First, at
    every twist t, its slope summed over gens must equal its slope summed
    over syz (cancelling pairs), or the violation names each twist whose
    net count, generators minus syzygies, moves.  The x-part of the
    Hilbert series of I_S is x sum_t (kappa^gens_t - kappa^syz_t) z^t /
    (1 - z)^6, so that holds exactly when the Hilbert function of S does
    not depend on x; _kmr's docstring shows that h^0(N_S) then does not
    either.  Then the generator slope must be equal at t and socle - t,
    and zero outside 1..socle - 1 (ghost pairs).  The record at x is then
    the record at x0 plus (x - x0) times a self-dual set of ghost pairs in
    range, so the rank balance, self-duality, twist range and generator
    count that hold at x0 hold at every x, and they are checked there
    (see _walk).  A negative multiplicity is reported once per
    expression, with the grid points where it is negative.  A record
    built directly with two parameters is one violation.  Returns every
    violation found, in the order _walk checks them.
    """
    return _walk(res, grid)[0]


def _walk(
    res: GorensteinResolution, grid: range | None = None
) -> tuple[list[Violation], tuple[Blocks, Blocks] | None]:
    """validate's checks, and the (generators, syzygies) blocks of the point x0.

    x0 is None without a parameter; else the grid's low end, or without
    a grid the finite end of the admissible interval (_domain), its low
    end when both are finite.  The checks run in this order, and each of
    1, 3 and 4 ends the walk when it fails, so there are no blocks (None):
    1. two parameter names, read once from parameter();
    2. degree balance: Sum(n_i) - Sum(m_j) + socle, as const + coeff * x,
       must vanish for the twist data to come from a resolution; then
       cancelling pairs: the slope of each twist's net count must vanish,
       and when it does, ghost pairs: the generator slope must be equal
       at t and socle - t and vanish outside 1..socle - 1;
    3. an empty grid or admissible interval;
    4. negative multiplicities, once per expression: on a grid, the
       points where it is negative; off one x0 is admissible, so only a
       constant can be negative there;
    5. on the blocks of x0: no generators (which skips the rest), rank
       balance, self-duality, twist range.
    Checks 2 and 4 read the record in one pass per twist vector.
    """
    violations: list[Violation] = []
    try:
        name = res.parameter()
    except UnresolvedParameterError as exc:
        return [Violation("unresolved-parameters", None, str(exc))], None

    socle = res.socle_twist
    const, coeff = socle, 0
    net: dict[int, int] = {}  # twist -> slope of its count of generators minus syzygies
    added: dict[int, int] = {}  # twist -> slope of its count of generators
    on_grid = name is not None and bool(grid)  # an empty grid is refused below
    negative = []
    for sign, label, vector in ((1, "gens", res.generators), (-1, "syz", res.syzygies)):
        for twist, mult in vector:
            count, slope, _ = mult
            const += sign * twist * count
            coeff += sign * twist * slope
            if slope:
                net[twist] = net.get(twist, 0) + sign * slope
                if sign > 0:
                    added[twist] = added.get(twist, 0) + slope
            where = _negative_span(mult, grid) if on_grid else None
            if where or (where is None and count < 0 and not slope):
                detail = f"{label} multiplicity {mult} of twist {twist} is negative"
                negative.append(Violation("negative-multiplicity", where, detail))
    if const != 0 or coeff != 0:
        residual = f"{const} {coeff:+d}*{name}" if coeff else str(const)
        detail = f"twist sums leave residual {residual}"
        violations.append(Violation("degree-balance", None, detail))
    moving = ", ".join(str(t) for t in sorted(net) if net[t])
    unpaired = ", ".join(
        str(t)
        for t in sorted(added)
        if added[t] and (added.get(socle - t, 0) != added[t] or not 1 <= t < socle)
    )
    if moving:
        detail = (
            f"{name} moves the net count of generators minus syzygies at twists {moving};"
            " a parameter may only add cancelling pairs"
        )
        violations.append(Violation("cancelling-pairs", None, detail))
    elif unpaired:
        detail = (
            f"{name} adds pairs at twists {unpaired} that are not ghost pairs"
            f" {{t, {socle} - t}} with 1 <= t <= {socle - 1}"
        )
        violations.append(Violation("ghost-pairs", None, detail))

    x0 = None
    if name is not None and grid is not None:
        if not grid:
            return violations + [Violation("empty-grid", None, "parameter grid is empty")], None
        x0 = min(grid[0], grid[-1])
    elif name is not None:
        lo, hi = _domain(res)
        if lo is not None and hi is not None and lo > hi:
            detail = (
                f"no value of {name} makes every multiplicity >= 0"
                f" ({lo} <= {name} <= {hi} is empty)"
            )
            return violations + [Violation("empty-domain", None, detail)], None
        x0 = hi if lo is None else lo
    if negative:
        return violations + negative, None

    gens, syz = res.blocks(x0)
    if not gens:
        return violations + [Violation("trivial-rank", x0, "no generators")], (gens, syz)
    # gens ascend with distinct twists, so their duals ascend when reversed; equal
    # blocks have equal ranks, so the ranks are summed only when self-duality fails
    if syz != [(socle - n, c) for n, c in reversed(gens)]:
        rank, syz_rank = sum(c for _, c in gens), sum(c for _, c in syz)
        if rank != syz_rank:
            detail = f"{rank} generators vs {syz_rank} syzygies"
            violations.append(Violation("rank-balance", x0, detail))
        detail = f"syzygy twists differ from {socle} minus generator twists"
        violations.append(Violation("self-duality", x0, detail))
    if gens[0][0] < 1 or gens[-1][0] >= socle:
        low = [f"generator twist {n} is below 1" for n, _ in gens if n < 1]
        high = [
            f"generator twist {n} is not below the socle {socle}" for n, _ in gens if n >= socle
        ]
        violations += [Violation("twist-range", x0, detail) for detail in low + high]
    return violations, (gens, syz)


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
    """h^0(I_S(t)), exact alternating sum over the resolution terms.

    Exactness holds because h^1 and h^2 of line bundles on P^5 vanish,
    so both kernel corrections in the section-count chase are zero.
    """
    return term_sum(*res.blocks(x), res.socle_twist, t)


class SurfaceInvariants(NamedTuple):
    """Numerical invariants read off the Hilbert polynomial of S."""

    degree: Count
    sectional_genus: int
    chi_structure: EulerNumber

    def chi(self, t: int) -> EulerNumber:
        """chi(O_S(t)) = degree t(t+1)/2 + (1 - genus) t + chi(O_S), at every integer t."""
        return self.degree * t * (t + 1) // 2 + (1 - self.sectional_genus) * t + self.chi_structure


def surface_invariants(res: GorensteinResolution, x: int | None = None) -> SurfaceInvariants:
    """Degree, sectional genus and chi(O_S) in closed form (see _invariants)."""
    return _invariants(*res.blocks(x), res.socle_twist)


def _invariants(gens: Blocks, syz: Blocks, socle: int) -> SurfaceInvariants:
    """surface_invariants on one point's blocks, in one pass over the terms (n, w).

    P(t) = chi(O_S(t)) = sum w binom(t - n + 5, 5) over (0, 1), (n_i, -c_i), (m_j, c_j) and
    (socle, -1) must be an honest degree-2 polynomial: its third differences vanish (three
    consecutive zeros certify degree <= 2) and its second, the surface degree, is positive.
    By Pascal's rule the j-th difference of P is sum w binom(t - n + 5, 5 - j).  With a = 4 - n,
    the third differences at t = -2, -1, 0 sum (a-1)(a-2), a(a-1) and (a+1)a over 2; the
    degree sums a(a-1)(a-2) over 6, 1 - genus = P(0) - P(-1) sums a(a-1)(a-2)(a-3) over 24,
    and chi(O_S) = P(0) sums (a+1)a(a-1)(a-2)(a-3) over 120.  Each division is exact: a
    product of k consecutive integers is divisible by k!.

    Lemma: the degree > 2 refusal never fires on a resolution validate accepts.  With
    S_j = sum w n^j a third difference is [S_0 (t+5)(t+4) - S_1 (2t+9) + S_2] / 2; rank
    balance gives S_0 = 0, degree balance S_1 = 0, and self-duality with degree balance
    S_2 = 0.  The check stays for blocks that were not validated.
    """
    weight = linear = degree = genus_term = chi = 0
    third1 = 0  # sum w a(a-1); (a-1)(a-2) = a(a-1) - 2a + 2 and (a+1)a = a(a-1) + 2a
    for n, w in ((0, 1), *((n, -c) for n, c in gens), *syz, (socle, -1)):
        a = 4 - n
        weight += w
        w *= a  # w times the falling product a(a-1)...(a-k+1), one factor a step
        linear += w
        w *= a - 1
        third1 += w
        w *= a - 2
        degree += w
        w *= a - 3
        genus_term += w
        chi += w * (a + 1)
    third = [third1 // 2 - linear + weight, third1 // 2, third1 // 2 + linear]
    if any(third):
        raise DegenerateResolutionError(
            f"Hilbert polynomial has degree > 2 (third differences {third})"
        )
    degree //= 6
    if degree <= 0:
        raise DegenerateResolutionError(
            f"Hilbert polynomial has degree < 2 (leading difference {degree})"
        )
    return SurfaceInvariants(
        degree=degree, sectional_genus=1 - genus_term // 24, chi_structure=chi // 120
    )
