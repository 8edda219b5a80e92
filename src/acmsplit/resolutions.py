"""Codimension-3 arithmetically Gorenstein resolutions over P^5.

A surface S in P^5 in this family has a self-dual length-3 resolution

    0 -> O(-socle) -> (+) O(-m_j) -> (+) O(-n_i) -> I_S -> 0

recorded here as twist/multiplicity pairs.  Multiplicities may be affine
expressions in one named parameter so a whole family of resolutions (for
example a varying number of cubic generators) is a single record.  All
section counts derived from a resolution are exact, not Euler-characteristic
approximations, because the terms are sums of line bundles on P^5 whose
middle cohomology vanishes.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Callable, Mapping, Sequence
from typing import NamedTuple

from .combinatorics import Count, EulerNumber
from .proj_cohomology import AMBIENT_DIM, chi_pn, h0_pn


class UnresolvedParameterError(ValueError):
    """A parametric quantity was evaluated without a parameter value."""


class ResolutionValidationError(ValueError):
    """A resolution failed a structural invariant."""


class DegenerateResolutionError(ValueError):
    """The Hilbert polynomial does not describe a surface."""


class NonConstantScanError(ArithmeticError):
    """A quantity that must not depend on the family parameter did."""


_TERM_RE = re.compile(
    r"""\s*(?:
        (?P<coeff>[+-]?\d+)\s*\*\s*(?P<pvar>[A-Za-z_]\w*)   # k*x
      | (?P<svar>[+-]?)\s*(?P<bvar>[A-Za-z_]\w*)            # x or -x
      | (?P<csign>[+-]?)\s*(?P<cdigits>\d+)                 # bare integer
    )\s*""",
    re.VERBOSE,
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

    def substitute(self, name: str, replacement: "AffineExpr") -> "AffineExpr":
        """Replace the named parameter by another affine expression."""
        if self.param != name:
            return self
        return AffineExpr(
            const=self.const + self.coeff * replacement.const,
            coeff=self.coeff * replacement.coeff,
            param=replacement.param if replacement.coeff != 0 else None,
        )

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


def _parse_twist_vector(raw: object, label: str) -> TwistVector:
    if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
        raise ResolutionValidationError(f"{label} must be a list of [twist, mult] pairs")
    out = []
    for entry in raw:
        if not isinstance(entry, Sequence) or isinstance(entry, (str, bytes)) or len(entry) != 2:
            raise ResolutionValidationError(f"{label} entries must be [twist, mult] pairs")
        twist, mult = entry
        if isinstance(twist, bool) or not isinstance(twist, int):
            raise ResolutionValidationError(f"{label} twist must be an integer")
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

    @property
    def subcanonical_e(self) -> int:
        """e with omega_S = O_S(e); equals socle_twist - 6 on P^5."""
        return self.socle_twist - 6

    def free_parameters(self) -> set[str]:
        names = set()
        for _, mult in self.generators + self.syzygies:
            if mult.param is not None:
                names.add(mult.param)
        return names

    @property
    def is_parametric(self) -> bool:
        return bool(self.free_parameters())

    def parameter(self) -> str | None:
        """The one free parameter, or None; two or more must be balanced first."""
        names = sorted(self.free_parameters())
        if len(names) > 1:
            raise UnresolvedParameterError(
                f"resolution has parameters {', '.join(names)};"
                " apply the balance relation before evaluating"
            )
        return names[0] if names else None

    def substitute(self, name: str, replacement: AffineExpr) -> "GorensteinResolution":
        return GorensteinResolution(
            generators=tuple((t, m.substitute(name, replacement)) for t, m in self.generators),
            syzygies=tuple((t, m.substitute(name, replacement)) for t, m in self.syzygies),
            socle_twist=self.socle_twist,
        )

    def blocks(self, x: int | None = None) -> tuple[Blocks, Blocks]:
        """Twist/count blocks (generators, syzygies) at x.

        Each list is sorted by twist, with equal twists merged and zero
        counts dropped.  This is the one place multiplicities are
        evaluated and checked; every count is a sum over these blocks.
        """
        self.parameter()
        out: list[Blocks] = []
        for vector in (self.generators, self.syzygies):
            merged: dict[int, int] = {}
            for twist, mult in vector:
                count = mult.evaluate(x)
                if count < 0:
                    raise ResolutionValidationError(
                        f"multiplicity {mult} of twist {twist} is {count} at x={x}"
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
    return GorensteinResolution(
        generators=_parse_twist_vector(data["gens"], "gens"),
        syzygies=_parse_twist_vector(data["syz"], "syz"),
        socle_twist=socle,
    )


def degree_balance_form(res: GorensteinResolution) -> tuple[int, dict[str, int]]:
    """Sum(n_i) - Sum(m_j) + socle as (constant, parameter coefficients).

    The identity must vanish for the twist data to come from an actual
    resolution; with several parameters its vanishing is the linear
    relation linking them.
    """
    const = res.socle_twist
    coeffs: dict[str, int] = {}
    for sign, vector in ((1, res.generators), (-1, res.syzygies)):
        for twist, mult in vector:
            const += sign * twist * mult.const
            if mult.param is not None:
                coeffs[mult.param] = coeffs.get(mult.param, 0) + sign * twist * mult.coeff
    return const, {k: v for k, v in coeffs.items() if v != 0}


class Violation(NamedTuple):
    """One failed structural invariant, located at a parameter value or range."""

    invariant: str
    param_value: int | range | None
    detail: str

    def __str__(self) -> str:
        x = self.param_value
        if isinstance(x, range):
            x = f"{x[0]}..{x[-1]}" + ("" if x.step == 1 else f" step {x.step}")
        where = "" if x is None else f" at x={x}"
        return f"{self.invariant}{where}: {self.detail}"


def admissible(res: GorensteinResolution) -> tuple[int | None, int | None]:
    """The interval {x : every multiplicity >= 0} as (lo, hi), lo > hi when empty.

    None marks an open end: no multiplicity bounds x on that side.  The
    bounds are on one parameter, so two raise UnresolvedParameterError.
    """
    res.parameter()
    mults = [mult for _, mult in res.generators + res.syzygies]
    lows = [-(m.const // m.coeff) for m in mults if m.coeff > 0]  # ceil(-const / coeff)
    highs = [m.const // -m.coeff for m in mults if m.coeff < 0]
    return max(lows, default=None), min(highs, default=None)


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


def scan_points(res: GorensteinResolution, grid: range | None = None) -> list[int | None]:
    """The certificate points a resolution is evaluated at: [None] without a parameter.

    The scan domain is the grid, which validate requires to lie inside
    the admissible interval, or else that interval itself.  Its points
    are both ends and a middle point of a bounded domain, or the finite
    end and the next two values of a half-line.  They certify the whole
    domain of a balanced one-parameter resolution that validate accepts:
    - every multiplicity is affine in x and >= 0 on the domain, so block
      counts, ranks, h0_ideal, chi_structure_poly and the degree, genus
      and third differences of surface_invariants are affine there;
    - kmr_h0_normal is quadratic: by self-duality the partial sums of the
      ascending generator blocks equal those of the descending syzygy
      blocks, so each _pairs_before(a, b) stays on one branch, and the
      two branches agree at a = b;
    - so each identity checked (rank balance, self-duality per twist,
      zero third differences, degree = c2, genus, and constancy of
      h0_ideal, chi_structure_poly and kmr_h0_normal) is a polynomial of
      degree <= 2 in x, which vanishes on the domain when it vanishes at
      three distinct points;
    - the one inequality, surface degree > 0, is affine: it holds between
      the ends of a bounded domain, and on a half-line it also needs the
      degree not to fall toward the open end, which checked_resolution
      checks.  A rank, a sum of multiplicities, cannot fall to 0 there.
    Points are computed, not listed, so a grid past sys.maxsize costs
    what a short one does.  An empty domain raises ValueError.
    """
    name = res.parameter()
    if name is None:
        return [None]
    if grid is not None:
        if not grid:
            raise ValueError("parameter grid is empty")
        (lo, hi), step = sorted((grid[0], grid[-1])), abs(grid.step)
    else:
        (lo, hi), step = admissible(res), 1
        if hi is None:
            return [lo, lo + 1, lo + 2]
        if lo is None:
            return [hi, hi - 1, hi - 2]
        if lo > hi:
            raise ValueError(
                f"no value of {name} makes every multiplicity >= 0"
                f" ({lo} <= {name} <= {hi} is empty)"
            )
    middle = lo + step * (((hi - lo) // step + 1) // 2)
    return list(dict.fromkeys([lo, middle, hi]))


def scan_constant(
    evaluate: Callable[[int | None], int], points: list[int | None], what: str
) -> int:
    """The value at the scan points (see scan_points), which must be constant.

    The family parameter counts resolution terms that cancel; a value
    that moves with it means corrupted twist data, so it is reported
    rather than averaged away.
    """
    values = {x: evaluate(x) for x in points}
    distinct = set(values.values())
    if len(distinct) != 1:
        raise NonConstantScanError(f"{what} varies across the certificate points: {values}")
    return distinct.pop()


def validate(res: GorensteinResolution, grid: range | None = None) -> list[Violation]:
    """Check self-duality, rank balance, degree balance and twist range; never raises.

    A negative multiplicity is reported once per expression, with the
    grid points where it is negative; the rest is checked at the scan
    points (see scan_points).  An ideal sheaf of a surface has no
    sections in degree <= 0, so a generator twist is >= 1 and, dually,
    a syzygy twist is below the socle; outside that range the KMR pair
    sum is wrong.  Returns every violation found.
    """
    violations: list[Violation] = []
    names = res.free_parameters()
    if len(names) > 1:
        detail = "parameters " + ", ".join(sorted(names)) + " need a balance relation first"
        return [Violation("unresolved-parameters", None, detail)]

    const, coeffs = degree_balance_form(res)
    if const != 0 or coeffs:
        residual = " ".join([str(const)] + [f"{v:+d}*{k}" for k, v in sorted(coeffs.items())])
        detail = f"twist sums leave residual {residual}"
        violations.append(Violation("degree-balance", None, detail))

    try:
        points = scan_points(res, grid)
    except ValueError as exc:
        tag = "empty-domain" if grid is None else "empty-grid"
        return violations + [Violation(tag, None, str(exc))]

    negative = []
    for twist, mult in res.generators + res.syzygies:
        # off a grid the scan points are admissible, so only a constant can be negative
        where = _negative_span(mult, grid) if names and grid is not None else None
        if where or (where is None and mult.evaluate(points[0]) < 0):
            detail = f"multiplicity {mult} of twist {twist} is negative"
            negative.append(Violation("negative-multiplicity", where, detail))
    if negative:
        return violations + negative

    socle = res.socle_twist
    for x in points:
        gens, syz = res.blocks(x)
        if not gens:
            violations.append(Violation("trivial-rank", x, "no generators"))
            continue
        rank, syz_rank = sum(c for _, c in gens), sum(c for _, c in syz)
        if rank != syz_rank:
            detail = f"{rank} generators vs {syz_rank} syzygies"
            violations.append(Violation("rank-balance", x, detail))
        if syz != sorted((socle - n, c) for n, c in gens):
            detail = f"syzygy twists differ from {socle} minus generator twists"
            violations.append(Violation("self-duality", x, detail))
        low = [f"generator twist {n} is below 1" for n, _ in gens if n < 1]
        high = [f"syzygy twist {m} is not below the socle {socle}" for m, _ in syz if m >= socle]
        violations += [Violation("twist-range", x, detail) for detail in low + high]
    return violations


def term_sum(
    value: Callable[[int, int], int], gens: Blocks, syz: Blocks, socle: int, t: int
) -> int:
    """sum_i value(t - n_i) - sum_j value(t - m_j) + value(t - socle) over P^5.

    The alternating sum over the resolution of I_S, taken block by
    block: a block of count c contributes c times its term.
    """
    total = sum(c * value(AMBIENT_DIM, t - n) for n, c in gens)
    total -= sum(c * value(AMBIENT_DIM, t - m) for m, c in syz)
    return total + value(AMBIENT_DIM, t - socle)


def h0_ideal(res: GorensteinResolution, t: int, x: int | None = None) -> Count:
    """h^0(I_S(t)), exact alternating sum over the resolution terms.

    Exactness holds because h^1 and h^2 of line bundles on P^5 vanish,
    so both kernel corrections in the section-count chase are zero.
    """
    return term_sum(h0_pn, *res.blocks(x), res.socle_twist, t)


def h0_structure(res: GorensteinResolution, t: int, x: int | None = None) -> Count:
    """h^0(O_S(t)) = h^0(O_{P^5}(t)) - h^0(I_S(t)); zero for t < 0."""
    if t < 0:
        return 0
    return h0_pn(AMBIENT_DIM, t) - h0_ideal(res, t, x)


def _chi_structure(gens: Blocks, syz: Blocks, socle: int, t: int) -> EulerNumber:
    return chi_pn(AMBIENT_DIM, t) - term_sum(chi_pn, gens, syz, socle, t)


def chi_structure_poly(res: GorensteinResolution, t: int, x: int | None = None) -> EulerNumber:
    """chi(O_S(t)) continued polynomially to every integer twist."""
    return _chi_structure(*res.blocks(x), res.socle_twist, t)


class SurfaceInvariants(NamedTuple):
    """Numerical invariants read off the Hilbert polynomial of S."""

    degree: Count
    sectional_genus: int
    chi_structure: EulerNumber


def surface_invariants(res: GorensteinResolution, x: int | None = None) -> SurfaceInvariants:
    """Degree, sectional genus and chi(O_S) by finite differences.

    P(t) = chi(O_S(t)) must be an honest degree-2 polynomial: its third
    differences vanish identically (degree <= 2 is certified by three
    consecutive zero third differences) and its leading difference, the
    surface degree, is positive.
    """
    gens, syz = res.blocks(x)
    values = [_chi_structure(gens, syz, res.socle_twist, t) for t in range(-2, 4)]
    third = [
        values[i + 3] - 3 * values[i + 2] + 3 * values[i + 1] - values[i]
        for i in range(3)
    ]
    if any(third):
        raise DegenerateResolutionError(
            f"Hilbert polynomial has degree > 2 (third differences {third})"
        )
    degree = values[3] - 2 * values[2] + values[1]
    if degree <= 0:
        raise DegenerateResolutionError(
            f"Hilbert polynomial has degree < 2 (leading difference {degree})"
        )
    genus = 1 - (values[2] - values[1])
    return SurfaceInvariants(
        degree=degree, sectional_genus=genus, chi_structure=values[2]
    )
