"""Machine verification of the commuting-probability theorems over catalogs."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Callable, Sequence

from .braces import (
    SkewBrace,
    annihilator,
    classify_subset,
    cyclic_brace,
    is_two_sided,
    nilpotency_class,
    quotient_brace,
    quotient_tables,
    series,
    sub_braces,
    validate_skew_brace,
)
from .errors import ParseError
from .groups import prime_divisors
from .isoclinism import gamma2, induced_tables, is_stem, isoclinism_classes
from .probability import (
    bound_report,
    commuting_probability,
    cyclic_gcd_formula,
    has_five_eighths_shape,
    outer_centralizer_sizes,
    strict_centralizer_hypothesis,
)

CatalogEntries = Sequence[tuple[tuple[int, int], SkewBrace]]


@dataclass(frozen=True)
class TheoremVerdict:
    theorem_id: str
    scope: str
    checked: int
    violations: tuple[tuple[tuple[int, int], str], ...]
    notes: tuple[str, ...] = ()

    @property
    def status(self) -> str:
        if self.violations:
            return "fail"
        if self.checked == 0:
            return "vacuous"
        return "pass"

    def to_json_dict(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "scope": self.scope,
            "checked": self.checked,
            "violations": [
                {"id": list(i), "details": d} for i, d in self.violations
            ],
            "notes": list(self.notes),
            "status": self.status,
        }


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _verdict(theorem_id, scope, checked, violations, notes=()):
    return TheoremVerdict(
        theorem_id=theorem_id,
        scope=scope,
        checked=checked,
        violations=tuple(violations),
        notes=tuple(notes),
    )


def check_gap(entries: CatalogEntries, scope: str) -> TheoremVerdict:
    """Pb lies in {1, 3/4} or (0, 5/8]; Pb = 1 exactly for Ann = B."""
    violations = []
    for cid, B in entries:
        pb = commuting_probability(B)
        if not (pb in (1, Fraction(3, 4)) or 0 < pb <= Fraction(5, 8)):
            violations.append((cid, f"Pb = {_frac(pb)} lies outside {{1, 3/4}} and (0, 5/8]"))
        if (pb == 1) != (len(annihilator(B)) == B.n):
            violations.append((cid, "Pb = 1 but Ann != B or vice versa"))
    return _verdict("gap-5/8", scope, len(entries), violations)


def check_three_quarters(entries: CatalogEntries, scope: str) -> TheoremVerdict:
    violations = []
    for cid, B in entries:
        pb = commuting_probability(B)
        d = B.n // len(annihilator(B))
        if (pb == Fraction(3, 4)) != (d == 2):
            violations.append((cid, f"Pb = {_frac(pb)} with d = {d}"))
    return _verdict("three-quarters-iff-index-2", scope, len(entries), violations)


def check_five_eighths(entries: CatalogEntries, scope: str) -> TheoremVerdict:
    """Pb = 5/8 iff d = 4 with all outer centralizers of half order; in that
    case both quotient groups are Klein four (non-cyclic of order 4)."""
    violations = []
    attained = 0
    for cid, B in entries:
        pb = commuting_probability(B)
        ann = annihilator(B)
        d = B.n // len(ann)
        if (pb == Fraction(5, 8)) != has_five_eighths_shape(B):
            violations.append((cid, f"Pb = {_frac(pb)}, d = {d}"))
            continue
        if pb == Fraction(5, 8):
            attained += 1
            Q, _ = quotient_brace(B, ann)
            if Q.n != 4 or 4 in Q.add.element_orders or 4 in Q.mul.element_orders:
                violations.append((cid, "quotient by Ann is not Klein four"))
    notes = (f"Pb = 5/8 attained by {attained} braces",)
    return _verdict("five-eighths", scope, len(entries), violations, notes)


def check_bounds(entries: CatalogEntries, scope: str) -> TheoremVerdict:
    violations = []
    strict_hyp = 0
    for cid, B in entries:
        rep = bound_report(B)
        for v in rep.verdicts:
            if v.applicable and not v.holds:
                violations.append((cid, f"{v.name}: {_frac(v.lhs)} vs {_frac(v.rhs)}"))
            if v.name == "lower-strict-centralizers" and v.applicable:
                strict_hyp += 1
        outer = outer_centralizer_sizes(B)
        if len(outer) and not rep.pb < Fraction(2 * int(outer.max()), B.n):
            violations.append((cid, "Pb < 2|Cb(x)|/|B| fails at the maximum"))
    notes = (f"strict-centralizer hypothesis held for {strict_hyp} braces",)
    return _verdict("bounds", scope, len(entries), violations, notes)


def check_monotonicity(entries: CatalogEntries, scope: str) -> TheoremVerdict:
    """Over every sub-brace H and ideal N of each catalog brace:
    Pb(B) <= Pb(H), Pb(H)/[B:H]^2 < Pb(B), and Pb(B) <= Pb(N) Pb(B/N)."""
    violations = []
    checked = 0
    # Few distinct tables occur among the sub-braces and quotients of a
    # catalog, so each distinct (add, mul) pair is validated and measured
    # once per call; the byte length of a table fixes its order.
    pbs: dict[tuple[bytes, bytes], Fraction] = {}

    def pb_of(add, mul) -> Fraction:
        key = (add.tobytes(), mul.tobytes())
        if key not in pbs:
            pbs[key] = commuting_probability(validate_skew_brace(add, mul))
        return pbs[key]

    for cid, B in entries:
        pb = commuting_probability(B)
        ideals = []  # (N, Pb(N)) in sub_braces order
        for members in sub_braces(B):
            checked += 1
            kind = classify_subset(B, members)
            ph = pb_of(*induced_tables(B, members, kind))
            idx = B.n // len(members)
            if pb > ph:
                violations.append((cid, f"Pb(B) > Pb(H) for H = {members}"))
            if len(members) < B.n and not ph / (idx * idx) < pb:
                violations.append((cid, f"index-squared bound fails for {members}"))
            if kind.is_ideal:
                ideals.append((members, ph))
        for members, pn in ideals:
            checked += 1
            add_q, mul_q, _ = quotient_tables(B, members)
            if pb > pn * pb_of(add_q, mul_q):
                violations.append((cid, f"Pb(B) > Pb(N)Pb(B/N) for N = {members}"))
    return _verdict("monotonicity", scope, checked, violations)


def check_prime_index(entries: CatalogEntries, scope: str) -> TheoremVerdict:
    """If |B/Ann| is prime p then Pb = (2p-1)/p^2; conversely, when p is the
    smallest prime of |B| and Pb = (2p-1)/p^2, the quotient is Z_p."""
    violations = []
    checked = 0
    for cid, B in entries:
        ann = annihilator(B)
        d = B.n // len(ann)
        pb = commuting_probability(B)
        if prime_divisors(d) == [d]:
            checked += 1
            if pb != Fraction(2 * d - 1, d * d):
                violations.append((cid, f"d = {d} prime but Pb = {_frac(pb)}"))
        if B.n > 1:
            p = prime_divisors(B.n)[0]
            if d > 1 and pb == Fraction(2 * p - 1, p * p):
                checked += 1
                Q, _ = quotient_brace(B, ann)
                if Q.n != p or p not in Q.add.element_orders:
                    violations.append((cid, "quotient by Ann is not Z_p"))
    return _verdict("prime-index", scope, checked, violations)


def check_p_squared(entries: CatalogEntries, scope: str) -> TheoremVerdict:
    """Braces of order p^2 are nilpotent with Pb in {1, (2p-1)/p^2}."""
    violations = []
    checked = 0
    for cid, B in entries:
        ps = prime_divisors(B.n)
        if len(ps) != 1 or B.n != ps[0] ** 2:
            continue
        checked += 1
        p = ps[0]
        pb = commuting_probability(B)
        if nilpotency_class(B) is None:
            violations.append((cid, "order p^2 brace not nilpotent"))
        if pb not in (Fraction(1), Fraction(2 * p - 1, p * p)):
            violations.append((cid, f"Pb = {_frac(pb)} not in {{1, (2p-1)/p^2}}"))
    return _verdict("p-squared", scope, checked, violations)


def check_gamma2_order_two(entries: CatalogEntries, scope: str) -> TheoremVerdict:
    violations = []
    checked = 0
    for cid, B in entries:
        if len(gamma2(B)) != 2:
            continue
        checked += 1
        if nilpotency_class(B) != 2:
            violations.append((cid, "|Gamma_2| = 2 but class != 2"))
    return _verdict("gamma2-order-2", scope, checked, violations)


def check_two_sided_pn(entries: CatalogEntries, scope: str) -> TheoremVerdict:
    violations = []
    checked = 0
    for cid, B in entries:
        if B.n <= 1 or len(prime_divisors(B.n)) != 1:
            continue
        if not is_two_sided(B):
            continue
        checked += 1
        if nilpotency_class(B) is None:
            violations.append((cid, "two-sided prime-power brace not nilpotent"))
    return _verdict("two-sided-prime-power", scope, checked, violations)


def check_65_128(entries: CatalogEntries, scope: str) -> TheoremVerdict:
    violations = []
    checked = 0
    for cid, B in entries:
        if commuting_probability(B) <= Fraction(65, 128):
            continue
        checked += 1
        if nilpotency_class(B) is None:
            violations.append((cid, "Pb > 65/128 but not nilpotent"))
    return _verdict(
        "nilpotent-65/128",
        scope,
        checked,
        violations,
        notes=("scope-limited: catalog orders only, not the full proof range",),
    )


def check_isoclinism_invariance(entries: CatalogEntries, scope: str) -> TheoremVerdict:
    """Isoclinic catalog braces share Pb and |Gamma_2 intersect Ann|; each
    class has a stem member when the catalog holds the order a stem member
    must have, and equal-order members are stem together."""
    violations = []
    braces = [B for _, B in entries]
    orders = {B.n for B in braces}
    classes = isoclinism_classes(braces)
    checked = skipped = 0
    for cls in classes:
        checked += 1
        pbs = {commuting_probability(braces[i]) for i in cls}
        if len(pbs) > 1:
            violations.append(
                (entries[cls[0]][0], "isoclinic braces with distinct Pb")
            )
        meets = [
            len(set(gamma2(braces[i])) & set(annihilator(braces[i]))) for i in cls
        ]
        if len(set(meets)) > 1:
            violations.append(
                (entries[cls[0]][0], "isoclinic braces with distinct |Gamma_2 n Ann|")
            )
        stems = [is_stem(braces[i]) for i in cls]
        if not any(stems):
            # a stem member has Ann inside Gamma_2, so its order is |B/Ann| |Gamma_2 n Ann|
            first = braces[cls[0]]
            if first.n // len(annihilator(first)) * meets[0] in orders:
                violations.append((entries[cls[0]][0], "class without a stem brace"))
            else:
                skipped += 1
        by_order: dict[int, set[bool]] = {}
        for i, stem in zip(cls, stems):
            by_order.setdefault(braces[i].n, set()).add(stem)
        if any(len(s) > 1 for s in by_order.values()):
            violations.append(
                (entries[cls[0]][0], "equal-order members disagree on stem")
            )
    notes = (f"{len(classes)} isoclinism classes",)
    if skipped:
        notes += (
            f"{skipped} classes not checked for a stem member: its order is outside the catalog",
        )
    return _verdict("isoclinism-invariance", scope, checked, violations, notes)


def check_cyclic_formula(entries: CatalogEntries, scope: str) -> TheoremVerdict:
    """gcd-sum formula equals the pair-count probability for every valid (n, d)."""
    violations = []
    checked = 0
    for n in sorted({B.n for _, B in entries}):
        rad = prod(prime_divisors(n))
        for d in range(1, n + 1):
            if n % d != 0 or d % rad != 0:
                continue
            checked += 1
            if cyclic_gcd_formula(n, d) != commuting_probability(cyclic_brace(n, d)):
                violations.append(((n, d), f"formula mismatch at n={n}, d={d}"))
    return _verdict("cyclic-formula", scope, checked, violations)


def check_ann_gamma(entries: CatalogEntries, scope: str) -> TheoremVerdict:
    """Ann_m(B) = B exactly when Gamma_{m+1}(B) = 1."""
    violations = []
    for cid, B in entries:
        ann_terms = series(B, "ann")
        gamma_terms = series(B, "gamma")
        ann_reaches = len(ann_terms[-1]) == B.n
        gamma_dies = len(gamma_terms[-1]) == 1
        if ann_reaches != gamma_dies:
            violations.append((cid, "ann series and gamma series disagree"))
        # the gamma chain runs B = Gamma_1 down to Gamma_{c+1} = 1, one term
        # longer than the ann chain Ann_1 up to Ann_c = B
        elif ann_reaches and B.n > 1 and len(gamma_terms) != len(ann_terms) + 1:
            violations.append((cid, "series lengths disagree on the class"))
    return _verdict("ann-gamma-equivalence", scope, len(entries), violations)


THEOREMS: dict[str, Callable[[CatalogEntries, str], TheoremVerdict]] = {
    "gap-5/8": check_gap,
    "three-quarters-iff-index-2": check_three_quarters,
    "five-eighths": check_five_eighths,
    "bounds": check_bounds,
    "monotonicity": check_monotonicity,
    "prime-index": check_prime_index,
    "p-squared": check_p_squared,
    "gamma2-order-2": check_gamma2_order_two,
    "two-sided-prime-power": check_two_sided_pn,
    "nilpotent-65/128": check_65_128,
    "isoclinism-invariance": check_isoclinism_invariance,
    "cyclic-formula": check_cyclic_formula,
    "ann-gamma-equivalence": check_ann_gamma,
}


def select_theorems(names: Sequence[str] = ()) -> list[str]:
    """The named theorems, all of them if none are named; ParseError names
    any that are unknown."""
    selected = list(names) if names else list(THEOREMS)
    unknown = [n for n in selected if n not in THEOREMS]
    if unknown:
        raise ParseError(f"unknown theorems: {', '.join(unknown)}")
    return selected


def run_theorems(
    entries: CatalogEntries, scope: str, names: Sequence[str] = ()
) -> list[TheoremVerdict]:
    return [THEOREMS[n](entries, scope) for n in select_theorems(names)]


def open_question_observations(entries: CatalogEntries) -> dict:
    """Reported-only observations: not asserted as theorems.

    - whether any non-trivial brace satisfies the strict-centralizer
      hypothesis Ann subsetneq Cb(x) for all x,
    - whether any non-trivial brace has no proper non-trivial sub-brace
      (a non-trivial simple-like candidate),
    - whether some left-star chain term fails to be an ideal.
    """
    strict = []
    no_proper_sub = []
    star_left_non_ideal = []
    for cid, B in entries:
        if 1 < len(annihilator(B)) < B.n and strict_centralizer_hypothesis(B):
            strict.append(list(cid))
        if B.n > 1 and all(len(s) in (1, B.n) for s in sub_braces(B)):
            no_proper_sub.append(list(cid))
        for term in series(B, "star_left"):
            if not classify_subset(B, term).is_ideal:
                star_left_non_ideal.append(list(cid))
                break
    return {
        "strict_centralizer_hypothesis": strict,
        "no_proper_nontrivial_sub_brace": no_proper_sub,
        "left_star_chain_term_not_ideal": star_left_non_ideal,
    }
