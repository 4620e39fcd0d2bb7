"""Per-brace invariant summary used in catalog entries and the CLI."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .braces import (
    SkewBrace,
    StructureFlags,
    nilpotency_class,
    socle_and_annihilator,
    structure_flags,
)
from .errors import require
from .groups import ElementSet
from .probability import commuting_probability, frac_json


@dataclass(frozen=True)
class BraceReport:
    ker_lambda: ElementSet
    socle: ElementSet
    annihilator: ElementSet
    flags: StructureFlags
    nilpotency_class: Optional[int]
    pb: Fraction

    def to_json_dict(self) -> dict:
        return {
            "ker_lambda": list(self.ker_lambda),
            "socle": list(self.socle),
            "annihilator": list(self.annihilator),
            "flags": self.flags.to_json_dict(),
            "nilpotency_class": self.nilpotency_class,
            "pb": frac_json(self.pb),
        }


def brace_report(B: SkewBrace) -> BraceReport:
    ker, soc, ann = socle_and_annihilator(B)
    require(set(ann) <= set(soc) <= set(ker), "Ann, Soc and Ker(lambda) are not nested")
    return BraceReport(
        ker_lambda=ker,
        socle=soc,
        annihilator=ann,
        flags=structure_flags(B),
        nilpotency_class=nilpotency_class(B),
        pb=commuting_probability(B),
    )
