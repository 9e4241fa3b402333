"""Accelerator configuration, its legal parameter space, and the area model.

A configuration has seven searched fields: the PE array shape (pe_x, pe_y),
three on-chip cache sizes (activations, weights, outputs), the dataflow type,
and the order of the five tile loops.  Loop orders are written as 5-letter
strings over the dimension letters, outermost loop first:

    B = batch, I = input channel, O = output channel,
    H = output height (rows), W = output width (columns)
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields
from enum import Enum

from .documents import construct, parse_json, read_list, read_object

PE_MIN = 3
PE_MAX = 64
PE_CHOICES = tuple(range(PE_MIN, PE_MAX + 1))  # 62 values

CACHE_STEP_KB = 16
CACHE_CHOICES_KB = tuple(range(64, 529, CACHE_STEP_KB))  # 30 values

LOOP_DIMS = "BIOHW"


class Dataflow(str, Enum):
    """Which operand stays resident in the PE array."""

    WS = "WS"  # weight stationary
    OS = "OS"  # output stationary
    RS = "RS"  # row stationary


def all_loop_orders() -> tuple[str, ...]:
    """All 120 permutations of the five tile loops, lexicographically sorted."""
    return tuple(sorted("".join(p) for p in itertools.permutations(LOOP_DIMS)))


# Each config field's domain, in field order: the exact types a value may
# have, its legal values (the full space's candidates) and the words an
# error uses for them.  `AcceleratorConfig` checks one value of each field
# against it, `ParamSpace` every candidate.
_PE_DOMAIN = ((int,), frozenset(PE_CHOICES), f"an integer in [{PE_MIN}, {PE_MAX}]")
_CACHE_DOMAIN = ((int,), frozenset(CACHE_CHOICES_KB),
                 f"a multiple of {CACHE_STEP_KB} in [{CACHE_CHOICES_KB[0]}, "
                 f"{CACHE_CHOICES_KB[-1]}] KB")
_DOMAIN = {
    "pe_x": _PE_DOMAIN,
    "pe_y": _PE_DOMAIN,
    "act_cache_kb": _CACHE_DOMAIN,
    "wgt_cache_kb": _CACHE_DOMAIN,
    "out_cache_kb": _CACHE_DOMAIN,
    "dataflow": ((str, Dataflow), frozenset(Dataflow),
                 f"a valid dataflow ({', '.join(Dataflow.__members__)})"),
    "loop_order": ((str,), frozenset(all_loop_orders()), f"a permutation of {LOOP_DIMS}"),
}


def _in_domain(name: str, value) -> bool:
    """Whether `value` is legal for the config field `name`.  The type is
    tested first, so a value of any other type, an unhashable one included,
    is refused without a lookup."""
    types, legal, _ = _DOMAIN[name]
    return type(value) in types and value in legal


@dataclass(frozen=True)
class AcceleratorConfig:
    """One point in the accelerator parameter space.

    Construction checks every field against its domain, the full space's
    candidates for that field, and raises one `ValueError` naming each bad
    field; a string dataflow is converted to its `Dataflow`.
    """

    pe_x: int
    pe_y: int
    act_cache_kb: int
    wgt_cache_kb: int
    out_cache_kb: int
    dataflow: Dataflow
    loop_order: str

    def __post_init__(self):
        bad = [name for name in _DOMAIN if not _in_domain(name, getattr(self, name))]
        if bad:
            raise ValueError("invalid accelerator config: " + "; ".join(
                f"{name} {getattr(self, name)!r} is not {_DOMAIN[name][2]}" for name in bad))
        object.__setattr__(self, "dataflow", Dataflow(self.dataflow))

    def as_tuple(self) -> tuple:
        return (
            self.pe_x,
            self.pe_y,
            self.act_cache_kb,
            self.wgt_cache_kb,
            self.out_cache_kb,
            self.dataflow.value,
            self.loop_order,
        )

    def to_dict(self) -> dict:
        """The accelerator document of this config (see `load_accel`)."""
        return dict(zip(_CONFIG_KEYS, self.as_tuple()))


# Document keys, in field order; equal to the field names.
_CONFIG_KEYS = tuple(f.name for f in fields(AcceleratorConfig))


def check_range(obj, lows: dict, what: str) -> None:
    """Raise `ValueError` unless each field of `obj` named in `lows` lies in
    [its low bound, 2**64], a low bound being 0 or a power of two.  NaN lies
    in no range."""
    for name, low in lows.items():
        value = getattr(obj, name)
        if not low <= value <= 2.0**64:
            low_text = f"2**{math.frexp(low)[1] - 1}" if low else "0"
            raise ValueError(f"{name} must lie in [{low_text}, 2**64] ({what}), got {value!r}")


@dataclass(frozen=True)
class AreaConstants:
    """Area model coefficients (mm²); placeholders of sane magnitude, not silicon data.

    Each lies in [0, 2**64], so a legal config's area stays below 2**77 mm².
    """

    per_pe_mm2: float = 0.002
    per_kb_mm2: float = 0.0005
    fixed_mm2: float = 0.1

    def __post_init__(self):
        check_range(self, dict.fromkeys((f.name for f in fields(self)), 0.0),
                    "the area constants' range")


# The one default instance, shared by every call given none: it is frozen.
DEFAULT_AREA = AreaConstants()


def area(cfg: AcceleratorConfig, constants: AreaConstants | None = None) -> float:
    """Die area estimate: PE term + cache term + fixed overhead."""
    constants = constants or DEFAULT_AREA
    cache_kb = cfg.act_cache_kb + cfg.wgt_cache_kb + cfg.out_cache_kb
    return (
        cfg.pe_x * cfg.pe_y * constants.per_pe_mm2
        + cache_kb * constants.per_kb_mm2
        + constants.fixed_mm2
    )


@dataclass(frozen=True)
class ParamSpace:
    """Candidate lists for each of the seven config fields.

    Restricting any list to a subset yields a reduced space for oracle
    experiments; every candidate must lie in its config field's domain (one
    of the full space's candidates), and no list may hold a candidate twice.
    """

    pe_x: tuple[int, ...] = PE_CHOICES
    pe_y: tuple[int, ...] = PE_CHOICES
    act_cache_kb: tuple[int, ...] = CACHE_CHOICES_KB
    wgt_cache_kb: tuple[int, ...] = CACHE_CHOICES_KB
    out_cache_kb: tuple[int, ...] = CACHE_CHOICES_KB
    dataflows: tuple[Dataflow, ...] = (Dataflow.WS, Dataflow.OS, Dataflow.RS)
    loop_orders: tuple[str, ...] = field(default_factory=all_loop_orders)

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, tuple(getattr(self, f.name)))
        for f, name, values in zip(fields(self), _DOMAIN, self.candidates):
            if not values:
                raise ValueError(f"{f.name} candidate list is empty")
            # the domain goes before the repeat test, which hashes every candidate
            bad = [v for v in values if not _in_domain(name, v)]
            if bad:
                raise ValueError(f"{f.name} candidates {bad} are not each {_DOMAIN[name][2]}")
            if len(set(values)) < len(values):
                # a repeated candidate would be scored twice by the exhaustive
                # engine and drawn twice as often by the sampling engines
                repeated = [getattr(v, "value", v) for i, v in enumerate(values) if v in values[:i]]
                raise ValueError(f"{f.name} candidates repeat: {repeated}")
        object.__setattr__(self, "dataflows", tuple(map(Dataflow, self.dataflows)))

    @property
    def candidates(self) -> tuple[tuple, ...]:
        """The seven candidate lists in config field order."""
        return tuple(getattr(self, f.name) for f in fields(self))

    @property
    def field_sizes(self) -> tuple[int, ...]:
        return tuple(len(values) for values in self.candidates)

    def config_at(self, choices) -> AcceleratorConfig:
        """Build a config from per-field candidate indices, one per field
        (`ValueError` for any other count)."""
        return AcceleratorConfig(*(values[i] for values, i in
                                   zip(self.candidates, choices, strict=True)))


def space_cardinality(space: ParamSpace) -> int:
    return math.prod(space.field_sizes)


def load_accel(text: str) -> AcceleratorConfig:
    """Parse an accelerator config document (JSON object with the 7 fields)."""
    where = "accelerator document"
    doc = read_object(parse_json(text, where), where, _CONFIG_KEYS, _CONFIG_KEYS)
    return construct(AcceleratorConfig, where, **doc)


def load_space(text: str) -> ParamSpace:
    """Parse a parameter-space document; omitted fields default to the full space."""
    where = "space document"
    doc = read_object(parse_json(text, where), where, _CONFIG_KEYS)
    kwargs = {f.name: read_list(doc[key], where, key)
              for key, f in zip(_CONFIG_KEYS, fields(ParamSpace)) if key in doc}
    return construct(ParamSpace, where, **kwargs)
