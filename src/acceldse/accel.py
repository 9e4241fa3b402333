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

from .documents import construct, parse_json, read_int, read_list, read_object
from .errors import InvalidDocument

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


def is_loop_order(order: str) -> bool:
    return isinstance(order, str) and len(order) == 5 and sorted(order) == sorted(LOOP_DIMS)


@dataclass(frozen=True)
class AcceleratorConfig:
    """One point in the accelerator parameter space.

    Construction performs only type checks; domain invariants are reported by
    :func:`validate_config` so that out-of-range candidates can be examined.
    """

    pe_x: int
    pe_y: int
    act_cache_kb: int
    wgt_cache_kb: int
    out_cache_kb: int
    dataflow: Dataflow
    loop_order: str

    def __post_init__(self):
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
_INT_KEYS = tuple(f.name for f in fields(AcceleratorConfig) if f.type == "int")


def validate_config(cfg: AcceleratorConfig) -> list[str]:
    """Return every violated invariant; an empty list means the config is legal."""
    violations = []
    for name in ("pe_x", "pe_y"):
        value = getattr(cfg, name)
        if value < PE_MIN:
            violations.append(f"{name} below {PE_MIN}")
        elif value > PE_MAX:
            violations.append(f"{name} above {PE_MAX}")
    for name in ("act_cache_kb", "wgt_cache_kb", "out_cache_kb"):
        value = getattr(cfg, name)
        if value not in CACHE_CHOICES_KB:
            if value < CACHE_CHOICES_KB[0] or value > CACHE_CHOICES_KB[-1]:
                violations.append(f"{name} outside {CACHE_CHOICES_KB[0]}..{CACHE_CHOICES_KB[-1]} KB")
            else:
                violations.append(f"{name} not on {CACHE_STEP_KB}KB grid")
    if not is_loop_order(cfg.loop_order):
        violations.append(f"loop_order {cfg.loop_order!r} is not a permutation of {LOOP_DIMS}")
    return violations


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
        check_range(self, dict.fromkeys(("per_pe_mm2", "per_kb_mm2", "fixed_mm2"), 0.0),
                    "the area constants' range")


def area(cfg: AcceleratorConfig, constants: AreaConstants | None = None) -> float:
    """Die area estimate: PE term + cache term + fixed overhead."""
    constants = constants or AreaConstants()
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
    experiments; every candidate must satisfy the config invariants, and no
    list may hold a candidate twice.
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
        object.__setattr__(self, "dataflows", tuple(Dataflow(d) for d in self.dataflows))
        for f, values in zip(fields(self), self.candidates):
            if not values:
                raise ValueError(f"{f.name} candidate list is empty")
            if len(set(values)) < len(values):
                # a repeated candidate would be scored twice by the exhaustive
                # engine and drawn twice as often by the sampling engines
                repeated = [getattr(v, "value", v) for i, v in enumerate(values) if v in values[:i]]
                raise ValueError(f"{f.name} candidates repeat: {repeated}")
        bad = [v for v in self.pe_x + self.pe_y if v < PE_MIN or v > PE_MAX]
        if bad:
            raise ValueError(f"PE candidates outside [{PE_MIN}, {PE_MAX}]: {bad}")
        bad = [
            v
            for v in self.act_cache_kb + self.wgt_cache_kb + self.out_cache_kb
            if v not in CACHE_CHOICES_KB
        ]
        if bad:
            raise ValueError(f"cache candidates outside the legal grid: {bad}")
        bad = [o for o in self.loop_orders if not is_loop_order(o)]
        if bad:
            raise ValueError(f"invalid loop orders: {bad}")

    @property
    def candidates(self) -> tuple[tuple, ...]:
        """The seven candidate lists in config field order."""
        return tuple(getattr(self, f.name) for f in fields(self))

    @property
    def field_sizes(self) -> tuple[int, ...]:
        return tuple(len(values) for values in self.candidates)

    def config_at(self, choices) -> AcceleratorConfig:
        """Build a config from per-field candidate indices."""
        c0, c1, c2, c3, c4, c5, c6 = choices
        return AcceleratorConfig(
            self.pe_x[c0],
            self.pe_y[c1],
            self.act_cache_kb[c2],
            self.wgt_cache_kb[c3],
            self.out_cache_kb[c4],
            self.dataflows[c5],
            self.loop_orders[c6],
        )

    def choices_of(self, cfg: AcceleratorConfig) -> tuple[int, ...]:
        """Per-field candidate indices of `cfg`; the inverse of `config_at`."""
        choices = []
        for values, value in zip(self.candidates, cfg.as_tuple()):
            if value not in values:
                raise ValueError(f"config value {value!r} is not in the search space")
            choices.append(values.index(value))
        return tuple(choices)


def space_cardinality(space: ParamSpace) -> int:
    total = 1
    for n in space.field_sizes:
        total *= n
    return total


def iter_configs(space: ParamSpace):
    """Yield every config exactly once, nested in field order (last field fastest)."""
    for values in itertools.product(*space.candidates):
        yield AcceleratorConfig(*values)


def load_accel(text: str) -> AcceleratorConfig:
    """Parse an accelerator config document (JSON object with the 7 fields)."""
    where = "accelerator document"
    doc = read_object(parse_json(text, where), where, _CONFIG_KEYS, _CONFIG_KEYS)
    values = [read_int(doc[key], where, key) if key in _INT_KEYS else doc[key]
              for key in _CONFIG_KEYS]
    cfg = construct(AcceleratorConfig, where, *values)
    violations = validate_config(cfg)
    if violations:
        raise InvalidDocument("invalid accelerator config: " + "; ".join(violations))
    return cfg


def load_space(text: str) -> ParamSpace:
    """Parse a parameter-space document; omitted fields default to the full space."""
    where = "space document"
    doc = read_object(parse_json(text, where), where, _CONFIG_KEYS)
    kwargs = {
        f.name: read_list(doc[key], where, key, read_int if key in _INT_KEYS else None)
        for key, f in zip(_CONFIG_KEYS, fields(ParamSpace))
        if key in doc
    }
    return construct(ParamSpace, where, **kwargs)
