"""Workload data model: square convolution operators and subnets.

An operator is described by seven integers (kernel, stride, out_rows,
in_channels, out_channels, act_bits, wgt_bits).  Feature maps and kernels are
square; the input spatial extent is derived from the output extent, so padding
is never specified independently:

    in_rows = (out_rows - 1) * stride + kernel

Operator range.  The cost model carries integers in int64 and DRAM byte
counts in float64, exact to 1/8 byte.  Both stay exact for every tiling
(tile sizes up to T = 2**TILE_POW2_MAX) of an operator whose worst cases,
taken over all tilings, fit:

    padded MACs   pad(IC) * pad(OC) * pad(R)**2 * K**2                < 2**63
    DRAM bits     8 * pad(IC) * OC * halo**2                          (act)
                + 8 * pad(IC) * pad(OC) * R**2 * K**2                 (wgt)
                + 64 * IC * pad(OC) * pad(R)**2                       (out)  < 2**53

with R = out_rows, K = kernel, pad(d) = d + T - 1 the largest padded extent
of a dimension, and halo = pad(R) * stride + R * (K - 1) the largest input
extent the activation tiles of one row or column cover.  The padded MACs
bound every int64 product (tile counts times tile MACs, passes times cell
MACs, fetch-count products); bits below 2**53 keep every byte count and
partial sum of them an exact float64.  `OperatorDescriptor` rejects any
other shape.  The cost constants have a range of their own, derived from
this one, in `acceldse.costmodel.CostConstants`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Iterator

from .documents import construct, parse_json, read_list, read_object

ALLOWED_BITS = (2, 4, 8)
TILE_POW2_MAX = 10  # tile sizes are powers of two up to 2**TILE_POW2_MAX


@dataclass(frozen=True)
class OperatorDescriptor:
    """One convolution workload; immutable and validated at construction."""

    kernel: int
    stride: int
    out_rows: int
    in_channels: int
    out_channels: int
    act_bits: int
    wgt_bits: int

    def __post_init__(self):
        for name in ("kernel", "stride", "out_rows", "in_channels", "out_channels"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        for name in ("act_bits", "wgt_bits"):
            value = getattr(self, name)
            if type(value) is not int or value not in ALLOWED_BITS:
                raise ValueError(f"{name} must be one of {ALLOWED_BITS}, got {value!r}")
        if not _in_range(self):
            raise ValueError(
                f"operator shape {encode_operator(self)[:5]} is outside the cost model's "
                "exact range (see the operator range in the workload module)"
            )

    @property
    def in_rows(self) -> int:
        return (self.out_rows - 1) * self.stride + self.kernel


# The operator's fields in order: the encoding vector's and the document's.
OPERATOR_FIELDS = tuple(f.name for f in fields(OperatorDescriptor))


@dataclass(frozen=True)
class SubnetDescriptor:
    """An ordered sequence of operators forming one concrete network path."""

    operators: tuple[OperatorDescriptor, ...]

    def __post_init__(self):
        if not self.operators:
            raise ValueError("empty subnet")
        object.__setattr__(self, "operators", tuple(self.operators))

    def __len__(self) -> int:
        return len(self.operators)

    def __iter__(self) -> Iterator[OperatorDescriptor]:
        return iter(self.operators)

    def __getitem__(self, index: int) -> OperatorDescriptor:
        return self.operators[index]

    def to_dict(self) -> dict:
        """The workload document of this subnet (see `load_subnet`)."""
        return {"operators": [dict(zip(OPERATOR_FIELDS, encode_operator(op))) for op in self]}


_SUBNET_KEYS = tuple(f.name for f in fields(SubnetDescriptor))


_PAD = 2**TILE_POW2_MAX - 1  # a dimension's padded extent is at most d + _PAD


def _in_range(op: OperatorDescriptor) -> bool:
    """Whether `op` lies in the operator range of the module docstring."""
    rows, k, ic, oc = op.out_rows, op.kernel, op.in_channels, op.out_channels
    p_ic, p_oc, p_rows = ic + _PAD, oc + _PAD, rows + _PAD
    halo = p_rows * op.stride + rows * (k - 1)
    rows_k = rows * k
    padded_macs = p_ic * p_oc * (p_rows * k) ** 2
    dram_bits = (8 * p_ic * (oc * halo * halo + p_oc * rows_k * rows_k)
                 + 64 * ic * p_oc * p_rows * p_rows)
    return padded_macs < 2**63 and dram_bits < 2**53


# encode_operator(op): the 7-field encoding vector, fixed field order.
encode_operator = attrgetter(*OPERATOR_FIELDS)


def operator_from_dict(raw, where: str) -> OperatorDescriptor:
    """Read one operator object of a workload or supernet document."""
    read_object(raw, where, OPERATOR_FIELDS, OPERATOR_FIELDS)
    return construct(OperatorDescriptor, where, *[raw[name] for name in OPERATOR_FIELDS])


def load_subnet(text: str) -> SubnetDescriptor:
    """Parse a workload document: ``{"operators": [{...7 integer fields...}, ...]}``."""
    where = "workload document"
    doc = read_object(parse_json(text, where), where, _SUBNET_KEYS, _SUBNET_KEYS)
    ops = read_list(doc["operators"], where, "operators")
    return construct(SubnetDescriptor, where,
                     tuple(operator_from_dict(raw, f"operator {i}") for i, raw in enumerate(ops)))
