"""Workload data model: square convolution operators, subnets, and derived footprints.

An operator is described by seven integers (kernel, stride, out_rows,
in_channels, out_channels, act_bits, wgt_bits).  Feature maps and kernels are
square; the input spatial extent is derived from the output extent, so padding
is never specified independently:

    in_rows = (out_rows - 1) * stride + kernel
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from typing import Iterator, Sequence

from .documents import construct, parse_json, read_int, read_list, read_object

ALLOWED_BITS = (2, 4, 8)

OPERATOR_FIELDS = (
    "kernel",
    "stride",
    "out_rows",
    "in_channels",
    "out_channels",
    "act_bits",
    "wgt_bits",
)


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

    @property
    def in_rows(self) -> int:
        return (self.out_rows - 1) * self.stride + self.kernel


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


@dataclass(frozen=True)
class OperatorFootprints:
    """Derived size quantities consumed by the cost model.

    Byte counts are exact (bit counts divided by 8) and therefore floats:
    2-bit tensors with odd element counts occupy fractional bytes.
    """

    macs: int
    act_in_bytes: float
    wgt_bytes: float
    out_elems: int


# encode_operator(op): the 7-field encoding vector, fixed field order.
encode_operator = attrgetter(*OPERATOR_FIELDS)


def decode_operator(vector: Sequence[int]) -> OperatorDescriptor:
    """Inverse of :func:`encode_operator`."""
    if len(vector) != len(OPERATOR_FIELDS):
        raise ValueError(f"operator vector must have 7 entries, got {len(vector)}")
    return OperatorDescriptor(*(int(v) for v in vector))


def operator_footprints(op: OperatorDescriptor) -> OperatorFootprints:
    """MAC count, operand byte sizes, and output element count for one operator."""
    macs = op.kernel**2 * op.in_channels * op.out_channels * op.out_rows**2
    act_in_bytes = op.in_channels * op.in_rows**2 * op.act_bits / 8.0
    wgt_bytes = op.kernel**2 * op.in_channels * op.out_channels * op.wgt_bits / 8.0
    out_elems = op.out_channels * op.out_rows**2
    return OperatorFootprints(macs, act_in_bytes, wgt_bytes, out_elems)


def operator_from_dict(raw, where: str) -> OperatorDescriptor:
    """Read one operator object of a workload or supernet document."""
    read_object(raw, where, OPERATOR_FIELDS, OPERATOR_FIELDS)
    return construct(OperatorDescriptor, where,
                     *[read_int(raw[name], where, name) for name in OPERATOR_FIELDS])


def load_subnet(text: str) -> SubnetDescriptor:
    """Parse a workload document: ``{"operators": [{...7 integer fields...}, ...]}``."""
    where = "workload document"
    doc = read_object(parse_json(text, where), where, _SUBNET_KEYS, _SUBNET_KEYS)
    ops = read_list(doc["operators"], where, "operators")
    return construct(SubnetDescriptor, where,
                     tuple(operator_from_dict(raw, f"operator {i}") for i, raw in enumerate(ops)))


def subnet_to_doc(subnet: SubnetDescriptor) -> str:
    """Serialize a subnet back to the workload document format."""
    return json.dumps(subnet.to_dict(), indent=2)


def with_bits(op: OperatorDescriptor, act_bits: int, wgt_bits: int) -> OperatorDescriptor:
    return replace(op, act_bits=act_bits, wgt_bits=wgt_bits)
