"""Brute-force loop-nest walker used as the independent DRAM-traffic oracle.

Simulates the five tile loops iteration by iteration with one resident tile
per operand (the stationary operand instead keeps every tile it ever loaded)
and counts fetch events.  Byte math is restated literally from the operand
tile definitions so the closed-form re-fetch rule is checked end to end, and
carried out in Python integers: byte counts are exact `Fraction`s, so they
equal the cost model's float bytes only if those are exact.
"""

import itertools
import math
from fractions import Fraction

from acceldse import Dataflow

STATIONARY = {Dataflow.WS: "wgt", Dataflow.OS: "out", Dataflow.RS: "act"}


def walk_traffic(op, cfg, tile):
    counts = {
        "B": 1,
        "I": math.ceil(op.in_channels / tile.t_ic),
        "O": math.ceil(op.out_channels / tile.t_oc),
        "H": math.ceil(op.out_rows / tile.t_oh),
        "W": math.ceil(op.out_rows / tile.t_ow),
    }
    stationary = STATIONARY[cfg.dataflow]
    resident = {"act": None, "wgt": None, "out": None}
    seen = {"act": set(), "wgt": set(), "out": set()}
    events = {"act": 0, "wgt": 0, "out": 0}
    for idx in itertools.product(*(range(counts[d]) for d in cfg.loop_order)):
        pos = dict(zip(cfg.loop_order, idx))
        tuples = {
            "act": (pos["I"], pos["H"], pos["W"]),
            "wgt": (pos["I"], pos["O"]),
            "out": (pos["O"], pos["H"], pos["W"]),
        }
        for operand, tup in tuples.items():
            if operand == stationary:
                if tup not in seen[operand]:
                    events[operand] += 1
            elif resident[operand] != tup:
                resident[operand] = tup
                events[operand] += 1
            seen[operand].add(tup)

    halo_w = tile.t_ow * op.stride + op.kernel - 1
    halo_h = tile.t_oh * op.stride + op.kernel - 1
    act_tile_bytes = Fraction(tile.t_ic * halo_w * halo_h * op.act_bits, 8)
    wgt_tile_bytes = Fraction(tile.t_ic * tile.t_oc * op.kernel**2 * op.wgt_bits, 8)
    out_tile_bytes = 4 * tile.t_oc * tile.t_ow * tile.t_oh

    out_unique = len(seen["out"])
    bytes_out = out_unique * out_tile_bytes + 2 * out_tile_bytes * (events["out"] - out_unique)
    return {
        "events": events,
        "unique": {k: len(v) for k, v in seen.items()},
        "act_bytes": events["act"] * act_tile_bytes,
        "wgt_bytes": events["wgt"] * wgt_tile_bytes,
        "out_bytes": bytes_out,
    }
