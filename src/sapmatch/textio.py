"""Plain-text instance files and the telemetry CSV layout.

Instance format, one directive per line ('#' starts a comment):

    servers <count>
    capacity <server> <units>     # optional; if present, one line per server
    client <id> <server> ...      # one line per arrival, in arrival order

Formatting an instance and parsing it back is byte-exact.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from typing import Optional, Sequence

from .instance import ArrivalInstance
from .matching import RunLog

TELEMETRY_HEADER = (
    "arrival",
    "client",
    "matched",
    "path_edges",
    "replacements",
    "cum_replacements",
    "cum_path_edges",
    "engine",
)
ANALYZE_COLUMNS = ("max_alpha_num", "max_alpha_den", "opt_load")


def parse_instance(text: str) -> ArrivalInstance:
    server_count: Optional[int] = None
    capacities: dict[int, int] = {}
    neighbor_lists: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "servers":
                if server_count is not None:
                    raise ValueError("duplicate servers line")
                if len(parts) != 2:
                    raise ValueError("servers line takes one count")
                server_count = int(parts[1])
            elif parts[0] == "capacity":
                if len(parts) != 3:
                    raise ValueError("capacity line takes a server and a unit count")
                server, units = int(parts[1]), int(parts[2])
                if server in capacities:
                    raise ValueError(f"duplicate capacity for server {server}")
                capacities[server] = units
            elif parts[0] == "client":
                if len(parts) < 2:
                    raise ValueError("client line needs an id")
                client_id = int(parts[1])
                if client_id != len(neighbor_lists):
                    raise ValueError(
                        f"client ids must follow arrival order; expected {len(neighbor_lists)}"
                    )
                neighbor_lists.append([int(p) for p in parts[2:]])
            else:
                raise ValueError(f"unknown directive {parts[0]!r}")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if server_count is None:
        raise ValueError("missing servers line")
    caps: Optional[list[int]] = None
    if capacities:
        if sorted(capacities) != list(range(server_count)):
            raise ValueError("capacities, when given, must cover every server exactly once")
        caps = [capacities[s] for s in range(server_count)]
    return ArrivalInstance.build(server_count, neighbor_lists, caps)


def format_instance(instance: ArrivalInstance) -> str:
    lines = [f"servers {instance.server_count}"]
    if instance.capacities is not None:
        lines.extend(
            f"capacity {s} {u}" for s, u in enumerate(instance.capacities)
        )
    for client_id, neighbors in instance.arrivals:
        entry = f"client {client_id}"
        if neighbors:
            entry += " " + " ".join(str(s) for s in neighbors)
        lines.append(entry)
    return "\n".join(lines) + "\n"


def format_telemetry_csv(
    log: RunLog,
    engine: str,
    analysis: Sequence[tuple[Fraction, int]] | None = None,
) -> str:
    """One CSV row per arrival; ``analysis`` adds exact max-necessity and opt columns."""
    if analysis is not None and len(analysis) != len(log.records):
        raise ValueError("analysis data must cover every arrival")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(TELEMETRY_HEADER + (ANALYZE_COLUMNS if analysis is not None else ()))
    cum_replacements = 0
    cum_edges = 0
    for i, rec in enumerate(log.records):
        cum_replacements += rec.replacements
        cum_edges += rec.path_edges or 0
        row = [
            i,
            rec.client,
            int(rec.matched),
            rec.path_edges,  # None, for an unmatched arrival, is written as ""
            rec.replacements,
            cum_replacements,
            cum_edges,
            engine,
        ]
        if analysis is not None:
            alpha, opt = analysis[i]
            row.extend((alpha.numerator, alpha.denominator, opt))
        writer.writerow(row)
    return buffer.getvalue()
