"""Compact JSONL serialisation of BGP update logs.

Stands in for MRT update dumps: one record per loc-RIB best change,
with the AS path and announcement tag preserved so churn analyses can
be re-run offline.
"""

from __future__ import annotations

import json
from typing import Iterator, List, TextIO

from ..bgp.attributes import ASPath, Route
from ..bgp.engine import UpdateEvent
from ..errors import DataIOError
from ..netutil import Prefix


def dump_update_log(events: List[UpdateEvent], stream: TextIO) -> int:
    """Write update events as JSONL; returns the record count."""
    count = 0
    for event in events:
        record = {
            "t": round(event.time, 6),
            "asn": event.asn,
            "prefix": str(event.prefix),
        }
        if event.route is None:
            record["withdraw"] = True
        else:
            record["path"] = list(event.route.path.asns)
            record["tag"] = event.route.tag
        if event.session_weight is not None:
            record["sessions"] = event.session_weight
        stream.write(json.dumps(record, sort_keys=True) + "\n")
        count += 1
    return count


def load_update_log(stream: TextIO) -> Iterator[UpdateEvent]:
    """Read update events back from JSONL."""
    for line_number, line in enumerate(stream, 1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as error:
            # Beyond malformed text: integers past the digit limit
            # raise ValueError, and deep nesting RecursionError.
            raise DataIOError(
                "line %d: invalid JSON: %s" % (line_number, error)
            ) from error
        try:
            prefix = Prefix.parse(record["prefix"])
            if record.get("withdraw"):
                route = None
            else:
                path = ASPath(tuple(record["path"]))
                route = Route(
                    prefix=prefix,
                    path=path,
                    learned_from=None,
                    localpref=0,
                    tag=record.get("tag", ""),
                )
            yield UpdateEvent(
                time=float(record["t"]),
                asn=int(record["asn"]),
                prefix=prefix,
                route=route,
                session_weight=record.get("sessions"),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise DataIOError(
                "line %d: malformed update record: %s"
                % (line_number, error)
            ) from error
