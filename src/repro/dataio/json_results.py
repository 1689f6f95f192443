"""scamper-style JSON experiment records.

Format: a JSON object per line (JSONL).  The first line is a header
record (``type: "experiment"``); each subsequent line is one probe
record (``type: "probe"``) carrying the destination, method, round,
configuration, and — when a response arrived — the IP_PKTINFO-style
arrival interface kind.
"""

from __future__ import annotations

import json
from typing import Dict, Iterator, List, TextIO

from ..errors import DataIOError
from ..experiment.records import ExperimentResult
from ..netutil import format_address

FORMAT_VERSION = 1


def _probe_record(
    round_index: int, config: str, prefix, response
) -> Dict:
    record = {
        "type": "probe",
        "round": round_index,
        "config": config,
        "prefix": str(prefix),
        "dst": format_address(response.target.address),
        "method": str(response.target.method),
        "tx": round(response.tx_time, 6),
        "responded": response.responded,
    }
    if response.target.port:
        record["dport"] = response.target.port
    if response.responded:
        record["interface"] = response.interface_kind
        record["origin_asn"] = response.origin_asn
        record["rtt_ms"] = round(response.rtt_ms, 3)
        record["as_hops"] = response.hops
    return record


def dump_experiment(result: ExperimentResult, stream: TextIO) -> int:
    """Write an experiment as JSONL; returns the record count."""
    header = {
        "type": "experiment",
        "version": FORMAT_VERSION,
        "experiment": result.experiment,
        "configs": list(result.schedule.configs),
        "re_origin": result.re_origin,
        "commodity_origin": result.commodity_origin,
        "prefixes": len(result.seed_plan.targets),
    }
    stream.write(json.dumps(header, sort_keys=True) + "\n")
    count = 1
    for round_index, round_result in enumerate(result.rounds):
        for prefix in round_result.plan.prefixes:
            for response in round_result.responses_of(prefix):
                record = _probe_record(
                    round_index, round_result.config, prefix, response
                )
                stream.write(json.dumps(record, sort_keys=True) + "\n")
                count += 1
    return count


def dump_experiment_file(result: ExperimentResult, path: str) -> int:
    with open(path, "w", encoding="utf-8") as stream:
        return dump_experiment(result, stream)


def _check_header(record: Dict, line_number: int) -> int:
    """Validate the header record; returns its round count."""
    if record.get("type") != "experiment":
        raise DataIOError("line %d: first record must be the header"
                          % line_number)
    if record.get("version") != FORMAT_VERSION:
        raise DataIOError(
            "line %d: unsupported format version %r"
            % (line_number, record.get("version"))
        )
    configs = record.get("configs")
    if not isinstance(configs, list) or not all(
        isinstance(config, str) for config in configs
    ):
        raise DataIOError(
            "line %d: header configs must be a list of strings"
            % line_number
        )
    return len(configs)


def _check_probe(record: Dict, line_number: int, rounds: int) -> None:
    """Validate the fields :func:`signals_from_records` reads."""
    if record.get("type") != "probe":
        raise DataIOError(
            "line %d: unexpected record type %r"
            % (line_number, record.get("type"))
        )
    if not isinstance(record.get("prefix"), str):
        raise DataIOError("line %d: probe prefix must be a string"
                          % line_number)
    round_index = record.get("round")
    if (
        not isinstance(round_index, int)
        or isinstance(round_index, bool)
        or not 0 <= round_index < rounds
    ):
        raise DataIOError(
            "line %d: probe round %r is not an integer in [0, %d)"
            % (line_number, round_index, rounds)
        )
    responded = record.get("responded")
    if not isinstance(responded, bool):
        raise DataIOError("line %d: probe responded must be a boolean"
                          % line_number)
    if responded and record.get("interface") not in ("re", "commodity"):
        raise DataIOError(
            "line %d: unknown interface %r (expected re/commodity)"
            % (line_number, record.get("interface"))
        )


def load_experiment_records(stream: TextIO) -> Iterator[Dict]:
    """Iterate records from a JSONL experiment file, validating the
    header and every field :func:`signals_from_records` reads; any
    malformed record raises :class:`DataIOError` naming its line."""
    rounds = None
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
        if not isinstance(record, dict):
            raise DataIOError("line %d: record is not a JSON object"
                              % line_number)
        if rounds is None:
            rounds = _check_header(record, line_number)
        else:
            _check_probe(record, line_number, rounds)
        yield record
    if rounds is None:
        raise DataIOError("empty experiment file")


def load_experiment_records_file(path: str) -> List[Dict]:
    with open(path, "r", encoding="utf-8") as stream:
        try:
            return list(load_experiment_records(stream))
        except UnicodeDecodeError as error:
            raise DataIOError(
                "%s is not UTF-8 text: %s" % (path, error)
            ) from error


def signals_from_records(records: List[Dict]) -> Dict[str, List[str]]:
    """Rebuild per-prefix, per-round signal strings ("re"/"commodity"/
    "both"/"none") from loaded records — enough to re-run the
    classification offline."""
    header = records[0]
    rounds = len(header["configs"])
    kinds: Dict[str, List[set]] = {}
    for record in records[1:]:
        prefix = record["prefix"]
        per_round = kinds.setdefault(prefix, [set() for _ in range(rounds)])
        if record["responded"]:
            per_round[record["round"]].add(record["interface"])
    out: Dict[str, List[str]] = {}
    for prefix, per_round in kinds.items():
        signals = []
        for seen in per_round:
            if not seen:
                signals.append("none")
            elif len(seen) > 1:
                signals.append("both")
            else:
                signals.append(next(iter(seen)))
        out[prefix] = signals
    return out
