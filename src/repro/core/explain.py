"""``repro explain``: the evidence chain behind one prefix's category.

Replays one experiment with a provenance recorder filtered to a single
probed prefix, then renders a round-by-round narrative: the signal each
prepend configuration produced, the decision step that selected the
origin AS's route to the measurement host at each round, every signal
transition, and the category-specific evidence —

- **switch to R&E** is the paper's equal-localpref signature (§3.3):
  the narrative names the prepend configuration that flipped the
  AS-path-length comparison between the R&E and commodity routes;
- **switch to commodity** is *unexpected* under the configuration
  ordering (§4): the narrative shows the R&E route vanishing from the
  origin's candidate set — an outage signature, not policy.

The renderer (:func:`render_explanation`) is pure — it consumes the
classification plus recorded provenance events, so tests can drive it
without running an experiment; :func:`explain_prefix` is the CLI
driver that reproduces the :class:`repro.api.ExperimentSpec` seeding
convention exactly (surf at ``seed``, internet2 at ``seed + 1``,
shared probe seeds) so the replay matches the full reproduction byte
for byte.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import AnalysisError
from ..netutil import Prefix
from ..obs.capture import Capture, EventRing, active_capture, use_capture
from .classify import (
    InferenceCategory,
    PrefixInference,
    classify_prefix_rounds,
    origin_map,
    round_signals,
)

__all__ = ["explain_prefix", "render_explanation"]


def _by_round(events: List[dict]) -> Dict[int, dict]:
    out: Dict[int, dict] = {}
    for event in events:
        round_index = event.get("round")
        if round_index is not None and round_index not in out:
            out[round_index] = event
    return out


def _tagged_candidate(selection: Optional[dict], tag: str) -> Optional[dict]:
    """The candidate route carrying *tag* ("re" / "commodity"), if the
    origin AS held one at that round."""
    if selection is None:
        return None
    for candidate in selection.get("candidates", ()):
        if candidate.get("tag") == tag:
            return candidate
    return None


def _winner(selection: Optional[dict]) -> Optional[dict]:
    if selection is None or selection.get("winner") is None:
        return None
    return selection["candidates"][selection["winner"]]


def _describe_route(candidate: Optional[dict]) -> str:
    if candidate is None:
        return "-"
    return "%s via AS%s, path len %s" % (
        candidate.get("tag") or "?",
        candidate.get("neighbor"),
        candidate.get("path_len"),
    )


def _switch_to_re_evidence(
    inference: PrefixInference,
    selections: Dict[int, dict],
) -> List[str]:
    """Spell out the equal-localpref signature (§3.3)."""
    switch = inference.switch_round
    before = selections.get(switch - 1) if switch else None
    at = selections.get(switch) if switch is not None else None
    lines = [
        "Evidence (equal-localpref signature, §3.3):",
    ]
    re_before = _tagged_candidate(before, "re")
    comm_before = _tagged_candidate(before, "commodity")
    re_at = _tagged_candidate(at, "re")
    comm_at = _tagged_candidate(at, "commodity")
    if None in (re_before, comm_before, re_at, comm_at):
        lines.append(
            "  (origin AS candidate sets incomplete; cannot compare "
            "path lengths)"
        )
        return lines
    lines.append(
        "  round %d (config %s): commodity path len %s %s R&E path "
        "len %s -> best was %s"
        % (
            switch - 1,
            before.get("config"),
            comm_before["path_len"],
            "<=" if comm_before["path_len"] <= re_before["path_len"]
            else ">",
            re_before["path_len"],
            _describe_route(_winner(before)),
        )
    )
    lines.append(
        "  round %d (config %s): commodity path len %s %s R&E path "
        "len %s -> best is %s"
        % (
            switch,
            at.get("config"),
            comm_at["path_len"],
            ">" if comm_at["path_len"] > re_at["path_len"] else "<=",
            re_at["path_len"],
            _describe_route(_winner(at)),
        )
    )
    if comm_at["path_len"] > re_at["path_len"]:
        how = (
            "past the R&E path, flipping the shortest-as-path "
            "comparison"
        )
    else:
        how = (
            "to match the R&E path, pushing the tie past "
            "shortest-as-path to the later steps (the winning step at "
            "the switch round is shown above)"
        )
    lines.append(
        "  Config %s lengthened the commodity announcement's AS path "
        "(%s -> %s hops) %s while localprefs stayed equal — the route "
        "switched for exactly the reason the prepend ordering "
        "predicts." % (
            at.get("config"),
            comm_before["path_len"],
            comm_at["path_len"],
            how,
        )
    )
    return lines


def _switch_to_commodity_evidence(
    inference: PrefixInference,
    selections: Dict[int, dict],
) -> List[str]:
    """An unexpected R&E->commodity switch is an outage signature (§4)."""
    switch = inference.switch_round
    before = selections.get(switch - 1) if switch else None
    at = selections.get(switch) if switch is not None else None
    lines = ["Evidence (unexpected switch, §4):"]
    re_before = _tagged_candidate(before, "re")
    re_at = _tagged_candidate(at, "re")
    if re_before is not None and re_at is None:
        lines.append(
            "  the R&E route (%s) vanished from the origin AS's "
            "candidate set between rounds %d and %d — consistent with "
            "a link outage, not routing policy."
            % (_describe_route(re_before), switch - 1, switch)
        )
    else:
        lines.append(
            "  at round %d the origin AS selected %s over %s; the "
            "prepend ordering does not predict this transition — see "
            "the scheduled outages (§4) for ground truth."
            % (switch, _describe_route(_winner(at)),
               _describe_route(re_at))
        )
    return lines


_CATEGORY_NOTES = {
    InferenceCategory.ALWAYS_RE:
        "Every round answered over the R&E interface: the origin's "
        "best route never left the R&E fabric at any prepend depth.",
    InferenceCategory.ALWAYS_COMMODITY:
        "Every round answered over the commodity interface: no prepend "
        "configuration made the R&E route competitive.",
    InferenceCategory.MIXED:
        "At least one round answered over both interfaces — "
        "load-shared or per-system divergent paths.",
    InferenceCategory.OSCILLATING:
        "Two or more signal transitions: the selection moved back and "
        "forth across configurations.",
    InferenceCategory.EXCLUDED_LOSS:
        "At least one round got no response; the paper excludes such "
        "prefixes rather than classify on partial evidence.",
}


def render_explanation(
    inference: PrefixInference,
    experiment: str,
    signal_events: List[dict],
    round_selections: List[dict],
) -> str:
    """Render the narrative for one classified prefix.

    *signal_events* and *round_selections* are the prefix's recorded
    ``kind="signal"`` and ``source="round"`` provenance events.
    """
    signals = _by_round(signal_events)
    selections = _by_round(round_selections)
    lines = [
        "Prefix %s (origin AS%d), %s experiment"
        % (inference.prefix, inference.origin_asn, experiment),
        "Category: %s" % inference.category,
        "",
        "%-6s %-8s %-10s %-11s %-22s %s"
        % ("round", "config", "signal", "responses", "winning step",
           "origin's best route"),
    ]
    for index, signal in enumerate(inference.signals):
        event = signals.get(index, {})
        selection = selections.get(index)
        winning_step = (selection or {}).get("winning_step")
        if winning_step is None and selection is not None:
            # best() short-circuits a single candidate: no step ran.
            if len(selection.get("candidates", ())) == 1:
                winning_step = "only-route"
        lines.append(
            "%-6d %-8s %-10s %-11s %-22s %s"
            % (
                index,
                event.get("config", "?"),
                signal.value,
                "%s/%s" % (event.get("responses", "?"),
                           event.get("probes", "?")),
                winning_step or "-",
                _describe_route(_winner(selection)),
            )
        )
    lines.append("")
    if inference.transitions:
        lines.append("Transitions:")
        for transition in inference.transitions:
            lines.append(
                "  round %d (config %s): %s -> %s"
                % (transition.round_index, transition.config,
                   transition.from_signal.value,
                   transition.to_signal.value)
            )
    else:
        lines.append("Transitions: none")
    lines.append("")
    if inference.category is InferenceCategory.SWITCH_TO_RE:
        lines.extend(_switch_to_re_evidence(inference, selections))
    elif inference.category is InferenceCategory.SWITCH_TO_COMMODITY:
        lines.extend(_switch_to_commodity_evidence(inference, selections))
    else:
        lines.append(_CATEGORY_NOTES[inference.category])
    return "\n".join(lines)


def explain_prefix(
    prefix_text: str,
    experiment: str = "surf",
    scale: float = 0.1,
    seed: int = 0,
    ecosystem=None,
    fault_plan=None,
    recorder: Optional[EventRing] = None,
) -> str:
    """Replay *experiment* and explain one probed prefix's category.

    Raises :class:`~repro.errors.AnalysisError` when the prefix is not
    in the experiment's probed set.  Seeding follows the
    :class:`repro.api.ExperimentSpec` convention (shared probe seeds;
    internet2 runs at ``seed + 1``), so the narrative describes
    exactly what the full ``reproduce`` run classified, under the
    same *fault_plan*.
    """
    from ..api import ExperimentSpec, build_runner, network_of

    if experiment not in ("surf", "internet2"):
        raise AnalysisError("experiment must be 'surf' or 'internet2'")
    prefix = Prefix.parse(prefix_text)
    spec = ExperimentSpec(experiment=experiment, seed=seed, scale=scale)
    ecosystem, shared_seeds = network_of(spec, ecosystem)
    origins = origin_map(ecosystem)
    if prefix not in shared_seeds.targets:
        raise AnalysisError(
            "prefix %s is not in the probed set (%d prefixes; see "
            "'repro funnel')" % (prefix, len(shared_seeds.targets))
        )
    runner = build_runner(
        spec, ecosystem, shared_seeds, fault_plan=fault_plan
    )
    # A filtered provenance ring: only this prefix's events are
    # retained, so the full nine-round chain survives any ring
    # pressure.  A caller may pass its own (the CLI does, to export the
    # chain afterwards); the rest of any active capture stays in place.
    if recorder is None:
        recorder = EventRing(prefix_filter=[prefix])
    with use_capture(Capture(provenance=recorder).over(active_capture())):
        result = runner.run()
    inference = classify_prefix_rounds(
        prefix,
        origins[prefix],
        round_signals(result, prefix),
        list(result.schedule.configs),
    )
    return render_explanation(
        inference,
        experiment,
        recorder.events(kind="signal", prefix=prefix),
        recorder.events(kind="selection", prefix=prefix, source="round"),
    )
