"""The BGP decision process.

A :class:`DecisionProcess` is an ordered list of tie-breaking steps.  The
default order mirrors common router implementations and the paper's
analysis (§1, §A):

1. highest local preference;
2. shortest AS path (skipped by *path-length-insensitive* ASes, §A);
3. lowest MED;
4. oldest route (only when ``age_tiebreak`` is enabled — §A shows most
   R&E ASes broke ties with path length, with limited evidence for
   route-age tie-breaking);
5. lowest neighbor ASN (final deterministic tie-break, standing in for
   lowest router ID).

Each step is a pure filter: given the surviving candidate routes it
returns the subset that wins that step.  Running the steps in order is
a lexicographic minimum, so :attr:`DecisionProcess.key` folds them into
one sort key and selection is ``min(routes, key=process.key)``; the
filters remain where a selection is narrated step by step
(:meth:`DecisionProcess.best_verbose`, :func:`explain_choice`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from ..errors import PolicyError
from .attributes import Route


class Step(Enum):
    """Identifiers for the individual decision steps."""

    HIGHEST_LOCALPREF = "highest-localpref"
    SHORTEST_AS_PATH = "shortest-as-path"
    LOWEST_MED = "lowest-med"
    OLDEST_ROUTE = "oldest-route"
    LOWEST_NEIGHBOR_ASN = "lowest-neighbor-asn"


def _keep_min(routes: List[Route], key: Callable[[Route], float]) -> List[Route]:
    smallest = min(key(route) for route in routes)
    return [route for route in routes if key(route) == smallest]


def _highest_localpref(routes: List[Route]) -> List[Route]:
    return _keep_min(routes, lambda r: -r.localpref)


def _shortest_as_path(routes: List[Route]) -> List[Route]:
    return _keep_min(routes, lambda r: r.path.length)


def _lowest_med(routes: List[Route]) -> List[Route]:
    return _keep_min(routes, lambda r: r.med)


def _oldest_route(routes: List[Route]) -> List[Route]:
    return _keep_min(routes, lambda r: r.installed_at)


def _lowest_neighbor_asn(routes: List[Route]) -> List[Route]:
    """Final deterministic tie-break: lowest neighbor ASN wins.

    A route with ``learned_from=None`` has no neighbor to compare (it
    is locally originated, or synthesised without provenance); it maps
    to ``+inf`` so it *loses* to any route with a known neighbor rather
    than silently beating all of them.  Locally originated routes never
    reach this step in practice — their localpref
    (:data:`~repro.bgp.router.LOCAL_ROUTE_LOCALPREF`) wins step one.
    """
    return _keep_min(
        routes,
        lambda r: (
            r.learned_from
            if r.learned_from is not None
            else float("inf")
        ),
    )


_INF = float("inf")

#: Each step's term of the lexicographic key: the quantity whose
#: minimum the step's filter keeps.
_STEP_KEYS = {
    Step.HIGHEST_LOCALPREF: lambda r: -r.localpref,
    Step.SHORTEST_AS_PATH: lambda r: len(r.path.asns),
    Step.LOWEST_MED: lambda r: r.med,
    Step.OLDEST_ROUTE: lambda r: r.installed_at,
    Step.LOWEST_NEIGHBOR_ASN: lambda r: (
        r.learned_from if r.learned_from is not None else _INF
    ),
}


def compose_key(steps: Tuple["Step", ...]) -> Callable[[Route], tuple]:
    """The lexicographic key of *steps*: one term per step, in order."""
    terms = tuple(_STEP_KEYS[step] for step in steps)
    return lambda r: tuple(term(r) for term in terms)


#: The keys of the four :meth:`DecisionProcess.standard` variants,
#: written out: each equals :func:`compose_key` of its steps, with one
#: call per route instead of one per step.
_STANDARD_KEYS = {
    (Step.HIGHEST_LOCALPREF, Step.SHORTEST_AS_PATH, Step.LOWEST_MED,
     Step.OLDEST_ROUTE, Step.LOWEST_NEIGHBOR_ASN): lambda r: (
        -r.localpref, len(r.path.asns), r.med, r.installed_at,
        r.learned_from if r.learned_from is not None else _INF,
    ),
    (Step.HIGHEST_LOCALPREF, Step.SHORTEST_AS_PATH, Step.LOWEST_MED,
     Step.LOWEST_NEIGHBOR_ASN): lambda r: (
        -r.localpref, len(r.path.asns), r.med,
        r.learned_from if r.learned_from is not None else _INF,
    ),
    (Step.HIGHEST_LOCALPREF, Step.LOWEST_MED, Step.OLDEST_ROUTE,
     Step.LOWEST_NEIGHBOR_ASN): lambda r: (
        -r.localpref, r.med, r.installed_at,
        r.learned_from if r.learned_from is not None else _INF,
    ),
    (Step.HIGHEST_LOCALPREF, Step.LOWEST_MED,
     Step.LOWEST_NEIGHBOR_ASN): lambda r: (
        -r.localpref, r.med,
        r.learned_from if r.learned_from is not None else _INF,
    ),
}


_STEP_FUNCTIONS = {
    Step.HIGHEST_LOCALPREF: _highest_localpref,
    Step.SHORTEST_AS_PATH: _shortest_as_path,
    Step.LOWEST_MED: _lowest_med,
    Step.OLDEST_ROUTE: _oldest_route,
    Step.LOWEST_NEIGHBOR_ASN: _lowest_neighbor_asn,
}

#: The raw attribute each step compares, for provenance reporting (the
#: filter functions above compare derived keys — e.g. negated
#: localpref — which would be confusing in an audit trail).
_STEP_VALUES = {
    Step.HIGHEST_LOCALPREF: lambda r: r.localpref,
    Step.SHORTEST_AS_PATH: lambda r: r.path.length,
    Step.LOWEST_MED: lambda r: r.med,
    Step.OLDEST_ROUTE: lambda r: r.installed_at,
    Step.LOWEST_NEIGHBOR_ASN: lambda r: r.learned_from,
}

DEFAULT_STEPS: Tuple[Step, ...] = (
    Step.HIGHEST_LOCALPREF,
    Step.SHORTEST_AS_PATH,
    Step.LOWEST_MED,
    Step.OLDEST_ROUTE,
    Step.LOWEST_NEIGHBOR_ASN,
)


@dataclass(frozen=True)
class DecisionProcess:
    """An ordered BGP decision process.

    Use :meth:`standard` for the default process; pass
    ``path_length_sensitive=False`` to model ASes that ignore AS path
    length (Appendix A case J), or ``age_tiebreak=False`` for routers
    that skip the oldest-route step.
    """

    steps: Tuple[Step, ...] = DEFAULT_STEPS

    @classmethod
    def standard(
        cls,
        path_length_sensitive: bool = True,
        age_tiebreak: bool = True,
    ) -> "DecisionProcess":
        steps = [Step.HIGHEST_LOCALPREF]
        if path_length_sensitive:
            steps.append(Step.SHORTEST_AS_PATH)
        steps.append(Step.LOWEST_MED)
        if age_tiebreak:
            steps.append(Step.OLDEST_ROUTE)
        steps.append(Step.LOWEST_NEIGHBOR_ASN)
        return cls(tuple(steps))

    @property
    def path_length_sensitive(self) -> bool:
        return Step.SHORTEST_AS_PATH in self.steps

    @property
    def key(self) -> Callable[[Route], tuple]:
        """The steps as one lexicographic sort key: the best route is
        ``min(routes, key=process.key)``.  With every step present it
        is ``(-localpref, path length, med, installed_at,
        neighbor-or-inf)``.  Routes from distinct neighbors never tie
        on it; an adj-RIB-in holds one route per neighbor, so hot
        selection loops fetch the key once and call ``min`` directly."""
        return _STANDARD_KEYS.get(self.steps) or compose_key(self.steps)

    def best(self, routes: Iterable[Route]) -> Optional[Route]:
        """Return the single best route, or None if *routes* is empty.

        The final LOWEST_NEIGHBOR_ASN step guarantees a unique winner
        among routes from distinct neighbors; if two candidates tie on
        every step (two routes from the same neighbor) the process is
        ill-formed and a PolicyError is raised.
        """
        candidates = list(routes)
        if not candidates:
            return None
        key = self.key
        winner = min(candidates, key=key)
        if len(candidates) > 1:
            tied = [r for r in candidates if key(r) == key(winner)]
            if len(tied) > 1:
                # Distinct routes from the same neighbor for the same
                # prefix should never coexist in an adj-RIB.
                raise PolicyError(
                    "decision process did not yield a unique best route: %s"
                    % ("; ".join(str(route) for route in tied),)
                )
        return winner

    def best_verbose(
        self, routes: Iterable[Route]
    ) -> Tuple[Optional[Route], List[dict]]:
        """Run the decision process and narrate it.

        Returns ``(winner, steps)`` where *winner* is exactly what
        :meth:`best` would return and *steps* is one dict per executed
        step::

            {"step": "highest-localpref",
             "entering": [0, 1, 2],       # candidate indices in
             "values": [100, 100, 90],    # the attribute compared
             "survivors": [0, 1]}         # candidate indices out

        Indices refer to positions in the *routes* argument, so callers
        can pair them with their own candidate summaries.  Used by the
        provenance layer (:mod:`repro.obs.provenance`); selection that
        needs no narration uses :attr:`key`.
        """
        candidates = list(routes)
        steps: List[dict] = []
        if not candidates:
            return None, steps
        index_of = {id(route): i for i, route in enumerate(candidates)}
        surviving = candidates
        for step in self.steps:
            if len(surviving) == 1:
                break
            value_of = _STEP_VALUES[step]
            entering = surviving
            surviving = _STEP_FUNCTIONS[step](surviving)
            steps.append({
                "step": step.value,
                "entering": [index_of[id(r)] for r in entering],
                "values": [value_of(r) for r in entering],
                "survivors": [index_of[id(r)] for r in surviving],
            })
        if len(surviving) > 1:
            raise PolicyError(
                "decision process did not yield a unique best route: %s"
                % ("; ".join(str(route) for route in surviving),)
            )
        return surviving[0], steps

    def ranks_equal(self, a: Route, b: Route) -> bool:
        """True if *a* and *b* tie on every step before the final
        neighbor-ASN tie-break (useful in tests)."""
        for step in self.steps:
            if step is Step.LOWEST_NEIGHBOR_ASN:
                break
            survivors = _STEP_FUNCTIONS[step]([a, b])
            if len(survivors) == 1:
                return False
        return True


def explain_choice(process: DecisionProcess, routes: Sequence[Route]) -> List[str]:
    """Narrate the decision: one line per step describing the surviving
    candidates.  Intended for examples and debugging output."""
    lines: List[str] = []
    candidates = list(routes)
    if not candidates:
        return ["no candidate routes"]
    lines.append("%d candidate route(s)" % len(candidates))
    for step in process.steps:
        if len(candidates) == 1:
            break
        candidates = _STEP_FUNCTIONS[step](candidates)
        lines.append(
            "%s -> %d candidate(s): %s"
            % (
                step.value,
                len(candidates),
                "; ".join("[%s]" % route.path for route in candidates),
            )
        )
    return lines
