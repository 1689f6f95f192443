"""What the retired convergence-frontier channel's tests pinned and
still holds on the one capture channel.

The frontier channel had its own ring in every :class:`Capture`, went
through :meth:`Capture.child`/:meth:`Capture.merge` with pooled cells,
and wrote ``cells/<digest>.frontier.jsonl`` per campaign cell.  The
channel is gone; these tests keep those paths covered for provenance,
and keep the channel from coming back.
"""

import dataclasses
import json
import os

import pytest

from repro.experiment.campaign import CampaignRunner, plan_grid
from repro.obs.capture import Capture, EventRing, active_capture, use_capture

from .test_obs_capture import RingContract, SlotContract

SCALE = 0.04


def _worker_ring(**options):
    """The ring a pooled cell worker records into: a child of the
    parent's capture, reached through the slot."""
    parent = Capture(EventRing(**options))
    with use_capture(parent.child()):
        return active_capture().provenance


class TestFrontierTrace(RingContract):
    """The ring contract, run on a cell worker's ring."""

    ring = staticmethod(_worker_ring)


class TestSingleton(SlotContract):
    """The slot contract, for a capture with provenance as its one
    channel."""

    def test_capture_has_no_frontier_channel(self):
        assert [field.name for field in dataclasses.fields(Capture)] == [
            "provenance"
        ]
        with pytest.raises(TypeError):
            Capture(frontier=EventRing())


class TestCampaignFrontier:
    """A spec that asks for provenance captures it run-locally, and
    each cell writes it as ``cells/<digest>.provenance.jsonl``; pooled
    cells ship it home."""

    @pytest.fixture(scope="class")
    def campaign_dirs(self, tmp_path_factory):
        specs = plan_grid(
            [0, 3], scenarios=["baseline"], experiments=("surf",),
            scale=SCALE, provenance_capacity=65_536,
        )
        inline = str(tmp_path_factory.mktemp("inline"))
        pooled = str(tmp_path_factory.mktemp("pooled"))
        CampaignRunner(specs, inline, pool_workers=1).run()
        CampaignRunner(specs, pooled, pool_workers=2).run()
        return specs, inline, pooled

    def _cell_texts(self, directory, specs):
        texts = []
        for spec in specs:
            with open(os.path.join(
                directory, "cells", "%s.provenance.jsonl" % spec.digest()
            ), "r", encoding="utf-8") as handle:
                texts.append(handle.read())
        return texts

    def test_cell_frontier_artifact_written(self, campaign_dirs):
        specs, inline, _ = campaign_dirs
        for text in self._cell_texts(inline, specs):
            kinds = {json.loads(line)["kind"] for line in text.splitlines()}
            assert kinds == {"selection", "signal"}
        leftovers = [name for name in os.listdir(
            os.path.join(inline, "cells")
        ) if "frontier" in name]
        assert leftovers == []

    def test_inline_and_pooled_artifacts_identical(self, campaign_dirs):
        specs, inline, pooled = campaign_dirs
        assert self._cell_texts(pooled, specs) == \
            self._cell_texts(inline, specs)
