"""Tests for results serialisation."""

import io

import pytest

from repro.dataio import (
    dump_experiment,
    dump_update_log,
    load_experiment_records,
    load_update_log,
)
from repro.dataio.json_results import signals_from_records
from repro.errors import DataIOError


class TestExperimentJSON:
    @pytest.fixture(scope="class")
    def dumped(self, internet2_result):
        stream = io.StringIO()
        count = dump_experiment(internet2_result, stream)
        return stream.getvalue(), count

    def test_roundtrip_counts(self, dumped, internet2_result):
        text, count = dumped
        records = list(load_experiment_records(io.StringIO(text)))
        assert len(records) == count
        probes = [r for r in records if r["type"] == "probe"]
        expected = sum(r.probe_count() for r in internet2_result.rounds)
        assert len(probes) == expected

    def test_header_fields(self, dumped, internet2_result):
        text, _ = dumped
        header = next(load_experiment_records(io.StringIO(text)))
        assert header["experiment"] == "internet2"
        assert header["configs"] == list(
            internet2_result.schedule.configs
        )
        assert header["re_origin"] == internet2_result.re_origin

    def test_probe_fields(self, dumped):
        text, _ = dumped
        records = list(load_experiment_records(io.StringIO(text)))
        responded = [
            r for r in records
            if r["type"] == "probe" and r["responded"]
        ]
        assert responded
        sample = responded[0]
        assert sample["interface"] in ("re", "commodity")
        assert sample["rtt_ms"] > 0
        assert "." in sample["dst"]

    def test_signals_reconstruction_matches_classification(
        self, dumped, internet2_result, internet2_inference
    ):
        """Classification re-run from serialized data must agree."""
        from repro.core.classify import RoundSignal, classify_signals

        text, _ = dumped
        records = list(load_experiment_records(io.StringIO(text)))
        signals = signals_from_records(records)
        table = {
            "re": RoundSignal.RE,
            "commodity": RoundSignal.COMMODITY,
            "both": RoundSignal.BOTH,
            "none": RoundSignal.NONE,
        }
        checked = 0
        for prefix_text, sig in signals.items():
            category = classify_signals([table[s] for s in sig])
            original = next(
                item.category
                for prefix, item in internet2_inference.inferences.items()
                if str(prefix) == prefix_text
            )
            assert category is original
            checked += 1
            if checked >= 200:
                break
        assert checked > 0

    def test_rejects_headerless(self):
        stream = io.StringIO('{"type": "probe"}\n')
        with pytest.raises(DataIOError):
            list(load_experiment_records(stream))

    def test_rejects_bad_json(self):
        with pytest.raises(DataIOError):
            list(load_experiment_records(io.StringIO("{nope\n")))
        # Nesting past the parser's recursion limit.
        with pytest.raises(DataIOError):
            list(load_experiment_records(io.StringIO("[" * 100_000)))
        # An integer past the digit limit of int().
        header = '{"type": "experiment", "version": %s}\n' % ("9" * 5000)
        with pytest.raises(DataIOError):
            list(load_experiment_records(io.StringIO(header)))

    def test_rejects_empty(self):
        with pytest.raises(DataIOError):
            list(load_experiment_records(io.StringIO("")))

    def test_rejects_bad_version(self):
        stream = io.StringIO('{"type": "experiment", "version": 99}\n')
        with pytest.raises(DataIOError):
            list(load_experiment_records(stream))


class TestUpdateLog:
    def test_roundtrip(self, internet2_result):
        stream = io.StringIO()
        count = dump_update_log(internet2_result.update_log[:500], stream)
        events = list(load_update_log(io.StringIO(stream.getvalue())))
        assert len(events) == count
        for original, loaded in zip(internet2_result.update_log, events):
            assert loaded.time == pytest.approx(original.time, abs=1e-5)
            assert loaded.asn == original.asn
            assert loaded.prefix == original.prefix
            if original.route is None:
                assert loaded.route is None
            else:
                assert loaded.route.path.asns == original.route.path.asns
                assert loaded.route.tag == original.route.tag
            assert loaded.session_weight == original.session_weight

    def test_rejects_malformed(self):
        with pytest.raises(DataIOError):
            list(load_update_log(io.StringIO('{"t": 1.0}\n')))

    def test_rejects_bad_json(self):
        with pytest.raises(DataIOError):
            list(load_update_log(io.StringIO("[\n")))
        with pytest.raises(DataIOError):
            list(load_update_log(io.StringIO("[" * 100_000)))
        with pytest.raises(DataIOError):
            list(load_update_log(io.StringIO('{"t": %s}' % ("9" * 5000))))

    def test_skips_blank_lines(self, internet2_result):
        stream = io.StringIO()
        dump_update_log(internet2_result.update_log[:3], stream)
        padded = "\n" + stream.getvalue() + "\n\n"
        assert len(list(load_update_log(io.StringIO(padded)))) == 3
