"""Tests for the versioned telemetry trace format (``telemetry.jsonl``)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.trace import (
    TRACE_KIND,
    TRACE_SCHEMA_VERSION,
    TraceSchemaError,
    read_trace,
    trace_event_line,
    trace_header_line,
)


def _write(tmp_path, *lines, name="trace.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _event_line(seq=1, topic="alerts", record=None):
    return trace_event_line(seq, topic, record or {"type": "AlertEvent", "time": 1})


class TestHeaderRoundTrip:
    def test_header_line_carries_version_kind_and_completeness(self):
        header = json.loads(trace_header_line(True))
        assert header == {
            "schema_version": TRACE_SCHEMA_VERSION,
            "kind": TRACE_KIND,
            "complete": True,
        }

    def test_written_trace_reads_back(self, tmp_path):
        path = _write(tmp_path, trace_header_line(False), _event_line(seq=7))
        header, events = read_trace(path)
        assert header.schema_version == TRACE_SCHEMA_VERSION
        assert header.complete is False
        [event] = events
        assert (event.seq, event.topic) == (7, "alerts")


class TestVersionGate:
    def test_newer_schema_version_rejected(self, tmp_path):
        future = json.loads(trace_header_line(True))
        future["schema_version"] = TRACE_SCHEMA_VERSION + 1
        path = _write(tmp_path, json.dumps(future))
        with pytest.raises(TraceSchemaError, match="newer than the supported"):
            read_trace(path)

    def test_wrong_kind_rejected(self, tmp_path):
        header = json.loads(trace_header_line(True))
        header["kind"] = "something-else"
        path = _write(tmp_path, json.dumps(header))
        with pytest.raises(TraceSchemaError, match="unexpected trace kind"):
            read_trace(path)

    def test_non_integer_version_rejected(self, tmp_path):
        path = _write(tmp_path, '{"schema_version": "one"}')
        with pytest.raises(TraceSchemaError, match="must be an integer"):
            read_trace(path)


class TestMalformedLines:
    def test_invalid_json_names_the_line(self, tmp_path):
        path = _write(tmp_path, trace_header_line(True), "{not json")
        with pytest.raises(TraceSchemaError, match="line 2"):
            read_trace(path)

    def test_non_object_line_names_the_line(self, tmp_path):
        path = _write(tmp_path, trace_header_line(True), _event_line(), "[1, 2]")
        with pytest.raises(TraceSchemaError, match="line 3"):
            read_trace(path)

    def test_event_missing_keys_names_the_line(self, tmp_path):
        path = _write(tmp_path, trace_header_line(True), '{"seq": 1}')
        with pytest.raises(TraceSchemaError, match="line 2.*seq/topic/record"):
            read_trace(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = _write(tmp_path, trace_header_line(True), "", _event_line())
        _, events = read_trace(path)
        assert len(events) == 1


class TestHeaderlessTraces:
    """No reader for the format from before the header line is kept."""

    def test_a_headerless_trace_is_refused(self, tmp_path):
        path = _write(tmp_path, _event_line(seq=1), _event_line(seq=2))
        with pytest.raises(TraceSchemaError, match="line 1: no trace header"):
            read_trace(path)

    def test_an_empty_file_is_refused(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(TraceSchemaError, match="no trace header line"):
            read_trace(path)


class TestHostileInput:
    """Whatever the bytes, ``read_trace`` answers with a result or a
    ``TraceSchemaError`` that names the line — no other exception."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.binary(max_size=400))
    def test_arbitrary_bytes(self, data, tmp_path_factory):
        path = tmp_path_factory.mktemp("bytes") / "trace.jsonl"
        path.write_bytes(data)
        try:
            read_trace(path)
        except TraceSchemaError as error:
            assert "line " in str(error)

    @settings(max_examples=200, deadline=None)
    @given(
        lines=st.lists(
            st.recursive(
                st.none() | st.booleans() | st.integers() | st.text(max_size=8),
                lambda inner: st.lists(inner, max_size=3)
                | st.dictionaries(
                    st.sampled_from(
                        ["seq", "topic", "record", "clock", "schema_version", "kind"]
                    ),
                    inner,
                    max_size=4,
                ),
                max_leaves=8,
            ),
            max_size=5,
        )
    )
    def test_arbitrary_json_lines(self, lines, tmp_path_factory):
        path = tmp_path_factory.mktemp("json") / "trace.jsonl"
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        try:
            header, events = read_trace(path)
        except TraceSchemaError as error:
            assert "line " in str(error) or "schema version" in str(error)
        else:
            assert all(isinstance(event.record, dict) for event in events)
