"""Hostile stream records: every line gives an Event or a counted ParseError.

The decoder behind ``EventDecoder.decode`` and ``read_events`` calls the JSON
scanner directly and keeps ``json.loads``'s whitespace and trailing-data
checks itself; these properties hold it to ``json.loads``.
"""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from veloscore.ingest import (
    Event,
    EventDecoder,
    IngestStats,
    ParseError,
    decode_json,
    read_events,
)

DEEP_ARRAY = "[" * 100_000
DEEP_OBJECT = '{"a":' * 100_000

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=6), kids,
                                                               max_size=3),
    max_leaves=8,
)
handles = st.from_regex(r"@?[A-Za-z0-9_]{1,15}", fullmatch=True)
timestamps = st.sampled_from(["2025-01-06T00:30:00Z", "2025-01-06T01:00:00+02:00",
                              "2025-01-06T00:30:00", "2025-02-30T00:00:00Z", "soon"])
texts = st.sampled_from(["@alice hi", "RT @bob: news (cc @carol) http://sho.rt/x.",
                         "plain", "", "@AK x"])
# Records built from the fields the parser reads, each either well formed
# or any JSON value, so that both the accepting and rejecting paths run.
records = st.fixed_dictionaries({}, optional={
    "id": st.text(max_size=4) | json_values,
    "author": handles | json_values,
    "ts": timestamps | json_values,
    "text": texts | json_values,
    "mentions": st.lists(handles | json_values, max_size=3) | json_values,
    "rt_of": handles | json_values,
    "urls": st.lists(st.text(max_size=6) | json_values, max_size=3) | json_values,
})

VALID = {"id": "x", "ts": "2025-01-06T00:30:00Z", "author": "u00001"}


def event_or_parse_error(line):
    try:
        ev = EventDecoder().decode(line)
    except ParseError:
        return None
    assert isinstance(ev, Event)
    return ev


@settings(max_examples=300, deadline=None)
@given(records | json_values)
@example({**VALID, "mentions": [1, 2]})
@example({**VALID, "rt_of": 5})
@example({**VALID, "mentions": [[1]]})
@example({**VALID, "rt_of": {"a": 1}})
@example({**VALID, "text": 5})
@example({**VALID, "mentions": ["bob"], "text": ["x"]})
def test_any_json_value_gives_event_or_parse_error(value):
    event_or_parse_error(json.dumps(value))


@settings(deadline=None)
@given(st.text())
@example(DEEP_ARRAY)
@example(DEEP_OBJECT)
@example('{"author": "u00001", "ts": "2025-01-06T00:30:00Z", "id": ' + DEEP_ARRAY)
def test_any_text_line_gives_event_or_parse_error(line):
    event_or_parse_error(line)


whitespace = st.text(alphabet=" \t\n\r\x0c\u00a0\ufeff", max_size=3)
json_texts = json_values.map(json.dumps) | st.sampled_from(
    ["NaN", "-Infinity", "Infinity", "nan", "1e999", "[1] [2]", '"\\ud800"', "{"])
lines = st.builds(lambda a, doc, b, tail: a + doc + b + tail,
                  whitespace, json_texts | st.text(max_size=4), whitespace,
                  st.sampled_from(["", "x", "1", "{}", "]"]))


def json_loads_result(line):
    try:
        return True, json.loads(line)
    except (ValueError, RecursionError):
        return False, None


@settings(max_examples=300, deadline=None)
@given(lines | st.text())
@example("\ufeff{}")
@example(" {} ")
@example("{}\n")
@example("{} x")
@example("\x0c{}")
@example("NaN")
@example("")
@example(DEEP_ARRAY)
def test_decoder_accepts_exactly_what_json_loads_accepts(line):
    ok, expected = json_loads_result(line)
    if ok:
        assert repr(decode_json(line)) == repr(expected)
    else:
        with pytest.raises(ParseError):
            decode_json(line)


@settings(deadline=None)
@given(st.lists(records, max_size=12))
def test_shared_decoder_matches_fresh_parse(recs):
    """read_events reuses handles and timestamps across records; the events
    and counts must equal those of parsing each line on its own."""
    lines = [json.dumps(r) for r in recs]
    stats = IngestStats()
    streamed = list(read_events(lines, stats))
    fresh = [ev for ev in map(event_or_parse_error, lines) if ev is not None]
    assert streamed == fresh
    assert stats.records == len(lines)
    assert stats.parse_errors == len(lines) - len(fresh)


def test_hostile_records_counted_not_fatal():
    good = json.dumps({**VALID, "text": "@alice hi"})
    hostile = [
        json.dumps({**VALID, "mentions": [1, 2]}),
        json.dumps({**VALID, "rt_of": 5}),
        json.dumps({**VALID, "mentions": [[1]]}),
        DEEP_ARRAY,
    ]
    stats = IngestStats()
    events = list(read_events([good, *hostile, good], stats))
    assert [ev.mentions for ev in events] == [["alice"], ["alice"]]
    assert (stats.records, stats.parse_errors) == (6, 4)


@pytest.mark.parametrize("mentions", ["u0001", {"bob": 1}, 5], ids=["string", "object", "number"])
def test_non_array_mentions_counted_not_fatal(mentions):
    """A `mentions` field that is no array is a parse error: a string is not
    read as its characters, an object not as its keys, a number raises no
    TypeError."""
    good = json.dumps({**VALID, "mentions": ["alice"]})
    stats = IngestStats()
    events = list(read_events([good, json.dumps({**VALID, "mentions": mentions}), good],
                              stats))
    assert [ev.mentions for ev in events] == [["alice"], ["alice"]]
    assert (stats.records, stats.parse_errors) == (3, 1)
