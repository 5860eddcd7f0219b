"""The report writer against its oracle, `json.dumps(sort_keys=True,
indent=2) + "\\n"`: the same text on every report-shaped value, and an
error, never different text, on anything else."""

import glob
import json
import os
import random

import pytest

from towerlim.report import report_json

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDENS = sorted(glob.glob(os.path.join(ROOT, "tests", "golden", "*.json")))


def oracle(value):
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("path", GOLDENS, ids=os.path.basename)
def test_goldens(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert report_json(json.loads(text)) == text == oracle(json.loads(text))


def test_there_are_ten_goldens():
    assert len(GOLDENS) == 10


# characters that a string of a report may hold, escapes and all
_CHARS = "ab Z09_-:/.()" + '"\\' + "\b\f\n\r\t\x00\x1f\x7f" + "éČ¹∞Λ \U0001d53b"


def _string(rng):
    return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(6)))


def _scalar(rng):
    return rng.choice([
        lambda: _string(rng),
        lambda: rng.randrange(-10, 10),
        lambda: rng.randrange(-(1 << 200), 1 << 200),
        lambda: rng.choice([True, False, 1, 0, None]),
        lambda: round(rng.uniform(-1000, 1000), 3),
        lambda: rng.choice([0.0, -0.0, 1e16, 1.5e-7, 2.5, 1e300]),
    ])()


def _value(rng, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.4:
        return _scalar(rng)
    items = [_value(rng, depth - 1) for _ in range(rng.choice([0, 0, 1, 2, 4]))]
    if roll < 0.6:
        return items
    if roll < 0.7:
        return tuple(items)
    return {_string(rng): item for item in items}


def test_random_values():
    rng = random.Random(20261022)
    for _ in range(2000):
        value = _value(rng, 4)
        assert report_json(value) == oracle(value), value


def test_empty_and_nested_empty_containers():
    for value in ({}, [], (), {"a": {}}, [[]], [(), {}], {"": [[], {"": ()}]}):
        assert report_json(value) == oracle(value)


@pytest.mark.parametrize("value", [
    {1, 2}, object(), {1: "one"}, {"a": {None: 0}}, float("nan"), [float("inf")],
    {"x": -float("inf")}, [{"y": frozenset()}]], ids=repr)
def test_values_outside_a_report_raise(value):
    with pytest.raises((TypeError, ValueError)):
        report_json(value)
