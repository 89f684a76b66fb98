"""A call budget for the body codecs (cf. ``tests/core/test_call_budget.py``).

Wall-clock assertions flake on a shared runner; a count that repeats
exactly does not.  This counts the Python-level ``call`` events
(``sys.setprofile``) of ``encode_frame`` + ``decode_frame`` on one DATA
frame of 32 fixed strings — a ``batch=32`` hop's unit of work.  The
per-value ladders cost 194 calls (binary) and 95 (JSON, which walked
every body twice); a run of strings now costs none.  Whoever re-adds a
function call per value moves this number, on any machine.

When it fails, CI's "Body codec" step prints the calls and the
µs/record both codecs measure on that runner.
"""

import sys

import pytest

from repro.net.framing import (
    CODEC_BINARY,
    CODEC_JSON,
    Frame,
    FrameType,
    decode_frame,
    encode_frame,
)

#: 32 records of 8-70 bytes: every one takes the short-string path.
RECORDS = [f"record-{index:02d}-" + "x" * (index * 2) for index in range(32)]
FRAME = Frame(FrameType.DATA, {"items": RECORDS, "channel": "Output"})

#: Measured 38 and 23 (CPython 3.11) when the one-pass codecs landed.
#: A comprehension is its own call before 3.12, hence the few spare.
BUDGET = {CODEC_BINARY: 48, CODEC_JSON: 32}


def calls_per_frame(codec: str, frame: Frame = FRAME) -> int:
    """Python-level calls to encode and decode ``frame`` once."""
    calls = 0

    def count_calls(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count_calls)
    try:
        decoded, _consumed = decode_frame(encode_frame(frame, codec))
    finally:
        sys.setprofile(previous)
    assert decoded == frame
    return calls


@pytest.mark.parametrize("codec", sorted(BUDGET))
def test_calls_per_frame_stay_within_budget(codec):
    calls = calls_per_frame(codec)
    assert calls <= BUDGET[codec], (
        f"{calls} Python calls to encode + decode one 32-record {codec} "
        f"frame (budget {BUDGET[codec]})"
    )


@pytest.mark.parametrize("codec", sorted(BUDGET))
def test_calls_do_not_grow_with_the_batch(codec):
    """The budget is per frame, not per record: 8x the records, same calls."""
    wide = Frame(FrameType.DATA, {"items": RECORDS * 8, "channel": "Output"})
    assert calls_per_frame(codec, wide) == calls_per_frame(codec)
