"""Property: a body from the wire is a ``Frame`` or a ``FrameError``.

Every handler above the codec (``net/stage.py``, ``obs/control.py``,
the broker's control path) catches :class:`FrameError` and nothing
else, so a body that escapes ``decode_frame`` as ``RecursionError`` or
``TypeError`` takes its stage down with it.  A malformed input is an
error termination of the stream, never undefined behaviour of the
module: behind a valid header, arbitrary bytes and mutations of valid
bodies must come out typed.

Nightly CI runs this file under ``--hypothesis-profile deep``.
"""

import pytest
from hypothesis import example, given, strategies as st

from repro.net.framing import (
    BINARY_FLAG,
    CHAN_FLAG,
    CODEC_BINARY,
    CODEC_JSON,
    CODECS,
    HEADER,
    MAGIC,
    MAX_NESTING,
    Frame,
    FrameDecoder,
    FrameError,
    FrameType,
    decode_frame,
    encode_frame,
    encode_frame_into,
)
from tests.properties.test_net_framing import payloads

#: The bodies that escaped ``decode_frame`` untyped before the codec
#: rewrite, by name: (body bytes, binary codec?, the error it used to be).
HOSTILE = {
    "binary_5000_nested_lists": (
        b"\x09\x01\x05\x01a" + b"\x07\x01" * 5000 + b"\x00", True, RecursionError),
    "binary_dict_key_is_a_list": (b"\x09\x01\x07\x00\x00", True, TypeError),
    "json_100000_nested_arrays": (
        b'{"a":' + b"[" * 100_000 + b"]" * 100_000 + b"}", False, RecursionError),
    "json_uid_is_a_string": (b'{"__uid__":"x"}', False, ValueError),
    "json_uid_has_two_fields": (b'{"__uid__":[1,2]}', False, ValueError),
    "json_bytes_is_a_number": (b'{"__bytes__":5}', False, TypeError),
    "json_chan_is_a_number": (b'{"__chan__":5}', False, TypeError),
    "json_dict_is_a_number": (b'{"__dict__":5}', False, TypeError),
    "json_dict_key_is_a_list": (b'{"__dict__":[[[1],2]]}', False, TypeError),
}


def wire(body: bytes, binary: bool, chan: int | None = None) -> bytes:
    """``body`` behind a valid DATA header of the given codec flag."""
    type_code = int(FrameType.DATA) | (BINARY_FLAG if binary else 0)
    if chan is None:
        return HEADER.pack(MAGIC, type_code, len(body)) + body
    return (HEADER.pack(MAGIC, type_code | CHAN_FLAG, len(body))
            + chan.to_bytes(4, "big") + body)


def decodes_or_refuses(data: bytes) -> None:
    """Both entry points give a Frame or a FrameError — nothing else."""
    for decode in (decode_frame, FrameDecoder().feed):
        try:
            decode(data)
        except FrameError:
            pass


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_body_is_a_frame_error(name):
    body, binary, _was = HOSTILE[name]
    with pytest.raises(FrameError):
        decode_frame(wire(body, binary))
    with pytest.raises(FrameError):
        FrameDecoder().feed(wire(body, binary, chan=7))


@pytest.mark.parametrize("tag", ["__uid__", "__bytes__", "__chan__", "__dict__"])
def test_malformed_tagged_value_names_its_tag(tag):
    with pytest.raises(FrameError, match=tag):
        decode_frame(wire(b'{"v":{"%s":5}}' % tag.encode(), False))


def test_hostile_count_fails_on_the_first_missing_item():
    """A list that claims 2**56 items is refused at item one — the count
    is a loop bound, never an allocation."""
    body = b"\x09\x01\x05\x01a\x07" + b"\xff" * 8 + b"\x00"
    with pytest.raises(FrameError, match="truncated"):
        decode_frame(wire(body, True))


def nested(depth: int):
    value = "leaf"
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize("codec", CODECS)
def test_nesting_cap_is_the_same_on_encode_and_decode(codec):
    """The body dict is level one, so it holds MAX_NESTING - 1 more."""
    deepest = Frame(FrameType.DATA, {"v": nested(MAX_NESTING - 1)})
    assert decode_frame(encode_frame(deepest, codec))[0] == deepest
    with pytest.raises(FrameError, match="MAX_NESTING"):
        encode_frame(Frame(FrameType.DATA, {"v": nested(MAX_NESTING)}), codec)


def test_decoders_refuse_one_level_past_the_cap():
    """Hand-built: our own encoder can no longer produce these."""
    binary = b"\x09\x01\x05\x01v" + b"\x07\x01" * MAX_NESTING + b"\x05\x04leaf"
    text = b'{"v":' + b"[" * MAX_NESTING + b'"leaf"' + b"]" * MAX_NESTING + b"}"
    for body, is_binary in ((binary, True), (text, False)):
        with pytest.raises(FrameError, match="MAX_NESTING"):
            decode_frame(wire(body, is_binary))
    # Many brackets, none of them deep: counted, measured, accepted.
    wide = Frame(FrameType.DATA, {"v": [[index] for index in range(200)]})
    assert decode_frame(encode_frame(wide, CODEC_JSON))[0] == wide


def test_a_cycle_is_refused_not_recursed_into():
    loop: list = []
    loop.append(loop)
    for codec in CODECS:
        with pytest.raises(FrameError, match="MAX_NESTING"):
            encode_frame(Frame(FrameType.DATA, {"v": loop}), codec)


# -- the encode side: a failed encode leaves the caller's buffer alone ------

UNENCODABLE = {
    "object_item": {"items": ["fine", "also fine", object()]},
    "lone_surrogate": {"items": ["fine", "\ud800"]},
    "too_deep": {"v": nested(MAX_NESTING)},
    "nan": {"v": float("nan")},
}


@pytest.mark.parametrize("codec", CODECS)
@pytest.mark.parametrize("name", sorted(UNENCODABLE))
def test_failed_encode_restores_the_shared_buffer(name, codec):
    frame = Frame(FrameType.DATA, UNENCODABLE[name], chan=3)
    out = bytearray(b"PREV")
    try:
        encode_frame_into(frame, out, codec)
    except FrameError:
        pass  # anything else escapes and fails the test
    else:  # JSON escapes a surrogate; binary carries NaN
        assert (name, codec) in {("lone_surrogate", CODEC_JSON), ("nan", CODEC_BINARY)}
        assert decode_frame(bytes(out[4:]))[0].chan == 3
        return
    assert out == b"PREV"


def test_lone_surrogate_is_a_frame_error_on_the_binary_codec():
    with pytest.raises(FrameError, match="unencodable"):
        encode_frame(Frame(FrameType.DATA, {"items": ["\ud800"]}), CODEC_BINARY)


# -- properties --------------------------------------------------------------

bodies = st.dictionaries(st.text(max_size=8), payloads, max_size=4)
channels = st.one_of(st.none(), st.integers(min_value=0, max_value=2**32 - 1))


@given(body=st.binary(max_size=200), binary=st.booleans(), chan=channels)
@example(body=HOSTILE["binary_5000_nested_lists"][0], binary=True, chan=None)
@example(body=HOSTILE["binary_dict_key_is_a_list"][0], binary=True, chan=9)
@example(body=HOSTILE["json_100000_nested_arrays"][0], binary=False, chan=None)
@example(body=HOSTILE["json_uid_is_a_string"][0], binary=False, chan=None)
@example(body=HOSTILE["json_uid_has_two_fields"][0], binary=False, chan=0)
@example(body=HOSTILE["json_bytes_is_a_number"][0], binary=False, chan=None)
@example(body=HOSTILE["json_chan_is_a_number"][0], binary=False, chan=None)
@example(body=HOSTILE["json_dict_is_a_number"][0], binary=False, chan=None)
@example(body=HOSTILE["json_dict_key_is_a_list"][0], binary=False, chan=None)
def test_arbitrary_bytes_behind_a_valid_header(body, binary, chan):
    decodes_or_refuses(wire(body, binary, chan))


@given(
    body=bodies, codec=st.sampled_from(CODECS), chan=channels,
    cut=st.integers(min_value=0, max_value=400),
    flips=st.lists(st.tuples(st.integers(min_value=0, max_value=400),
                             st.integers(min_value=1, max_value=255)), max_size=3),
    splice=st.binary(max_size=12), at=st.integers(min_value=0, max_value=400),
)
def test_mutated_valid_bodies(body, codec, chan, cut, flips, splice, at):
    """Truncate, flip and splice a valid body (never its header)."""
    valid = encode_frame(Frame(FrameType.DATA, body), codec)[HEADER.size:]
    binary = codec == CODEC_BINARY
    decodes_or_refuses(wire(valid[:cut % (len(valid) + 1)], binary, chan))
    flipped = bytearray(valid)
    for position, mask in flips:
        flipped[position % len(flipped)] ^= mask
    decodes_or_refuses(wire(bytes(flipped), binary, chan))
    at %= len(valid) + 1
    decodes_or_refuses(wire(valid[:at] + splice + valid[at:], binary, chan))
