"""The wire did not move: literal frames from before the codec rewrite.

``GOLDEN`` was generated with the encoder of the commit *before* the
one-pass codecs landed (PR 22, f1b2bbb) — every tag, the varint length
boundaries, non-ASCII text, integers of any magnitude, mixed lists (a
string run, an int, a string run), and the subclass cases the
exact-type tables must fall through for.  A codec change that moves a
single byte of any of them fails here, on both codecs.

The second half is a differential: hypothesis payloads through the
shipped codecs and through small reference encoders that live in this
file (never in ``src/``) — the per-value ``isinstance`` ladders the
rewrite replaced, kept as the oracle.  Decoding is checked by the round
trip of the very bytes the references agreed on.
"""

import base64
import collections
import enum
import hashlib
import json
import struct

import pytest
from hypothesis import given, strategies as st

from repro.core.capability import ChannelCapability
from repro.core.uid import UID
from repro.net.framing import (
    CODEC_BINARY,
    CODEC_JSON,
    Frame,
    FrameError,
    FrameType,
    decode_frame,
    encode_frame,
)
from tests.properties.test_net_framing import payloads, scalars


class Colour(enum.IntEnum):
    RED = 5


class Label(str):
    pass


class Ratio(float):
    pass


Point = collections.namedtuple("Point", "x y")

OWNER = UID(space=3, serial=9, nonce=2**64 - 1)
CAPABILITY = ChannelCapability(owner=OWNER, name="Report", secret=12345)


def text(size: int) -> str:
    return ("abcdefghijklmnopqrstuvwxyz" * (size // 26 + 1))[:size]


#: name -> the value carried under ``{"v": ...}`` in a DATA frame.
CASES = {
    "none": None,
    "true": True,
    "false": False,
    "bools_vs_ints": [True, 1, False, 0],
    "int_0": 0,
    "int_1": 1,
    "int_-1": -1,
    "int_2^7": 2**7,
    "int_-2^7": -(2**7),
    "int_2^63": 2**63,
    "int_-2^63": -(2**63),
    "int_2^200": 2**200,
    "float_1.5": 1.5,
    "float_-0.0": -0.0,
    "float_tiny": 5e-324,
    "float_inf": float("inf"),
    "str_0": "",
    "str_1": "x",
    "str_127": text(127),
    "str_128": text(128),
    "str_16383": text(16383),
    "str_16384": text(16384),
    "str_latin": "naïve café",
    "str_cjk": "流れ",
    "str_4byte": "\U0001f30a stream \U0001d11e",
    "str_127_bytes_of_2byte": "é" * 63 + "x",
    "str_128_bytes_of_2byte": "é" * 64,
    "str_escapes": "quote\" back\\ nl\n tab\t nul\x00 del\x7f",
    "bytes_0": b"",
    "bytes_1": b"\x00",
    "bytes_127": bytes(range(127)),
    "bytes_128": bytes(range(128)),
    "bytes_16383": bytes(range(256)) * 63 + bytes(range(255)),
    "bytes_16384": bytes(range(256)) * 64,
    "list_empty": [],
    "list_strs": ["alpha", "beta", "", "gamma"],
    "list_mixed_runs": ["a", "bb", 7, "ccc", "dddd", None, "e"],
    "list_long_strs": ["s", text(128), "t", text(300), "u"],
    "list_128_items": list(range(128)),
    "list_nested": [[["deep"], []], [1, [2, [3]]]],
    "tuple_empty": (),
    "tuple_mixed": ("a", (1, 2), [3, (4,)]),
    "dict_empty": {},
    "dict_plain": {"b": 1, "a": [2, 3], "c": {"d": None}},
    "dict_int_keys": {1: "one", 2: "two"},
    "dict_tuple_key": {(2, 3): "pair", "s": 1},
    "dict_tag_key": {"__bytes__": "not really", "plain": 1},
    "dict_every_tag_key": {
        "__tuple__": 1, "__uid__": 2, "__chan__": 3, "__dict__": 4,
    },
    "uid": OWNER,
    "uid_zero": UID(space=0, serial=0, nonce=0),
    "capability": CAPABILITY,
    "capability_unicode_name": ChannelCapability(
        owner=UID(space=1, serial=2, nonce=3), name="報告", secret=0),
    "records_of_everything": [
        ("k", 1, 2.5, b"\xff", None), {"u": OWNER, "c": CAPABILITY}, [(), {}],
    ],
    "sub_intenum": Colour.RED,
    "sub_intenum_in_list": ["a", Colour.RED, "b"],
    "sub_str": Label("label"),
    "sub_str_in_run": ["a", Label("label"), "b"],
    "sub_str_key": {Label("key"): 1},
    "sub_float": Ratio(0.25),
    "sub_namedtuple": Point(1, "y"),
    "sub_ordereddict": collections.OrderedDict([("z", 1), ("a", 2)]),
    "sub_frametype": FrameType.DATA,
}

#: name -> whole frames (types, channel ids, the shapes the protocol sends).
FRAMES = {
    "frame_empty_hello": Frame(FrameType.HELLO),
    "frame_read": Frame(FrameType.READ, {"batch": 4, "channel": 2}),
    "frame_data_batch": Frame(FrameType.DATA, {
        "items": [text(8 + 3 * n) for n in range(8)], "channel": "Output",
    }),
    "frame_data_traced": Frame(FrameType.DATA, {
        "items": ["r"], "channel": "Output", "trace": ["t1", "s2", None],
    }),
    "frame_write_chan0": Frame(FrameType.WRITE, {"items": [1], "seq": 7}, chan=0),
    "frame_end_chan_max": Frame(FrameType.END, {"channel": CAPABILITY},
                                chan=2**32 - 1),
    "frame_ctrl_reply": Frame(FrameType.CTRL_REPLY, {
        "ok": True, "stats": {"frames": 3, "rate": 0.5, "peers": ["a", "b"]},
    }),
}
FRAMES.update(
    (name, Frame(FrameType.DATA, {"v": value})) for name, value in CASES.items()
)

#: What each subclass case must decode back to (exact built-in types).
NORMALISED = {
    "sub_intenum": 5, "sub_intenum_in_list": ["a", 5, "b"],
    "sub_str": "label", "sub_str_in_run": ["a", "label", "b"],
    "sub_str_key": {"key": 1}, "sub_float": 0.25,
    "sub_namedtuple": (1, "y"), "sub_ordereddict": {"z": 1, "a": 2},
    "sub_frametype": 4,
}


def fingerprint(wire: bytes) -> str:
    """Hex of a short frame; length + SHA-256 of a long one."""
    if len(wire) <= 44:
        return wire.hex()
    return f"{len(wire)}:{hashlib.sha256(wire).hexdigest()}"


#: name -> (binary, json) fingerprints; ``None`` where the codec refuses
#: the value (JSON has no infinity).  Generated at f1b2bbb — never edit
#: a value to make a test pass.
GOLDEN = {
    "frame_empty_hello": (
        "45444e3181000000020900",
        "45444e3101000000027b7d",
    ),
    "frame_read": (
        "45444e318300000016090205056261746368030805076368616e6e656c0304",
        "45444e3103000000177b226261746368223a342c226368616e6e656c223a327d",
    ),
    "frame_data_batch": (
        "201:54fd731431941877d6ae283b43f6df08a762b068d00e596160c51975eb58c18f",
        "211:01d30501c3e0e713bf7f58a3e32ad2a6090f4b47aef6f876a236950dc35c0242",
    ),
    "frame_data_traced": (
        "58:60942fac66f42a41294d8371ac8757bc577850550e3f7112213f03b14f425104",
        "68:52cb37acf83cc17911bcfb1a3328dfb5b0d8fad864ab77915b59fba1ed7596f4",
    ),
    "frame_write_chan0": (
        "45444e31c50000001400000000090205056974656d73070103020503736571030e",
        "45444e314500000015000000007b226974656d73223a5b315d2c22736571223a377d",
    ),
    "frame_end_chan_max": (
        "48:a189ab2bb4b25631cb26368eb4aa3dde6d1dab17487cf50a6cc23f47fdfc71af",
        "105:39b04e9943c4050998d2c162379bd8746e44113edac60a4b7a3148f815feca46",
    ),
    "frame_ctrl_reply": (
        "65:48ed047d26bf91083906ccdfdceec5b6dfbf7aace2eddcc22ed2e32593434e8f",
        "70:8c04b68e968389d6caebf5006eb62d64675af3779bd5911a902b3bcea400e1df",
    ),
    "none": (
        "45444e318400000006090105017600",
        "45444e31040000000a7b2276223a6e756c6c7d",
    ),
    "true": (
        "45444e318400000006090105017601",
        "45444e31040000000a7b2276223a747275657d",
    ),
    "false": (
        "45444e318400000006090105017602",
        "45444e31040000000b7b2276223a66616c73657d",
    ),
    "bools_vs_ints": (
        "45444e31840000000d09010501760704010302020300",
        "45444e3104000000167b2276223a5b747275652c312c66616c73652c305d7d",
    ),
    "int_0": (
        "45444e31840000000709010501760300",
        "45444e3104000000077b2276223a307d",
    ),
    "int_1": (
        "45444e31840000000709010501760302",
        "45444e3104000000077b2276223a317d",
    ),
    "int_-1": (
        "45444e31840000000709010501760301",
        "45444e3104000000087b2276223a2d317d",
    ),
    "int_2^7": (
        "45444e3184000000080901050176038002",
        "45444e3104000000097b2276223a3132387d",
    ),
    "int_-2^7": (
        "45444e318400000008090105017603ff01",
        "45444e31040000000a7b2276223a2d3132387d",
    ),
    "int_2^63": (
        "45444e31840000001009010501760380808080808080808002",
        "45444e3104000000197b2276223a393232333337323033363835343737353830387d",
    ),
    "int_-2^63": (
        "45444e318400000010090105017603ffffffffffffffffff01",
        "45444e31040000001a7b2276223a2d393232333337323033363835343737353830387d",
    ),
    "int_2^200": (
        "45444e3184000000230901050176038080808080808080808080808080808080808080808080808080808020",
        "76:3746e42e428b65511b2e7bab3da997b96f95c22cbb6438113590e4e24285b776",
    ),
    "float_1.5": (
        "45444e31840000000e0901050176043ff8000000000000",
        "45444e3104000000097b2276223a312e357d",
    ),
    "float_-0.0": (
        "45444e31840000000e0901050176048000000000000000",
        "45444e31040000000a7b2276223a2d302e307d",
    ),
    "float_tiny": (
        "45444e31840000000e0901050176040000000000000001",
        "45444e31040000000c7b2276223a35652d3332347d",
    ),
    "float_inf": (
        "45444e31840000000e0901050176047ff0000000000000",
        None,
    ),
    "str_0": (
        "45444e31840000000709010501760500",
        "45444e3104000000087b2276223a22227d",
    ),
    "str_1": (
        "45444e3184000000080901050176050178",
        "45444e3104000000097b2276223a2278227d",
    ),
    "str_127": (
        "143:81c12bbcd219d2cfd16e13d1bcc6caf49453b05f22d519810660328d1314683c",
        "144:bbfb3a76f6ba4f381f32f48741dc9d93c02e09256385c50861eab895b0e1e639",
    ),
    "str_128": (
        "145:53cd8c2c18a6dba0968b1fde6c970fdf2bd9a86f368c2de5cf32b34e8cd3cf05",
        "145:19849ae97adaf6e075dc57f2d0b391b0cc4ea60762b06d18dbde4526708d863f",
    ),
    "str_16383": (
        "16400:89195e20b1909ece10d8ef554da0fc8e311239e4f66e1ef68841fa4582b6cbb0",
        "16400:436ca4df871475f23e56b1d898fd0ad36c536b010ff55680a345ed6bd2cd1f66",
    ),
    "str_16384": (
        "16402:4f59e27755d8d8d5ba7e82a5fc5eda82b5f857014a01b1130d9ecc4e36094748",
        "16401:2b66dd9f7466176f3d372162e6edddc8eadf7c27e2890f4d0e80288183ac5523",
    ),
    "str_latin": (
        "45444e3184000000130901050176050c6e61c3af766520636166c3a9",
        "45444e31040000001c7b2276223a226e615c75303065667665206361665c7530306539227d",
    ),
    "str_cjk": (
        "45444e31840000000d09010501760506e6b581e3828c",
        "45444e3104000000147b2276223a225c75366434315c7533303863227d",
    ),
    "str_4byte": (
        "45444e31840000001709010501760510f09f8c8a2073747265616d20f09d849e",
        "49:250649dbcaf6b65656fd0a94ada7e7bdccf02ab7ca4af79dc3f65d8ad37d117e",
    ),
    "str_127_bytes_of_2byte": (
        "143:bc2952b87c710271dc3bd155e2e8ce09f4529f275540cca5e7238f5ae1180619",
        "396:c9d7d2fca2f06cf3b692952464ffd22a75f873c200c01d43f24a9873bb0d1234",
    ),
    "str_128_bytes_of_2byte": (
        "145:f2edbea78f78e3759fa2f4f84eb756a8f9d21ecd5101d819900888850332aa0b",
        "401:adad3ea82c167cee15e0a7615615b3c50d6846390ae944274590e16f2485dc88",
    ),
    "str_escapes": (
        "47:c94c2b22f250c27e3686ce616539c4e8c3d267b0fffad3ad0a657f4b9418179d",
        "62:a7252d02db617ce35eb52dc46f42479caf5adacfd78c1cc5d5ebdbfc7beb1b71",
    ),
    "bytes_0": (
        "45444e31840000000709010501760600",
        "45444e3104000000167b2276223a7b225f5f62797465735f5f223a22227d7d",
    ),
    "bytes_1": (
        "45444e3184000000080901050176060100",
        "45444e31040000001a7b2276223a7b225f5f62797465735f5f223a2241413d3d227d7d",
    ),
    "bytes_127": (
        "143:04df0b04522a881fbd5dc58b215221e2ef72f3da86dd31196ea1b9932955114e",
        "203:5aa5676eb862b60a2e82fc5dd74d5dfff83d5c6100ce6a3137c82573c4a7eda8",
    ),
    "bytes_128": (
        "145:32bdb4c854f63beb367398320612f6c1193757f0ea4dcec79a2051fcac6dff3d",
        "203:d87a8915b00ce043a9fd959f7db651dfd73b8d340630d58a66024157b5c24aaf",
    ),
    "bytes_16383": (
        "16400:ecb6e9a85a05e196c0457275200c9e36103ee7f369d861b5330ae69e3b6e0e32",
        "21875:c7abb9ecad176475abc193ae4ab43bdf9ffae1e8d138b633559339251fc408f4",
    ),
    "bytes_16384": (
        "16402:d692590b46ddc786d19e2ce0b94106157c91cd950b0d9f76cf3f662be3f23de7",
        "21879:96cd61fee3c0293a988a99afcf0e688cb03ccb41471a2b40807a72c6566543c6",
    ),
    "list_empty": (
        "45444e31840000000709010501760700",
        "45444e3104000000087b2276223a5b5d7d",
    ),
    "list_strs": (
        "45444e31840000001d090105017607040505616c7068610504626574610500050567616d6d61",
        "45444e3104000000217b2276223a5b22616c706861222c2262657461222c22222c2267616d6d61225d7d",
    ),
    "list_mixed_runs": (
        "45444e31840000001f0901050176070705016105026262030e050363636305046464646400050165",
        "49:9ca060375b0a9b52f17cee4403f1de47c3d3947ea77d0a8c7dddfa72ea144ba1",
    ),
    "list_long_strs": (
        "459:8b3b5d88f4cb6f2b067b6df56aef3cf53908b9abcd42f43832f6e4faf6a91d8f",
        "462:6a346ddc1df1260699a083b3aa58d088c07ada627d478887726337d8258d1d2a",
    ),
    "list_128_items": (
        "337:310adf55a51c7cfa4b0c7bb8923b609b086e42532e286555331f0f9ef3d938ef",
        "418:ba9f2fed83b43606195e0afd67ea43a427f7aaabdcadab0d9255989426a58319",
    ),
    "list_nested": (
        "45444e31840000001f09010501760702070207010504646565700700070203020702030407010306",
        "45444e3104000000217b2276223a5b5b5b2264656570225d2c5b5d5d2c5b312c5b322c5b335d5d5d5d7d",
    ),
    "tuple_empty": (
        "45444e31840000000709010501760800",
        "45444e3104000000167b2276223a7b225f5f7475706c655f5f223a5b5d7d7d",
    ),
    "tuple_mixed": (
        "45444e318400000018090105017608030501610802030203040702030608010308",
        "76:9309904369238051b6a40a04a3d01551d3605e20492944556dd3087f20faff48",
    ),
    "dict_empty": (
        "45444e31840000000709010501760900",
        "45444e3104000000087b2276223a7b7d7d",
    ),
    "dict_plain": (
        "45444e31840000001e090105017609030501620302050161070203040306050163090105016400",
        "47:f2ea485fbf24cc4dbf9b0f8b6dba84227ef9221618ff4b69b7fb2506d8dd779a",
    ),
    "dict_int_keys": (
        "45444e31840000001509010501760902030205036f6e650304050374776f",
        "49:982801524c4f06038ef1885ba3355aad5ed77ead9b060ff6e9bcdb5c70742690",
    ),
    "dict_tuple_key": (
        "45444e318400000018090105017609020802030403060504706169720501730302",
        "66:2e8b6519f0a7d6cb749f72e7aca47df6dc10fde00c08e18136cec7f924bd41d9",
    ),
    "dict_tag_key": (
        "48:c41749accbb1058e30d06a5bb57febce5e390259aa70c01e0171b9ed167437fe",
        "68:14fe9a85c992d6b8edd2a3c27aecb0789aced44b45697f67e29c495558e33259",
    ),
    "dict_every_tag_key": (
        "64:a2783c43f4a73964ae67d019997a0447e431a80f0921bd10a42cfd4aa046d32e",
        "89:8b99c4c2298e358f9a584d49a2b6da133a1aae1667ec864cbe04762d2f36c0aa",
    ),
    "uid": (
        "45444e31840000001209010501760a0612feffffffffffffffff03",
        "53:fefc46c94b421eaddfc3f5f016cb13d488ac441c12c5deaef8af9ce7d9cc1594",
    ),
    "uid_zero": (
        "45444e31840000000909010501760a000000",
        "45444e3104000000197b2276223a7b225f5f7569645f5f223a5b302c302c305d7d7d",
    ),
    "capability": (
        "45444e31840000001d09010501760b0612feffffffffffffffff0305065265706f7274f2c001",
        "95:b0470e20daa29632b10121587cc0fcdd409e5da3241b9c782ffbea9f539dddf6",
    ),
    "capability_unicode_name": (
        "45444e31840000001209010501760b0204060506e5a0b1e5918a00",
        "78:c66f827cf6a5b2c6b96d8ae109ced98d894f82f5361240c9f71324c328a1c42a",
    ),
    "records_of_everything": (
        "87:b456cad0d491214a4cc8c90fd455d7295b1cf6f99a84fe54413d2a3bd769480c",
        "220:8d4e739e7fc7700ecc270d38e37d2de3ed26ad1b69b0e54a3e749a9a784e329a",
    ),
    "sub_intenum": (
        "45444e3184000000070901050176030a",
        "45444e3104000000077b2276223a357d",
    ),
    "sub_intenum_in_list": (
        "45444e31840000000f09010501760703050161030a050162",
        "45444e3104000000117b2276223a5b2261222c352c2262225d7d",
    ),
    "sub_str": (
        "45444e31840000000c090105017605056c6162656c",
        "45444e31040000000d7b2276223a226c6162656c227d",
    ),
    "sub_str_in_run": (
        "45444e3184000000140901050176070305016105056c6162656c050162",
        "45444e3104000000177b2276223a5b2261222c226c6162656c222c2262225d7d",
    ),
    "sub_str_key": (
        "45444e31840000000e0901050176090105036b65790302",
        "45444e31040000000f7b2276223a7b226b6579223a317d7d",
    ),
    "sub_float": (
        "45444e31840000000e0901050176043fd0000000000000",
        "45444e31040000000a7b2276223a302e32357d",
    ),
    "sub_namedtuple": (
        "45444e31840000000c090105017608020302050179",
        "45444e31040000001b7b2276223a7b225f5f7475706c655f5f223a5b312c2279225d7d7d",
    ),
    "sub_ordereddict": (
        "45444e3184000000110901050176090205017a03020501610304",
        "45444e3104000000137b2276223a7b227a223a312c2261223a327d7d",
    ),
    "sub_frametype": (
        "45444e31840000000709010501760308",
        "45444e3104000000077b2276223a347d",
    ),
}


def test_corpus_and_golden_table_cover_each_other():
    assert sorted(GOLDEN) == sorted(FRAMES)


@pytest.mark.parametrize("name", sorted(FRAMES))
@pytest.mark.parametrize("codec", [CODEC_BINARY, CODEC_JSON])
def test_frame_bytes_match_the_pre_rewrite_encoder(name, codec):
    expected = GOLDEN[name][codec == CODEC_JSON]
    if expected is None:
        with pytest.raises(FrameError):
            encode_frame(FRAMES[name], codec)
        return
    wire = encode_frame(FRAMES[name], codec)
    assert fingerprint(wire) == expected
    decoded, consumed = decode_frame(wire)
    assert consumed == len(wire)
    if name in NORMALISED:
        body = {"v": NORMALISED[name]}
        assert decoded.body == body
        assert type(decoded.body["v"]) is type(body["v"])
        assert repr(decoded.body) == repr(body)  # key and item types too
    else:
        assert decoded == FRAMES[name]
        assert repr(decoded.body) == repr(FRAMES[name].body)  # -0.0, 1 vs True


# ---------------------------------------------------------------------------
# Differential: the shipped binary codec against a reference in this file.
# ---------------------------------------------------------------------------


def ref_varint(value: int) -> bytes:
    out = bytearray()
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    return bytes(out + bytes([value]))


def ref_int(value: int) -> bytes:
    return ref_varint(value << 1 if value >= 0 else (-value << 1) - 1)


def ref_encode(value) -> bytes:
    """The tagged binary form, one ``isinstance`` rung per value."""
    if value is None:
        return b"\x00"
    if value is True:
        return b"\x01"
    if value is False:
        return b"\x02"
    if isinstance(value, int):
        return b"\x03" + ref_int(value)
    if isinstance(value, float):
        return b"\x04" + struct.pack("!d", value)
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return b"\x05" + ref_varint(len(raw)) + raw
    if isinstance(value, bytes):
        return b"\x06" + ref_varint(len(value)) + value
    if isinstance(value, UID):  # a tuple subclass: before the tuple rung
        return b"\x0a" + b"".join(
            map(ref_int, (value.space, value.serial, value.nonce)))
    if isinstance(value, (list, tuple)):
        tag = b"\x08" if isinstance(value, tuple) else b"\x07"
        return tag + ref_varint(len(value)) + b"".join(map(ref_encode, value))
    if isinstance(value, dict):
        return b"\x09" + ref_varint(len(value)) + b"".join(
            ref_encode(key) + ref_encode(item) for key, item in value.items())
    assert isinstance(value, ChannelCapability)
    return (b"\x0b" + ref_encode(value.owner)[1:] + ref_encode(value.name)
            + ref_int(value.secret))


def ref_payload(value):
    """The tagged JSON form, one ``isinstance`` rung per value."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, bytes):
        return {"__bytes__": base64.b64encode(value).decode("ascii")}
    if isinstance(value, UID):  # a tuple subclass: before the tuple rung
        return {"__uid__": [value.space, value.serial, value.nonce]}
    if isinstance(value, tuple):
        return {"__tuple__": [ref_payload(item) for item in value]}
    if isinstance(value, list):
        return [ref_payload(item) for item in value]
    if isinstance(value, ChannelCapability):
        return {"__chan__": {"owner": ref_payload(value.owner)["__uid__"],
                             "name": value.name, "secret": value.secret}}
    tags = ("__bytes__", "__tuple__", "__uid__", "__chan__", "__dict__")
    if all(isinstance(key, str) and key not in tags for key in value):
        return {key: ref_payload(item) for key, item in value.items()}
    return {"__dict__": [[ref_payload(key), ref_payload(item)]
                         for key, item in value.items()]}


def ref_frame(frame: Frame, codec: str = CODEC_BINARY) -> bytes:
    if codec == CODEC_BINARY:
        body = ref_encode(frame.body)
    else:
        body = json.dumps(ref_payload(frame.body), separators=(",", ":"),
                          allow_nan=False).encode("utf-8")
    flag = 0x80 if codec == CODEC_BINARY else 0
    return struct.pack("!4sBI", b"EDN1", int(frame.type) | flag, len(body)) + body


@given(body=st.dictionaries(st.text(max_size=10), payloads, max_size=4),
       codec=st.sampled_from([CODEC_BINARY, CODEC_JSON]))
def test_codecs_match_the_reference_encoders(body, codec):
    frame = Frame(FrameType.DATA, body)
    wire = encode_frame(frame, codec)
    assert wire == ref_frame(frame, codec)
    assert decode_frame(wire)[0] == frame


#: Lists shaped like record batches: runs of strings (short, and past
#: the one-byte length) broken by other values — the encoder's run path.
batches = st.lists(
    st.one_of(st.text(max_size=12), st.text(min_size=100, max_size=200), scalars),
    max_size=40,
)


@given(items=batches, as_tuple=st.booleans())
def test_string_runs_match_the_reference_encoder(items, as_tuple):
    frame = Frame(FrameType.DATA, {"items": tuple(items) if as_tuple else items})
    for codec in (CODEC_BINARY, CODEC_JSON):
        wire = encode_frame(frame, codec)
        assert wire == ref_frame(frame, codec)
        assert decode_frame(wire)[0] == frame
