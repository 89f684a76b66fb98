"""The Sequence protocol records: Transfer, WriteAck, endpoints."""

import copy
import pickle

import pytest

from repro.core.errors import StreamProtocolError
from repro.core.message import _estimate_size
from repro.core.uid import UIDFactory
from repro.net.framing import (
    CODEC_BINARY,
    CODEC_JSON,
    Frame,
    FrameType,
    decode_frame,
    encode_frame,
)
from repro.transput.stream import (
    END_TRANSFER,
    StreamAssembler,
    StreamEndpoint,
    StreamStatus,
    Transfer,
)


class TestTransfer:
    def test_of_builds_data(self):
        transfer = Transfer.of(["a", "b"])
        assert transfer.status is StreamStatus.DATA
        assert transfer.items == ("a", "b")
        assert not transfer.at_end

    def test_single(self):
        assert Transfer.single("x").items == ("x",)

    def test_empty_data_rejected(self):
        with pytest.raises(StreamProtocolError):
            Transfer.of([])

    def test_end_carries_nothing(self):
        assert END_TRANSFER.at_end
        assert END_TRANSFER.items == ()

    def test_end_with_items_rejected(self):
        with pytest.raises(StreamProtocolError):
            Transfer(status=StreamStatus.END, items=("x",))

    def test_frozen(self):
        transfer = Transfer.single("x")
        with pytest.raises(AttributeError):
            transfer.items = ()  # type: ignore[misc]
        with pytest.raises(AttributeError):
            transfer.status = StreamStatus.END  # type: ignore[misc]
        with pytest.raises(AttributeError):
            transfer.extra = 1  # type: ignore[attr-defined]

    def test_keyword_construction(self):
        transfer = Transfer(status=StreamStatus.DATA, items=["a", "b"])
        assert transfer == Transfer.of(["a", "b"])
        assert transfer.items == ("a", "b")
        assert not transfer.at_end

    def test_every_end_is_the_one_end_transfer(self):
        assert Transfer(status=StreamStatus.END) is END_TRANSFER
        assert Transfer(StreamStatus.END, ()) is END_TRANSFER
        assert END_TRANSFER.status is StreamStatus.END
        assert pickle.loads(pickle.dumps(END_TRANSFER)) is END_TRANSFER
        assert copy.deepcopy(END_TRANSFER) is END_TRANSFER

    def test_value_equality_and_hash(self):
        assert Transfer.of(["a", 1]) == Transfer.of(("a", 1))
        assert hash(Transfer.of(["a", 1])) == hash(Transfer.of(("a", 1)))
        assert Transfer.single("x") == Transfer.of(["x"])
        assert Transfer.of(["a"]) != Transfer.of(["b"])
        assert Transfer.of(["a"]) != END_TRANSFER
        assert len({Transfer.of([1]), Transfer.of([1]), END_TRANSFER}) == 2

    def test_repr(self):
        assert repr(Transfer.of(["a"])) == (
            "Transfer(status=<StreamStatus.DATA: 'data'>, items=('a',))")
        assert repr(END_TRANSFER) == (
            "Transfer(status=<StreamStatus.END: 'end'>, items=())")

    @pytest.mark.parametrize("transfer", [
        Transfer.of(["ab", "cde"]), Transfer.of([1, (2, "x"), None]),
        END_TRANSFER,
    ])
    def test_deepcopy_and_pickle_keep_the_value(self, transfer):
        for clone in (copy.deepcopy(transfer), copy.copy(transfer),
                      *(pickle.loads(pickle.dumps(transfer, protocol))
                        for protocol in range(pickle.HIGHEST_PROTOCOL + 1))):
            assert type(clone) is Transfer
            assert clone == transfer
            assert clone.at_end == transfer.at_end

    @pytest.mark.parametrize("codec", [CODEC_JSON, CODEC_BINARY])
    def test_round_trip_through_the_wire_codecs(self, codec):
        transfer = Transfer.of(["ab", 7, 2.5, None, b"\x00", ("t", 1)])
        wire = encode_frame(
            Frame(FrameType.DATA, {"items": list(transfer.items)}), codec)
        frame, consumed = decode_frame(wire)
        assert consumed == len(wire)
        assert Transfer.of(frame.body["items"]) == transfer

    def test_estimated_size_is_what_the_bandwidth_model_charges(self):
        # The sim's transport prices a payload by this estimate, so a
        # change moves T9's bandwidth column: 8 + 4 (status) + 8 + 2 + 3.
        assert _estimate_size(Transfer.of(["ab", "cde"])) == 25
        assert _estimate_size(END_TRANSFER) == 20


class TestEndpoint:
    def test_str_without_channel(self):
        uid = UIDFactory().issue()
        assert str(StreamEndpoint(uid)) == str(uid)

    def test_str_with_channel(self):
        uid = UIDFactory().issue()
        assert "[Report]" in str(StreamEndpoint(uid, "Report"))

    def test_equality(self):
        uid = UIDFactory().issue()
        assert StreamEndpoint(uid, "a") == StreamEndpoint(uid, "a")
        assert StreamEndpoint(uid, "a") != StreamEndpoint(uid, "b")


class TestAssembler:
    def test_accumulates_until_end(self):
        assembler = StreamAssembler()
        assert not assembler.accept(Transfer.of([1, 2]))
        assert not assembler.accept(Transfer.of([3]))
        assert assembler.accept(END_TRANSFER)
        assert assembler.items == [1, 2, 3]
        assert assembler.transfers == 3

    def test_rejects_data_after_end(self):
        assembler = StreamAssembler()
        assembler.accept(END_TRANSFER)
        with pytest.raises(StreamProtocolError):
            assembler.accept(Transfer.single("late"))
