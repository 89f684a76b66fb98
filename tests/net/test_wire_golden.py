"""The wire did not move: a literal corpus of frames, byte for byte.

``tests/net/wiretap.py``'s reference chains move 7 records, 3 at a
time, through an identity filter — pulled and pushed, ``resume`` off
and on, JSON and binary.  Every frame each link carried is pinned here
as a literal ``(type, body, crc32 of the JSON wire bytes, crc32 of the
binary wire bytes)``, generated with the code as it stood *before* the
``_legacy`` / ``_resume`` twins of ``net/protocol.py`` became one loop
per verb (PR 24) and not regenerated since.  A rewrite of the protocol
loops that changes any byte of any frame — a key, a key's position, a
count — fails here; a deliberate wire change edits these literals in
the same commit and says why.

Both links of a chain carry the same frames (the filter is the
identity), so one row serves both.  Frames are compared per direction:
within one direction a link's order is the protocol's, while how the
two directions interleave in a log depends on how TCP segments happen
to fall.
"""

import asyncio

import pytest

from repro.fault import FaultPlan, FrameFault
from repro.fault.inject import build_injector

from tests.net.wiretap import (
    ITEMS,
    RECEIVED,
    SENT,
    frames_of,
    pull_chain,
    push_chain,
    writes_seen,
)

CODECS = ("json", "binary")

READ = ("READ", {"batch": 3, "channel": "Output"}, 1091817580, 539968591)

#: ``resume`` off: no frame carries ``seq``.
DATA = [
    ("DATA", {"items": ["r0", "r1", "r2"], "channel": "Output"}, 2454226251, 3527647061),
    ("DATA", {"items": ["r3", "r4", "r5"], "channel": "Output"}, 3095700889, 2327023369),
    ("DATA", {"items": ["r6"], "channel": "Output"}, 4259616852, 3924509351),
]
WRITES = [
    ("WRITE", {"items": ["r0", "r1", "r2"], "channel": "Output"}, 377068730, 1909831449),
    ("WRITE", {"items": ["r3", "r4", "r5"], "channel": "Output"}, 1018543208, 690333509),
    ("WRITE", {"items": ["r6"], "channel": "Output"}, 1386220051, 1763399096),
]
END = ("END", {"channel": "Output"}, 1906364343, 3789686162)

#: ``resume`` on: DATA / WRITE carry the ``seq`` of their first record,
#: END the length of the stream.
DATA_SEQ = [
    ("DATA", {"items": ["r0", "r1", "r2"], "channel": "Output", "seq": 0}, 3641016217, 1146839671),
    ("DATA", {"items": ["r3", "r4", "r5"], "channel": "Output", "seq": 3}, 2499186125, 202780938),
    ("DATA", {"items": ["r6"], "channel": "Output", "seq": 6}, 3291882526, 3484988056),
]
WRITES_SEQ = [
    ("WRITE", {"items": ["r0", "r1", "r2"], "channel": "Output", "seq": 0}, 2478993418, 764911226),
    ("WRITE", {"items": ["r3", "r4", "r5"], "channel": "Output", "seq": 3}, 3727786590, 1708838151),
    ("WRITE", {"items": ["r6"], "channel": "Output", "seq": 6}, 4186425538, 3851455226),
]
END_SEQ = ("END", {"channel": "Output", "seq": 7}, 4063491582, 4014103590)

#: Credit comes back as it was spent: 3, 3, 1, then the final ACK.
ACKS = [
    ("ACK", {"credit": 3, "channel": "Output"}, 2470924759, 363204655),
    ("ACK", {"credit": 3, "channel": "Output"}, 2470924759, 363204655),
    ("ACK", {"credit": 1, "channel": "Output"}, 2005094570, 504284969),
    ("ACK", {"credit": 0, "final": True, "channel": "Output"}, 2885768453, 3810733872),
]

#: (verb, window, resume) -> what a link's serving side received / sent.
#: ``window`` is the pull side's pipeline depth or the push side's
#: credit.  At depth 8 the reader keeps 8 READs in flight, so 11 go out
#: in all and the 7 still on the wire at END are each answered END.
GOLDEN = {
    ("pull", 1, False): ([READ] * 4, [*DATA, END]),
    ("pull", 1, True): ([READ] * 4, [*DATA_SEQ, END_SEQ]),
    ("pull", 8, False): ([READ] * 11, [*DATA, *[END] * 8]),
    ("pull", 8, True): ([READ] * 11, [*DATA_SEQ, *[END_SEQ] * 8]),
    ("push", 3, False): ([*WRITES, END], ACKS),
    ("push", 3, True): ([*WRITES_SEQ, END_SEQ], ACKS),
    ("push", 12, False): ([*WRITES, END], ACKS),
    ("push", 12, True): ([*WRITES_SEQ, END_SEQ], ACKS),
}

CHAINS = {"pull": pull_chain, "push": push_chain}


def pinned(frames, codec):
    """Literal rows -> the ``(type, body, crc)`` a log holds for ``codec``."""
    column = 2 + CODECS.index(codec)
    return [(frame[0], frame[1], frame[column]) for frame in frames]


def carried(log, direction):
    return [(name, body, crc) for way, name, body, crc in log
            if way == direction]


@pytest.mark.parametrize("codec", CODECS)
@pytest.mark.parametrize("verb,window,resume", sorted(GOLDEN))
def test_every_frame_of_the_reference_stream(verb, window, resume, codec):
    received, sent = GOLDEN[verb, window, resume]
    chain = asyncio.run(CHAINS[verb](resume, window, codec=codec))
    assert chain.output == ITEMS
    assert len(chain.links) == 2
    for link, log in chain.links.items():
        assert carried(log, RECEIVED) == pinned(received, codec), link
        assert carried(log, SENT) == pinned(sent, codec), link


class TestTheRedialIsPinnedToo:
    """One faulted row per verb, ``resume`` on: the second DATA / WRITE
    is corrupted on the wire, the link is dropped, and the redial
    replays exactly that frame — or, for a pull at depth 8, the burst
    the frame travelled in."""

    @staticmethod
    def corrupting(frame):
        return build_injector(FaultPlan(frame_faults=[
            FrameFault(action="corrupt", frame=frame, nth=2),
        ]))

    def test_pull_replays_the_corrupted_data_frame(self):
        chain = asyncio.run(pull_chain(
            True, 1, injector=self.corrupting("data"), io_timeout=2.0))
        assert chain.output == ITEMS
        driver, _sent = chain.ends["driver"]
        serving, sent = chain.ends["filter-serving"]
        assert driver.get("reconnects") == 1
        assert driver.get("duplicate_records") == 0
        assert driver.get("invocations_sent") == 5
        # The serving side believes it sent seq 3 twice: the corrupted
        # frame, then the replay the reconnect's ``next_seq = 3`` asked
        # for — three records served from the log a second time.
        assert sent == [(name, body) for name, body, *_crcs in (
            DATA_SEQ[0], DATA_SEQ[1], DATA_SEQ[1], DATA_SEQ[2], END_SEQ)]
        assert serving.get("replayed_records") == 3
        # The clean hop behind it saw nothing of this.
        assert carried(chain.links["filter-source"], SENT) == pinned(
            [*DATA_SEQ, END_SEQ], "json")
        assert chain.ends["filter-client"][0].get("reconnects") == 0

    def test_a_corrupted_burst_is_replayed_whole(self):
        """Depth 8: the 8 READs arrive in one segment and are answered
        in one burst, so the corrupted second DATA shares a segment with
        the first.  The reader's frame protocol hands out the good first
        DATA before it raises on the corrupted one, so the redial asks
        from ``seq`` 3, not 0: the serving side replays 4 records, not
        the whole burst's 7 (the name is from when it did), and 11
        records out, not 14.  Those are the figures of the code before
        PR 24, whose resume loop wrote one reply at a time; PR 24's
        segment reader raised before handing out either DATA.  The one
        READ the reader sent after the good DATA, refilling its window
        before it met the error, is answered with a sixth END on the
        first link.  ``replayed_records`` and ``records_out`` count
        replies *computed*, not replies delivered."""
        chain = asyncio.run(pull_chain(
            True, 8, injector=self.corrupting("data"), io_timeout=2.0))
        assert chain.output == ITEMS
        driver, _sent = chain.ends["driver"]
        serving, sent = chain.ends["filter-serving"]
        assert driver.get("reconnects") == 1
        assert driver.get("duplicate_records") == 0
        assert driver.get("invocations_sent") == 9 + 10
        first = [(name, body) for name, body, *_crcs in (
            *DATA_SEQ, *[END_SEQ] * 6)]
        replay = [(name, body) for name, body, *_crcs in (
            *DATA_SEQ[1:], *[END_SEQ] * 8)]
        assert sent == [*first, *replay]
        assert serving.get("replayed_records") == 4
        assert serving.get("records_out") == 11
        assert chain.ends["filter-client"][0].get("reconnects") == 0

    def test_push_replays_the_corrupted_write_frame(self):
        chain = asyncio.run(push_chain(
            True, 3, injector=self.corrupting("write"), io_timeout=2.0))
        assert chain.output == ITEMS
        driver, _sent = chain.ends["driver"]
        assert driver.get("reconnects") == 1
        assert driver.get("write_frames_sent") == 4
        assert driver.get("invocations_sent") == 5
        # The corrupted WRITE never decoded, so the filter saw seq 3
        # once — as the replay from the WELCOME's ``resume_seq = 3`` —
        # and had nothing to discard.
        log = chain.links["driver-filter"]
        assert writes_seen(log) == [(0, 3), (3, 3), (6, 1)]
        assert frames_of(log, RECEIVED, "END") == [END_SEQ[:2]]
        for state in chain.states.values():
            assert (state.received, state.duplicates, state.ended) == (
                7, 0, True)
        for end in ("filter-serving", "sink"):
            assert chain.ends[end][0].get("duplicate_records") == 0
        assert carried(chain.links["filter-sink"], RECEIVED) == pinned(
            [*WRITES_SEQ, END_SEQ], "json")
