"""Fault semantics do not depend on where a stage runs.

One 2-filter readonly chain under resume suffers the same fault plan
on its first filter twice: once as stage processes under the fleet
supervisor, once hosted in a stage host.  Both placements run the same
stage runtime under the same restart rule, so the output, the restart
count and the fault counters are the same literals on both — a
restarted stage runs its plan's survivor either way, so a periodic
frame rule starts counting afresh.
"""

import json

import pytest

from repro.analysis import predicted_invocations
from repro.api import Pipeline
from repro.fault.plan import FaultPlan, FrameFault

ITEMS = [f"record-{i}" for i in range(12)]
IDENTITY = "repro.transput:identity_transducer"
EVERY_SECOND_DATA_TWICE = FrameFault(action="duplicate", frame="data",
                                     every=2)

#: case -> (the first filter's plan, restarts, refused/fault counters)
CASES = {
    "kill_after": (FaultPlan(kill_after=3), 1, {}),
    "refuse_accepts": (FaultPlan(refuse_accepts=1), 0,
                       {"refused_accepts": 1}),
    "duplicate_and_kill": (
        FaultPlan(kill_after=2, frame_faults=[EVERY_SECOND_DATA_TWICE]),
        1, {"fault_duplicate": 5},
    ),
    # The second DATA's body arrives mangled: the reader's link fails
    # and resumes (no restart), whether the link is a socket or a
    # spliced same-host channel.
    "corrupt_data": (
        FaultPlan(frame_faults=[
            FrameFault(action="corrupt", frame="data", nth=2)]),
        0, {"fault_corrupt": 1},
    ),
}


def fault_counters(result):
    return {
        name: value for name, value in result.stats["counters"].items()
        if name == "refused_accepts" or name.startswith("fault_")
    }


class TestFaultsAreTheSameOnBothPlacements:
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("placement", ["processes", "hosted"])
    def test_output_restarts_and_fault_counters(self, tmp_path, placement,
                                                case):
        fault, restarts, counters = CASES[case]
        result = Pipeline(
            [IDENTITY, IDENTITY], source=ITEMS, placement=placement,
        ).run(runtime="tcp", faults={1: fault}, resume=True,
              max_restarts=2, workdir=str(tmp_path), timeout=60.0)
        assert result.output == ITEMS
        assert result.restarts == restarts
        assert result.supervisor["counters"].get("restarts", 0) == restarts
        assert fault_counters(result) == counters


class TestASourcePastArgvLimits:
    """A source travels in the plan file on both placements.

    12 000 records are ~190 KiB of JSON, past Linux's 128 KiB limit on
    one argument: a source shipped on the command line cannot spawn.
    """

    RECORDS = [f"large-source-record-{i:05d}" for i in range(12_000)]

    @pytest.mark.parametrize("placement", ["processes", "hosted"])
    def test_every_record_arrives_at_the_predicted_cost(self, tmp_path,
                                                        placement):
        assert len(json.dumps(self.RECORDS)) > 140 * 1024
        result = Pipeline(
            [IDENTITY, IDENTITY], source=self.RECORDS, placement=placement,
        ).run(runtime="tcp", batch=64, workdir=str(tmp_path), timeout=90.0)
        assert result.output == self.RECORDS
        assert result.invocations == predicted_invocations(
            "readonly", 2, len(self.RECORDS), 64)


class TestRecordsAreValuesNotLines:
    """The sink's records reach the driver as the values they are.

    A record holding a newline, an empty record and a number used to
    come back as text lines: three records for ``"a\\nb"``, and ``"7"``
    for ``7``.
    """

    RECORDS = ["a\nb", "", "c", 7]

    @pytest.mark.parametrize("placement", ["processes", "hosted"])
    def test_output_equals_aio_at_the_predicted_cost(self, tmp_path,
                                                      placement):
        pipeline = Pipeline([IDENTITY, IDENTITY], source=self.RECORDS,
                            placement=placement)
        result = pipeline.run(runtime="tcp", workdir=str(tmp_path),
                              timeout=60.0)
        aio = Pipeline([IDENTITY, IDENTITY], source=self.RECORDS).run("aio")
        assert result.output == aio.output
        assert result.output == self.RECORDS
        # Both placements hand their sink's records to the result
        # through the same router: the per-segment counts and the
        # (empty) branch outputs are aio's too.
        assert result.segment_invocations == aio.segment_invocations
        assert result.branch_outputs == aio.branch_outputs
        assert result.invocations == predicted_invocations(
            "readonly", 2, len(self.RECORDS))
