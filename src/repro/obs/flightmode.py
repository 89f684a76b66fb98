"""The flight recorder's capture fidelities, by name.

Apart from :mod:`repro.obs.flight` so that a stage can validate its
``--flight-mode`` without loading the recorder it may never switch on.
"""

#: Full-fidelity capture: records carry complete wire bytes.
MODE_FULL = "full"
#: Hot-path capture: records carry a CRC-32 of the wire bytes.
MODE_DIGEST = "digest"
#: Every capture fidelity the recorder speaks.
FLIGHT_MODES = (MODE_FULL, MODE_DIGEST)
