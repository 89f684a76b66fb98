"""repro.broker: the control plane for hosted, multiplexed fleets.

The process-per-stage runtime (:mod:`repro.net.launch`) scales to
dozens of stages per machine; this package is the path to thousands:

- :mod:`repro.broker.daemon` — ``eden-broker``, a naming/discovery/
  relay daemon.  Stages register under fleet-scoped names, request
  channels to peers *by name*, and receive ticket-book-verified
  identities (the paper's C4 UID story at fleet scale); the broker
  validates endpoint-role compatibility at issuance time and relays
  channel frames between host connections without decoding them.
- :mod:`repro.broker.client` — :class:`BrokerClient`, one process's
  attachment to the broker: registration, channel opens, and the
  accept/hangup notifications, all over logical channel 0 of a
  multiplexed connection (:mod:`repro.net.mux`).
- :mod:`repro.broker.host` — ``eden-host``, an asyncio stage host
  running hundreds of lightweight stages in one process over one
  broker connection, with per-stage restart supervision, fault
  plans, and span tracing intact.
- :mod:`repro.broker.launch` — :func:`plan_hosted_fleet`, which turns
  a pipeline description into a broker daemon plus stage hosts under
  the ordinary :class:`repro.net.launch.FleetSupervisor`; surfaced as
  ``Pipeline(..., placement="hosted")`` in :mod:`repro.api`.
"""

from repro._lazy import lazy_front

__getattr__, __dir__, __all__ = lazy_front(globals(), {
    "repro.broker.client": ("BrokerClient",),
    "repro.broker.daemon": ("Broker", "BrokerError"),
    "repro.broker.host": ("HostConfig", "StageHost"),
    "repro.broker.launch": ("plan_hosted_fleet",),
})
