"""Channel identifiers for multi-output read-only transput (paper §5).

A filter with several output streams associates a *channel identifier*
with each; every Read invocation is qualified by one.  Three kinds of
identifier are supported, matching the paper's discussion:

- **names** (strings) — the documented identifiers ("channels Report
  and Output");
- **integers** — positional identifiers, "the integer channel
  identifiers" the Eden prototype used (§7); channel ``i`` is the
  i-th advertised channel;
- **capabilities** — unforgeable identifiers minted by the owning
  Eject, closing the hole where "if E is told to read from F's
  channel 1, nothing prevents it from reading from F's channel 2 as
  well".

:class:`ChannelTable` implements resolution and the two security modes:
``"open"`` accepts all three kinds; ``"capability"`` accepts only
capabilities.
"""

from __future__ import annotations

from typing import Sequence, TYPE_CHECKING

from repro.core.capability import ChannelCapability, ChannelId
from repro.core.errors import ChannelSecurityError, NoSuchChannelError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.eject import Eject

#: Accepted security modes.
MODES = ("open", "capability")


class ChannelTable:
    """Resolves presented channel identifiers for one owning Eject.

    Args:
        owner: the Eject whose output channels these are.
        names: advertised channel names, in positional (integer-id)
            order; the first is the default channel for unqualified
            Reads.
        mode: ``"open"`` or ``"capability"``.
    """

    def __init__(
        self, owner: "Eject", names: Sequence[str], mode: str = "open"
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"channel mode must be one of {MODES}, got {mode!r}")
        if not names:
            raise ValueError("a channel table needs at least one channel")
        self._owner = owner
        self._names = list(dict.fromkeys(names))  # dedupe, keep order
        self.mode = mode

    @property
    def names(self) -> list[str]:
        """Advertised channel names in positional order."""
        return list(self._names)

    @property
    def default(self) -> str:
        """The channel used when a Read carries no qualifier."""
        return self._names[0]

    def capability(self, name: str) -> ChannelCapability:
        """The unforgeable identifier for channel ``name``.

        Whoever sets up a pipeline "must ask each filter for the UIDs
        of its channels, and then pass them on" (§5); this is that ask,
        performed host-side during wiring.
        """
        if name not in self._names:
            raise NoSuchChannelError(name, self._owner.name)
        return self._owner.mint_channel(name)

    def advertise(self) -> dict[str, ChannelId]:
        """Identifier map handed to connecting Ejects.

        In capability mode the values are capabilities; in open mode
        they are the plain names.
        """
        if self.mode == "capability":
            return {name: self.capability(name) for name in self._names}
        return {name: name for name in self._names}

    def resolve(self, presented: ChannelId | None) -> str:
        """Map a presented identifier to a canonical channel name.

        Raises:
            ChannelSecurityError: capability mode rejected a
                non-capability identifier, or a capability failed the
                mint check (a forgery).
            NoSuchChannelError: the identifier names no channel.
        """
        if presented is None:
            if self.mode == "capability":
                raise ChannelSecurityError(
                    f"{self._owner.name} requires a channel capability"
                )
            return self._names[0]  # the default channel (every unqualified Read)
        if isinstance(presented, ChannelCapability):
            resolved = self._owner.channels.validate(presented)
            if resolved is None or resolved not in self._names:
                raise ChannelSecurityError(
                    f"capability {presented} was not minted by {self._owner.name}"
                )
            return resolved
        if self.mode == "capability":
            raise ChannelSecurityError(
                f"{self._owner.name} accepts only channel capabilities, "
                f"got {presented!r}"
            )
        if isinstance(presented, int):
            if 0 <= presented < len(self._names):
                return self._names[presented]
            raise NoSuchChannelError(presented, self._owner.name)
        if presented in self._names:
            return presented
        raise NoSuchChannelError(presented, self._owner.name)
