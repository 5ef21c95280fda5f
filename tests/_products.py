"""Defective products outside the fault model, for campaign tests.

Each is a `Firewall` subclass that a test swaps in for the bench's
product; the campaign must catch it with the criterion named in its
docstring.
"""

from __future__ import annotations

from fwconform.firewall import Firewall, Mutation


class IgnoresWrites(Firewall):
    """Accepts every file edit and drops it; caught by r3's detections-match-modifications."""

    def modify_file(self, mutation: Mutation) -> None:
        pass
