#!/usr/bin/env python3
"""Stolen-DIMM audit: what does an attacker actually see at rest?

The paper's threat model (§II-A): an attacker steals the NVM DIMM (or
snoops the bus) and streams out its contents.  This example writes
recognisable secrets through four controllers, then plays the attacker —
scanning the raw device image for the plaintext — and reports who leaked.

It also demonstrates why deduplication does NOT weaken the at-rest story:
DeWrite's duplicate elimination happens before encryption decides bits,
and each stored line's ciphertext is still under a unique (address,
counter) pad.

Run:  python examples/stolen_dimm_audit.py
"""

from __future__ import annotations

from repro import DeWriteController, NvmMainMemory, ReadOutcome, WriteOutcome
from repro.baselines import INvmmController, TraditionalSecureNvmController

LINE = 256
SECRET = b"TOP-SECRET:customer-keys-0042"


class UnencryptedNvmController:
    """A strawman with no memory encryption at all (for contrast)."""

    def __init__(self, nvm: NvmMainMemory) -> None:
        self.nvm = nvm

    def write(self, address: int, data: bytes, arrival_ns: float) -> WriteOutcome:
        complete = self.nvm.write(address, data, arrival_ns)
        return WriteOutcome(complete - arrival_ns, False, complete)

    def read(self, address: int, arrival_ns: float) -> ReadOutcome:
        complete = self.nvm.read(address, arrival_ns)
        return ReadOutcome(complete - arrival_ns, self.nvm.peek(address), complete)


def dump_device(nvm: NvmMainMemory, lines: int = 64) -> bytes:
    """The attacker's view: stream raw line contents off the stolen DIMM."""
    return b"".join(nvm.peek(address) for address in range(lines))


def audit(name: str, controller, nvm: NvmMainMemory, shutdown=None) -> None:
    record = SECRET.ljust(LINE, b"\x00")
    now = 0.0
    for address in range(8):  # the secret is duplicated across lines
        outcome = controller.write(address, record, now)
        now = outcome.complete_ns + 500.0
    if shutdown is not None:
        shutdown(now)

    image = dump_device(nvm)
    leaked = image.count(SECRET)
    stored_lines = sum(1 for a in range(64) if nvm.contains(a))
    verdict = "LEAKED" if leaked else "safe"
    print(
        f"{name:34s} lines stored: {stored_lines:2d}   "
        f"secret found in image: {leaked}x   -> {verdict}"
    )


def main() -> None:
    print(f"writing 8 copies of {SECRET!r} through each controller,")
    print("then scanning the raw DIMM image as the §II-A attacker would:\n")

    nvm = NvmMainMemory()
    audit("no encryption (strawman)", UnencryptedNvmController(nvm), nvm)

    nvm = NvmMainMemory()
    audit("i-NVMM (hot data plaintext)", INvmmController(nvm), nvm)

    nvm = NvmMainMemory()
    i_nvmm = INvmmController(nvm)
    audit(
        "i-NVMM after shutdown sweep",
        i_nvmm,
        nvm,
        shutdown=i_nvmm.shutdown,
    )

    nvm = NvmMainMemory()
    audit("traditional secure NVM (CME)", TraditionalSecureNvmController(nvm), nvm)

    nvm = NvmMainMemory()
    dewrite = DeWriteController(nvm)
    audit("DeWrite (dedup + CME)", dewrite, nvm)
    print(
        f"\nDeWrite stored the 8 identical secret lines as "
        f"{dewrite.stats.writes_stored} physical line(s) — deduplicated AND "
        f"encrypted; the attacker sees neither content nor even distinct copies."
    )
    print(
        "note: i-NVMM is only safe *after* its shutdown sweep — a DIMM pulled "
        "from a live machine leaks its hot set (the paper's §V criticism)."
    )


if __name__ == "__main__":
    main()
