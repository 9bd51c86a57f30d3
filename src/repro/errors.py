"""Exception hierarchy shared across the OFTT reproduction.

Every layer of the stack (simulation kernel, NT model, COM runtime, MSMQ,
OPC, OFTT core) derives its errors from :class:`ReproError` so that callers
can catch the whole family with one clause while still discriminating the
layer that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimError(ReproError):
    """Error in the discrete-event simulation kernel."""


class NTError(ReproError):
    """Error in the simulated Windows NT layer."""


class ProcessDead(NTError):
    """An operation targeted a process that has terminated."""


class ThreadDead(NTError):
    """An operation targeted a thread that has terminated."""


class AccessViolation(NTError):
    """A memory access touched an unmapped or protected region."""


class ComError(ReproError):
    """COM runtime failure.  Carries an HRESULT-like code."""

    def __init__(self, hresult: int, message: str = "") -> None:
        super().__init__(message or f"COM error 0x{hresult & 0xFFFFFFFF:08X}")
        self.hresult = hresult


class RpcError(ComError):
    """A DCOM remote procedure call failed (server gone, timeout, ...)."""


class MsqError(ReproError):
    """Message-queue substrate failure."""


class QueueNotFound(MsqError):
    """The addressed queue does not exist on the target node."""


class OpcError(ReproError):
    """OPC layer failure.

    Carries an HRESULT so server-side raises marshal faithfully through
    :mod:`repro.com.dcom` instead of degrading to an anonymous ``E_FAIL``
    (the values live in :mod:`repro.com.hresult`; the default here is the
    literal ``E_FAIL`` to keep this module import-cycle free).
    """

    default_hresult = 0x8000_4005  # E_FAIL

    def __init__(self, message: str = "", hresult: int = 0) -> None:
        super().__init__(message)
        self.hresult = hresult or self.default_hresult


class ItemNotFound(OpcError):
    """An OPC item id does not exist in the server's address space."""

    default_hresult = 0xC004_0007  # OPC_E_UNKNOWNITEMID


class OfttError(ReproError):
    """OFTT middleware failure."""


class NotInitialized(OfttError):
    """An OFTT API was called before ``OFTTInitialize``."""


class CheckpointError(OfttError):
    """Checkpoint capture, transfer or restore failed."""


class RoleError(OfttError):
    """Illegal role transition or negotiation failure."""


class WatchdogError(OfttError):
    """Watchdog timer misuse (unknown id, double delete, ...)."""


class FaultInjectionError(ReproError):
    """A fault campaign was malformed or targeted a missing component."""
