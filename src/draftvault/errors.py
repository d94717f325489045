"""Exception hierarchy shared by all draftvault modules.

Each class carries the exit code the command line returns for it: 1 for
a request that cannot be carried out as asked, 2 for an I/O abort or a
busy document, 3 for a failed integrity check.
"""


class DraftVaultError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class NotFound(DraftVaultError):
    """No element matching the payload exists in the drawing.

    During undo/redo this signals that the journal and the drawing have
    diverged; the operation is aborted without touching the drawing.
    """

    exit_code = 3


class NothingToUndo(DraftVaultError):
    pass


class NothingToRedo(DraftVaultError):
    pass


class OutOfRange(DraftVaultError):
    """Version index outside the stored history."""


class Locked(DraftVaultError):
    """Another live session owns the resource."""

    exit_code = 2


class IoFailure(DraftVaultError):
    """A write failed; on-disk state was repaired to the last good point."""

    exit_code = 2


class BadHeader(DraftVaultError):
    """The file does not start with the expected magic/version."""

    exit_code = 3


class Corrupt(DraftVaultError):
    """Stored content failed a structural or checksum validation."""

    exit_code = 3


class DuplicateSigner(DraftVaultError):
    pass


class NoSuchSigner(DraftVaultError):
    pass


class WeakPassword(DraftVaultError):
    """Empty passwords are rejected at signing time."""


class DocumentFrozen(DraftVaultError):
    """The document carries at least one signature; edits are rejected."""

    exit_code = 3


class ScriptError(DraftVaultError):
    """An edit script failed to parse."""
