"""draftvault: crash-safe persistence for CAD-like documents.

Four protections against non-malicious data loss:

* step-grouped undo/redo over an append-only session journal
* whole-blob version history for parametric representations
* timed autosave with crash detection and recovery
* dated incremental backups and signature-based edit locking
"""
from .autosave import AutosaveConfig, AutosaveSession, AutosaveSet, probe_recovery, restore
from .backup import BackupConfig, BackupManifest, BackupSet, backup_due, run_backup
from .errors import (
    BadHeader,
    Corrupt,
    DocumentFrozen,
    DraftVaultError,
    DuplicateSigner,
    IoFailure,
    Locked,
    NoSuchSigner,
    NotFound,
    NothingToRedo,
    NothingToUndo,
    OutOfRange,
    ScriptError,
    WeakPassword,
)
from .faultsim import CrashReport, CrashSimulated, FaultPlan, FaultyIO, crash_sim
from .journal import ChangeStep, Journal, inspect_journal, make_modify, recover_journal
from .model import Drawing, ElementPayload
from .ppversions import PPBlob, PPVersionLog, recover_pp_log
from .signatures import (
    AuthResult,
    EditGuard,
    IntegrityStatus,
    SignatureRecord,
    SignedEnvelope,
    authenticate_signature,
    guard_edit,
    load_document,
    load_editable,
    remove_signature,
    save_document,
    sign,
    verify_integrity,
)

__version__ = "0.1.0"
