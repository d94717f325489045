"""draftvault: crash-safe persistence for CAD-like documents.

Four protections against non-malicious data loss:

* step-grouped undo/redo over an append-only session journal
* whole-blob version history for parametric representations
* timed autosave with crash detection and recovery
* dated incremental backups and signature-based edit locking

The public names below are imported from their modules on first use
(PEP 562), so ``import draftvault`` loads no submodule and a command pays
only for the modules it touches.
"""
from importlib import import_module

_EXPORTS = {
    "autosave": ("AutosaveConfig", "AutosaveSession", "AutosaveSet", "probe_recovery", "restore"),
    "backup": ("BackupConfig", "BackupManifest", "BackupSet", "backup_due", "run_backup"),
    "errors": (
        "BadHeader",
        "BadPath",
        "Corrupt",
        "DocumentFrozen",
        "DraftVaultError",
        "DuplicateSigner",
        "IoFailure",
        "Locked",
        "NoSuchSigner",
        "NotFound",
        "NothingToRedo",
        "NothingToUndo",
        "OutOfRange",
        "ScriptError",
        "WeakPassword",
    ),
    "faultsim": ("CrashReport", "CrashSimulated", "FaultPlan", "FaultyIO", "crash_sim"),
    "journal": ("ChangeStep", "Journal", "inspect_journal", "make_modify", "recover_journal"),
    "model": ("Drawing", "ElementPayload"),
    "ppversions": ("PPVersionLog", "recover_pp_log"),
    "signatures": (
        "AuthResult",
        "EditGuard",
        "IntegrityStatus",
        "SignatureRecord",
        "SignedEnvelope",
        "authenticate_signature",
        "guard_edit",
        "load_document",
        "load_editable",
        "remove_signature",
        "save_document",
        "sign",
        "verify_integrity",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
