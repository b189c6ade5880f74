"""Desk-scale self-sovereign identity stack with a PKI baseline.

Modules:
    identity     keys, DIDs, DID documents, signatures, encrypted envelopes
    ledger       hash-chained permissioned registry (the verifiable data registry)
    credentials  schemas, credentials, selective-disclosure presentations
    engine       issuer/holder/verifier operations against the ledger
    wallet       persistent wallet files
    agents       in-process agent message bus and DID-Auth
    pki          CA/RA/VA baseline and the compromise harness
    scenarios    end-to-end healthcare and government flows
    cli          command-line interface
"""

import importlib

from .credentials import (
    Credential,
    CredentialSchema,
    Presentation,
    VerificationReport,
    create_presentation,
)
from .engine import (
    define_schema,
    issue_credential,
    revoke_credential,
    tamper_check,
    verify_presentation,
)
from .identity import (
    Did,
    DidDocument,
    Envelope,
    KeyPair,
    decrypt,
    derive_did,
    encrypt_for,
    generate_keypair,
    make_did_document,
    sign,
    verify,
)
from .ledger import (
    AnchorCredential,
    ChainReport,
    CredentialStatus,
    DefineSchema,
    Ledger,
    LedgerBlock,
    LedgerMode,
    RegisterDid,
    Revoke,
)
from .runtime import DeterministicRng, LogicalClock, SystemRng
from .wallet import Wallet, wallet_create, wallet_load, wallet_save

__version__ = "0.1.0"

# The PKI baseline, the scenarios and the agents they drive load on first use,
# so that registry commands do not pay for importing them (PEP 562).
_LAZY = {
    "pki": ("CaHierarchy", "Certificate", "CompromiseConfig", "CompromiseReport", "Csr",
            "build_hierarchy", "ca_issue", "make_csr", "ra_approve",
            "run_compromise_experiment", "submit_csr", "verify_certificate",
            "verify_certificates"),
    "scenarios": ("GovernmentConfig", "HealthcareConfig", "ScenarioTranscript",
                  "run_government_scenario", "run_healthcare_scenario"),
}
_LAZY_NAMES = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    module = _LAZY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
