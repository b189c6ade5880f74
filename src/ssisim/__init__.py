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
