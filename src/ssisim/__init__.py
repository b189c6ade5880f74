"""Desk-scale self-sovereign identity stack with a PKI baseline.

Modules:
    identity     keys, DIDs, DID documents, signatures, encrypted envelopes
    verdicts     signature verdicts, memoized and split over forked helpers; loads
                 before the rest in a cold CLI command
    ledger       hash-chained permissioned registry (the verifiable data registry)
                 and the credential schemas it anchors
    credentials  credentials, selective-disclosure presentations
    engine       issuer/holder/verifier operations against the ledger
    wallet       persistent wallet files
    agents       in-process agent message bus and DID-Auth
    pki          CA/VA baseline and the compromise harness
    scenarios    end-to-end healthcare and government flows
    cli          command-line interface
"""
