import hashlib
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ssisim.identity
import ssisim.merkle
import ssisim.serialization
from ssisim.credentials import (
    Credential,
    Presentation,
    RevealedAttribute,
    build_credential,
    commitment_leaf,
    create_presentation,
    encodings_set_hash,
    revealed_proofs_ok,
)
from ssisim.engine import (
    define_schema,
    issue_credential,
    revoke_credential,
    tamper_check,
    verify_credential,
    verify_presentation,
)
from ssisim.errors import (
    ConfigError,
    DuplicateAttribute,
    DuplicateSchema,
    NotIssuer,
    NotPermissioned,
    NotSchemaOwner,
    ParseError,
    SchemaMismatch,
    UnknownAttribute,
    UnknownCredential,
    UnknownDid,
    UnknownTransition,
    WrongHolderKey,
)
from ssisim.identity import derive_did, make_did_document, sign
from ssisim.ledger import (
    AnchorCredential,
    CredentialStatus,
    Ledger,
    LedgerMode,
    RegisterDid,
    make_schema,
)
from ssisim.merkle import leaf_hash, merkle_path, merkle_root
from ssisim.serialization import canonical_json_bytes, encode_parts, load_json

from conftest import seeded_keypair

AADHAAR_ATTRS = [
    "name", "date_of_birth", "gender", "address", "mobile_number", "email",
    "fingerprints", "iris_scans", "facial_photograph",
]

PATIENT_VALUES = {"name": "Alice Example", "dob": "1990-04-12", "patient_number": "PN-42"}


def count_calls(monkeypatch, *functions) -> dict:
    """Count calls to each function by name, made through any ssisim module that holds it."""
    calls = {function.__name__: 0 for function in functions}

    def counting(function):
        def wrapper(*args):
            calls[function.__name__] += 1
            return function(*args)

        return wrapper

    for name, module in list(sys.modules.items()):
        for function in functions:
            if name.startswith("ssisim") and vars(module).get(function.__name__) is function:
                monkeypatch.setattr(module, function.__name__, counting(function))
    return calls


def anchor_as(submitter, credential, ledger):
    """Anchor the credential's commitment root in a transaction that submitter signs."""
    unsigned = AnchorCredential(
        credential_id=credential.credential_id,
        issuer_did=derive_did(submitter.public_key),
        commitment_root=credential.commitment_root,
        submitter_signature=b"",
    )
    ledger.submit([replace(unsigned, submitter_signature=sign(submitter.private_key,
                                                              unsigned.signing_payload()))])


@pytest.fixture
def patient_schema(ledger, issuer):
    return define_schema(issuer, "PatientID", 1, ["name", "dob", "patient_number"], ledger)


@pytest.fixture
def credential(ledger, issuer, holder, patient_schema, rng, clock):
    return issue_credential(issuer, derive_did(holder.public_key), patient_schema,
                            dict(PATIENT_VALUES), ledger, rng=rng)


class TestDefineSchema:
    def test_healthcare_schema_is_anchored_and_resolvable(self, ledger, issuer, patient_schema):
        found = ledger.lookup_schema(patient_schema.schema_id)
        assert found == patient_schema
        assert set(found.attribute_names) == {"name", "dob", "patient_number"}

    def test_aadhaar_schema_has_nine_attributes(self, ledger, issuer):
        schema = define_schema(issuer, "AadhaarID", 1, AADHAAR_ATTRS, ledger)
        assert len(schema.attribute_names) == 9
        assert set(schema.attribute_names) == set(AADHAAR_ATTRS)

    def test_empty_attribute_list_rejected(self, ledger, issuer):
        with pytest.raises(DuplicateAttribute):
            define_schema(issuer, "Empty", 1, [], ledger)

    def test_duplicate_attribute_names_rejected(self, ledger, issuer):
        with pytest.raises(DuplicateAttribute):
            define_schema(issuer, "Dups", 1, ["a", "a"], ledger)

    def test_duplicate_schema_rejected(self, ledger, issuer, patient_schema):
        with pytest.raises(DuplicateSchema):
            define_schema(issuer, "PatientID", 1, ["name", "dob", "patient_number"], ledger)

    def test_duplicate_schema_is_refused_by_the_ledger(self, ledger, issuer, patient_schema):
        data = ledger.to_bytes()
        with pytest.raises(DuplicateSchema) as excinfo:
            define_schema(issuer, "PatientID", 1, ["name", "dob", "patient_number"], ledger)
        assert str(excinfo.value) == "transaction 0: duplicate schema"
        assert (excinfo.value.index, excinfo.value.cause) == (0, "duplicate schema")
        assert ledger.to_bytes() == data

    def test_unregistered_issuer_rejected(self, ledger):
        with pytest.raises(UnknownDid):
            define_schema(seeded_keypair(b"nobody"), "X", 1, ["a"], ledger)

    def test_attribute_order_is_canonical(self, ledger, issuer):
        a = define_schema(issuer, "Ordered", 1, ["zeta", "alpha"], ledger)
        assert a.attribute_names == ("alpha", "zeta")

    @pytest.mark.parametrize("version", [-1, 2**64])
    def test_a_version_outside_the_integer_range_is_refused(self, ledger, issuer, version):
        did = derive_did(issuer.public_key)
        with pytest.raises(ConfigError, match=r"outside \[0, 2\^64-1\]"):
            make_schema(did, "Versioned", version, ["a"])
        data = ledger.to_bytes()
        with pytest.raises(ConfigError):
            define_schema(issuer, "Versioned", version, ["a"], ledger)
        assert ledger.to_bytes() == data

    @pytest.mark.parametrize("version", [0, 2**64 - 1])
    def test_a_version_at_either_end_of_the_range_is_anchored(self, ledger, issuer, version):
        schema = define_schema(issuer, "Versioned", version, ["a"], ledger)
        assert ledger.lookup_schema(schema.schema_id).version == version


class TestIssue:
    def test_three_attribute_credential(self, ledger, credential):
        assert len(credential.attributes) == 3
        assert len(credential.salts) == 3
        assert ledger.credential_status(credential.credential_id) is CredentialStatus.ACTIVE
        assert tamper_check(credential, ledger)

    def test_missing_value_rejected(self, ledger, issuer, holder, patient_schema, rng, clock):
        values = dict(PATIENT_VALUES)
        del values["dob"]
        with pytest.raises(SchemaMismatch):
            issue_credential(issuer, derive_did(holder.public_key), patient_schema, values,
                             ledger, rng=rng)

    def test_extra_value_rejected(self, ledger, issuer, holder, patient_schema, rng, clock):
        values = dict(PATIENT_VALUES, blood_type="O+")
        with pytest.raises(SchemaMismatch):
            issue_credential(issuer, derive_did(holder.public_key), patient_schema, values,
                             ledger, rng=rng)

    def test_only_schema_owner_can_issue(self, ledger, holder, patient_schema, rng, clock):
        with pytest.raises(NotSchemaOwner):
            issue_credential(holder, derive_did(holder.public_key), patient_schema,
                             dict(PATIENT_VALUES), ledger, rng=rng)

    def test_unregistered_holder_rejected(self, ledger, issuer, patient_schema, rng, clock):
        ghost = derive_did(seeded_keypair(b"ghost").public_key)
        with pytest.raises(UnknownDid):
            issue_credential(issuer, ghost, patient_schema, dict(PATIENT_VALUES),
                             ledger, rng=rng)

    def test_no_attribute_plaintext_reaches_the_ledger(self, ledger, credential):
        # privacy-leak scan over the full serialized ledger
        data = ledger.to_bytes()
        for _, value in credential.attributes:
            assert value.encode() not in data
            assert value.encode().hex().encode() not in data
        for salt in credential.salts:
            assert salt.hex().encode() not in data


class TestPresentations:
    def test_full_disclosure_reveals_everything(self, credential, holder):
        pres = create_presentation(credential, [n for n, _ in credential.attributes],
                                   b"\x01" * 32, holder)
        assert {(r.name, r.value) for r in pres.revealed} == set(credential.attributes)

    def test_empty_reveal_proves_possession_only(self, ledger, credential, holder):
        pres = create_presentation(credential, [], b"\x01" * 32, holder)
        assert pres.revealed == ()
        report = verify_presentation(ledger, pres, b"\x01" * 32)
        assert report.accepted
        data = canonical_json_bytes(pres.to_json_dict())
        for _, value in credential.attributes:
            assert value.encode() not in data

    def test_unknown_attribute_rejected(self, credential, holder):
        with pytest.raises(UnknownAttribute):
            create_presentation(credential, ["blood_type"], b"\x01" * 32, holder)

    def test_wrong_holder_key_rejected(self, credential, issuer):
        with pytest.raises(WrongHolderKey):
            create_presentation(credential, ["dob"], b"\x01" * 32, issuer)

    def test_single_reveal_from_aadhaar_leaks_nothing_else(self, ledger, issuer, holder,
                                                           rng, clock):
        schema = define_schema(issuer, "AadhaarID", 1, AADHAAR_ATTRS, ledger)
        values = {name: f"value-of-{name}-0x{name[::-1]}" for name in AADHAAR_ATTRS}
        credential = issue_credential(issuer, derive_did(holder.public_key), schema, values,
                                      ledger, rng=rng)
        pres = create_presentation(credential, ["date_of_birth"], b"\x02" * 32, holder)
        data = canonical_json_bytes(pres.to_json_dict())
        revealed_salt = pres.revealed[0].salt
        for (name, value), salt in zip(credential.attributes, credential.salts):
            if name == "date_of_birth":
                assert value.encode() in data
            else:
                assert value.encode() not in data
                assert salt != revealed_salt
                assert salt.hex().encode() not in data
        assert verify_presentation(ledger, pres, b"\x02" * 32).accepted

    def test_the_holder_encodes_each_attribute_once_and_builds_one_tree(
            self, ledger, issuer, holder, rng, monkeypatch):
        schema = define_schema(issuer, "AadhaarID", 1, AADHAAR_ATTRS, ledger)
        credential = issue_credential(issuer, derive_did(holder.public_key), schema,
                                      {name: name.upper() for name in AADHAAR_ATTRS},
                                      ledger, rng=rng)
        calls = count_calls(monkeypatch, ssisim.serialization.encode_parts,
                            ssisim.merkle._levels)
        pres = create_presentation(credential, ["name", "date_of_birth"], b"\x0c" * 32,
                                   holder)
        # one encoding per attribute, shared by its leaf and the revealed set, and the
        # presentation payload
        assert calls == {"encode_parts": len(AADHAAR_ATTRS) + 1, "_levels": 1}
        assert verify_presentation(ledger, pres, b"\x0c" * 32).accepted

    def test_serialization_roundtrip(self, credential, holder):
        pres = create_presentation(credential, ["dob"], b"\x03" * 32, holder)
        again = Presentation.from_json_dict(pres.to_json_dict())
        assert again == pres


TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=12)
ATTRIBUTES = st.lists(st.tuples(TEXT, TEXT, st.binary(min_size=16, max_size=16)), max_size=9)


class TestSharedEncodings:
    """One encode_parts(name, value, salt) per attribute gives both of its hashes."""

    @given(ATTRIBUTES)
    @settings(max_examples=200)
    def test_the_set_hash_and_leaves_are_those_of_the_plain_rule(self, attributes):
        set_hash = hashlib.sha256(encode_parts(attributes)).digest()
        encodings = [encode_parts(n, v, s) for n, v, s in attributes]
        assert encodings_set_hash(encodings) == set_hash
        revealed = [RevealedAttribute(n, v, s, ()) for n, v, s in attributes]
        leaves = [commitment_leaf(n, v, s) for n, v, s in attributes]
        assert [leaf_hash(encoding) for encoding in encodings] == leaves
        if leaves:
            proven = tuple(replace(r, merkle_path=merkle_path(leaves, i))
                           for i, r in enumerate(revealed))
            # revealed_proofs_ok reads only the revealed attributes
            presentation = Presentation(b"", b"", "", "", 0, proven, b"", b"", b"")
            assert revealed_proofs_ok(presentation, encodings, merkle_root(leaves))


class TestVerifyPresentation:
    def test_honest_presentation_accepts_with_all_checks(self, ledger, credential, holder):
        pres = create_presentation(credential, ["name", "dob"], b"\x04" * 32, holder)
        report = verify_presentation(ledger, pres, b"\x04" * 32)
        assert report.accepted
        assert all(passed for _, passed in report.checks)
        assert {name for name, _ in report.checks} == {
            "schema_known", "status_active", "issuer_signature", "merkle_proofs",
            "challenge_match", "holder_signature",
        }

    def test_every_byte_mutation_after_an_honest_verify_rejects(self, ledger, credential,
                                                                  holder):
        # the honest verify fills the verdict memo, so no mutation may be answered from it
        challenge = b"\x08" * 32
        honest = create_presentation(credential, list(PATIENT_VALUES), challenge, holder)
        data = canonical_json_bytes(honest.to_json_dict())
        assert verify_presentation(ledger, Presentation.from_json_dict(load_json(data)),
                                   challenge).accepted
        accepted, failed_checks = [], set()
        for position in range(len(data)):
            for mask in (0x01, 0xFF):
                mutated = data[:position] + bytes([data[position] ^ mask]) + data[position + 1:]
                try:
                    presentation = Presentation.from_json_dict(load_json(mutated))
                except ParseError:
                    continue
                report = verify_presentation(ledger, presentation, challenge)
                if report.accepted:
                    accepted.append((position, mask))
                failed_checks |= {name for name, passed in report.checks if not passed}
        assert accepted == []
        # mutations that parse reach every check, the two signature checks included
        assert failed_checks == {name for name, _ in report.checks}

    @pytest.mark.parametrize("reveal", [["dob"], ["name", "dob"], list(PATIENT_VALUES)],
                             ids=["one", "two", "all"])
    def test_a_warm_verify_encodes_each_payload_once(self, ledger, credential, holder,
                                                      monkeypatch, reveal):
        """Registry reads resolved, a fresh presentation costs k + 2 encodes and 2 verifies.

        The encodes are the credential payload, one per revealed attribute (the preimage of
        both its commitment leaf and its item in the revealed-set hash) and the presentation
        payload; a payload cache would lower them.
        """
        first = create_presentation(credential, reveal, b"\x0a" * 32, holder)
        assert verify_presentation(ledger, first, b"\x0a" * 32).accepted
        fresh = create_presentation(credential, reveal, b"\x0b" * 32, holder)
        assert fresh.holder_signature != first.holder_signature
        calls = count_calls(monkeypatch, ssisim.serialization.encode_parts,
                            ssisim.identity.verify)
        assert verify_presentation(ledger, fresh, b"\x0b" * 32).accepted
        assert calls == {"encode_parts": len(reveal) + 2, "verify": 2}

    def test_revoked_credential_rejects_on_status(self, ledger, issuer, credential, holder):
        pres = create_presentation(credential, ["dob"], b"\x05" * 32, holder)
        revoke_credential(issuer, credential.credential_id, ledger)
        report = verify_presentation(ledger, pres, b"\x05" * 32)
        assert not report.accepted
        assert dict(report.checks)["status_active"] is False

    def test_replay_under_fresh_challenges_always_rejects(self, ledger, credential, holder,
                                                          rng):
        # replay oracle: record one presentation, verify against 10 fresh challenges
        pres = create_presentation(credential, ["dob"], b"\x06" * 32, holder)
        for _ in range(10):
            fresh = rng.randbytes(32)
            report = verify_presentation(ledger, pres, fresh)
            assert not report.accepted
            assert dict(report.checks)["challenge_match"] is False

    def test_unanchored_credential_rejects(self, ledger, issuer, holder, patient_schema,
                                           rng, clock):
        offline = build_credential(issuer, derive_did(holder.public_key), patient_schema,
                                   dict(PATIENT_VALUES), rng, issuance_time=clock.tick())
        pres = create_presentation(offline, ["dob"], b"\x07" * 32, holder)
        report = verify_presentation(ledger, pres, b"\x07" * 32)
        assert not report.accepted
        assert dict(report.checks)["status_active"] is False
        assert dict(report.checks)["merkle_proofs"] is False

    def test_anchor_by_another_did_rejects_on_issuer_signature(self, ledger, issuer, holder,
                                                               patient_schema, rng, clock):
        # The holder anchors its own issuer-signed credential, so the issuer cannot revoke it.
        offline = build_credential(issuer, derive_did(holder.public_key), patient_schema,
                                   dict(PATIENT_VALUES), rng, issuance_time=clock.tick())
        anchor_as(holder, offline, ledger)
        with pytest.raises(NotIssuer):
            revoke_credential(issuer, offline.credential_id, ledger)
        pres = create_presentation(offline, ["dob"], b"\x08" * 32, holder)
        report = verify_presentation(ledger, pres, b"\x08" * 32)
        assert report.verdict == "reject:issuer_signature"
        assert [name for name, passed in report.checks if not passed] == ["issuer_signature"]

    def test_schema_of_another_did_rejects_on_schema_known(self, ledger, issuer, holder,
                                                           rng, clock):
        foreign = define_schema(holder, "PatientID", 1, ["name", "dob", "patient_number"],
                                ledger)
        offline = build_credential(issuer, derive_did(holder.public_key), foreign,
                                   dict(PATIENT_VALUES), rng, issuance_time=clock.tick())
        anchor_as(issuer, offline, ledger)
        pres = create_presentation(offline, ["dob"], b"\x09" * 32, holder)
        report = verify_presentation(ledger, pres, b"\x09" * 32)
        assert report.verdict == "reject:schema_known"
        assert [name for name, passed in report.checks if not passed] == ["schema_known"]


def offline_credential(issuer, holder, schema, rng, clock):
    """An issuer-signed credential for the holder that no block anchors."""
    return build_credential(issuer, derive_did(holder.public_key), schema,
                            dict(PATIENT_VALUES), rng, issuance_time=clock.tick())


def foreign_schema_owner(ledger, issuer, holder, schema, rng, clock):
    foreign = define_schema(holder, schema.name, schema.version, schema.attribute_names, ledger)
    credential = offline_credential(issuer, holder, foreign, rng, clock)
    anchor_as(issuer, credential, ledger)
    return credential


def unknown_schema(ledger, issuer, holder, schema, rng, clock):
    undefined = make_schema(derive_did(issuer.public_key), "Undefined", 1,
                            schema.attribute_names)
    credential = offline_credential(issuer, holder, undefined, rng, clock)
    anchor_as(issuer, credential, ledger)
    return credential


def no_anchor(ledger, issuer, holder, schema, rng, clock):
    return offline_credential(issuer, holder, schema, rng, clock)


def anchor_by_another_did(ledger, issuer, holder, schema, rng, clock):
    credential = offline_credential(issuer, holder, schema, rng, clock)
    anchor_as(holder, credential, ledger)
    return credential


def anchor_of_another_root(ledger, issuer, holder, schema, rng, clock):
    credential = offline_credential(issuer, holder, schema, rng, clock)
    anchor_as(issuer, replace(credential, commitment_root=b"\x00" * 32), ledger)
    return credential


def revoked(ledger, issuer, holder, schema, rng, clock):
    credential = issue_credential(issuer, derive_did(holder.public_key), schema,
                                  dict(PATIENT_VALUES), ledger, rng=rng)
    revoke_credential(issuer, credential.credential_id, ledger)
    return credential


def name_outside_schema(ledger, issuer, holder, schema, rng, clock):
    # The issuer signs and anchors a credential that carries one name its schema lacks.
    widened = replace(schema, attribute_names=(*schema.attribute_names, "blood_type"))
    credential = build_credential(issuer, derive_did(holder.public_key), widened,
                                  dict(PATIENT_VALUES, blood_type="O+"), rng,
                                  issuance_time=clock.tick())
    anchor_as(issuer, credential, ledger)
    return credential


def anchor_of_another_root_signed(ledger, issuer, holder, schema, rng, clock):
    # The issuer anchors a root other than the credential's own and signs the anchored one.
    credential = offline_credential(issuer, holder, schema, rng, clock)
    anchored = replace(credential, commitment_root=b"\x00" * 32)
    anchor_as(issuer, anchored, ledger)
    return replace(credential, issuer_signature=sign(issuer.private_key,
                                                     anchored.signing_payload()))


# fault -> the checks that both a credential and its full disclosure fail
REGISTRY_FAULTS = {
    foreign_schema_owner: ["schema_known"],
    unknown_schema: ["schema_known"],
    name_outside_schema: ["schema_known"],
    no_anchor: ["status_active", "issuer_signature", "merkle_proofs"],
    anchor_by_another_did: ["issuer_signature"],
    anchor_of_another_root: ["issuer_signature", "merkle_proofs"],
    anchor_of_another_root_signed: ["merkle_proofs"],
    revoked: ["status_active"],
}


class TestVerifiersAgree:
    """A credential and its full disclosure fail the same claim checks on each registry
    fault."""

    @pytest.mark.parametrize("fault", REGISTRY_FAULTS, ids=lambda fault: fault.__name__)
    def test_both_verifiers_reject(self, ledger, issuer, holder, patient_schema, rng, clock,
                                   fault):
        credential = fault(ledger, issuer, holder, patient_schema, rng, clock)
        names = [name for name, _ in credential.attributes]
        presentation = create_presentation(credential, names, b"\x0a" * 32, holder)
        fails = REGISTRY_FAULTS[fault]
        for report in (verify_credential(ledger, credential),
                       verify_presentation(ledger, presentation, b"\x0a" * 32)):
            assert [name for name, passed in report.checks if not passed] == fails
            assert report.verdict == f"reject:{fails[0]}"


class TestRevoke:
    def test_issuer_revokes_own_credential(self, ledger, issuer, credential):
        revoke_credential(issuer, credential.credential_id, ledger)
        assert ledger.credential_status(credential.credential_id) is CredentialStatus.REVOKED

    def test_non_issuer_cannot_revoke(self, ledger, holder, credential):
        with pytest.raises(NotIssuer):
            revoke_credential(holder, credential.credential_id, ledger)
        assert ledger.credential_status(credential.credential_id) is CredentialStatus.ACTIVE

    def test_second_revoke_is_an_invalid_transition(self, ledger, issuer, credential):
        revoke_credential(issuer, credential.credential_id, ledger)
        with pytest.raises(UnknownTransition):
            revoke_credential(issuer, credential.credential_id, ledger)
        assert ledger.credential_status(credential.credential_id) is CredentialStatus.REVOKED

    def test_unknown_credential(self, ledger, issuer):
        with pytest.raises(UnknownCredential):
            revoke_credential(issuer, b"\xee" * 32, ledger)

    @pytest.mark.parametrize("case, error, cause", [
        ("unknown", UnknownCredential, "unknown credential"),
        ("foreign", NotIssuer, "revoker is not the anchoring issuer"),
        ("second", UnknownTransition, "already revoked"),
    ])
    def test_the_ledger_refuses_for_the_engine(self, ledger, issuer, holder, credential,
                                               case, error, cause):
        if case == "second":
            revoke_credential(issuer, credential.credential_id, ledger)
        credential_id = b"\xee" * 32 if case == "unknown" else credential.credential_id
        data = ledger.to_bytes()
        with pytest.raises(error) as excinfo:
            revoke_credential(holder if case == "foreign" else issuer, credential_id, ledger)
        assert str(excinfo.value) == f"transaction 0: {cause}"
        assert (excinfo.value.index, excinfo.value.cause) == (0, cause)
        assert ledger.to_bytes() == data

    def test_unregistered_issuer_is_an_unknown_did(self, ledger, issuer, credential):
        nobody = seeded_keypair(b"nobody")
        data = ledger.to_bytes()
        for credential_id in (credential.credential_id, b"\xee" * 32):
            with pytest.raises(UnknownDid):
                revoke_credential(nobody, credential_id, ledger)
        assert ledger.to_bytes() == data
        assert ledger.credential_status(credential.credential_id) is CredentialStatus.ACTIVE

    def test_non_writer_on_a_private_ledger_is_not_permissioned(self, operator, issuer, clock):
        led = Ledger.genesis([make_did_document(operator, created_at=clock.tick())],
                             mode=LedgerMode.PRIVATE_PERMISSIONED, clock=clock)
        led.attach_writer(operator)
        led.submit([RegisterDid(make_did_document(issuer, created_at=clock.tick()))])
        unsigned = AnchorCredential(credential_id=b"\x0e" * 32,
                                    issuer_did=derive_did(issuer.public_key),
                                    commitment_root=b"\x01" * 32, submitter_signature=b"")
        led.submit([replace(unsigned, submitter_signature=sign(issuer.private_key,
                                                               unsigned.signing_payload()))])
        data = led.to_bytes()
        with pytest.raises(NotPermissioned):
            revoke_credential(issuer, b"\x0e" * 32, led)
        assert led.to_bytes() == data
        operator_did = derive_did(operator.public_key)
        assert led.credential_status(b"\x0e" * 32,
                                     reader_did=operator_did) is CredentialStatus.ACTIVE


class TestTamperCheck:
    def test_fresh_credential_passes(self, ledger, credential):
        assert tamper_check(credential, ledger)

    def test_every_attribute_mutation_fails(self, ledger, credential):
        for i, (name, value) in enumerate(credential.attributes):
            mutated_attrs = tuple(
                (n, v + "x") if j == i else (n, v)
                for j, (n, v) in enumerate(credential.attributes)
            )
            assert not tamper_check(replace(credential, attributes=mutated_attrs), ledger)

    def test_every_salt_mutation_fails(self, ledger, credential):
        for i in range(len(credential.salts)):
            mutated_salts = tuple(
                bytes([s[0] ^ 1]) + s[1:] if j == i else s
                for j, s in enumerate(credential.salts)
            )
            assert not tamper_check(replace(credential, salts=mutated_salts), ledger)

    def test_signature_mutation_fails(self, ledger, credential):
        broken = credential.issuer_signature[:-1] + bytes(
            [credential.issuer_signature[-1] ^ 1])
        assert not tamper_check(replace(credential, issuer_signature=broken), ledger)

    def test_credential_json_roundtrip(self, credential):
        assert Credential.from_json_dict(credential.to_json_dict()) == credential

    def test_salts_must_match_the_attributes_in_count(self, credential):
        value = credential.to_json_dict()
        for salts in (value["salts"][:-1], value["salts"] + value["salts"][:1]):
            with pytest.raises(ParseError, match="one salt per attribute"):
                Credential.from_json_dict({**value, "salts": salts})


class TestVerifyCredential:
    def test_fresh_credential_accepts_with_all_checks(self, ledger, credential):
        report = verify_credential(ledger, credential)
        assert report.accepted
        assert [name for name, _ in report.checks] == [
            "schema_known", "status_active", "issuer_signature", "merkle_proofs"]

    def test_its_checks_are_the_first_four_of_a_presentation(self, ledger, credential,
                                                               holder):
        presentation = create_presentation(credential, ["dob"], b"\x0d" * 32, holder)
        names = [name for name, _ in verify_presentation(ledger, presentation,
                                                         b"\x0d" * 32).checks]
        assert [name for name, _ in verify_credential(ledger, credential).checks] == names[:4]

    def test_unknown_schema_rejects_on_schema_known(self, ledger, credential):
        report = verify_credential(ledger, replace(credential, schema_id=b"\x00" * 32))
        assert report.verdict == "reject:schema_known"

    def test_tampered_attribute_rejects_on_merkle_proofs(self, ledger, credential):
        (name, value), *rest = credential.attributes
        tampered = replace(credential, attributes=((name, value + "-tampered"), *rest))
        report = verify_credential(ledger, tampered)
        assert report.verdict == "reject:merkle_proofs"
        assert dict(report.checks) == {"schema_known": True, "status_active": True,
                                       "issuer_signature": True, "merkle_proofs": False}

    def test_anchor_of_another_root_rejects_on_issuer_signature(self, ledger, issuer, holder,
                                                                 patient_schema, rng, clock):
        offline = build_credential(issuer, derive_did(holder.public_key), patient_schema,
                                   dict(PATIENT_VALUES), rng, issuance_time=clock.tick())
        assert verify_credential(ledger, offline).verdict == "reject:status_active"
        anchor_as(issuer, replace(offline, commitment_root=b"\x00" * 32), ledger)
        report = verify_credential(ledger, offline)
        assert [name for name, passed in report.checks if not passed] == [
            "issuer_signature", "merkle_proofs"]

    def test_anchor_by_another_did_rejects_on_issuer_signature(self, ledger, issuer, holder,
                                                                patient_schema, rng, clock):
        offline = build_credential(issuer, derive_did(holder.public_key), patient_schema,
                                   dict(PATIENT_VALUES), rng, issuance_time=clock.tick())
        anchor_as(holder, offline, ledger)
        report = verify_credential(ledger, offline)
        assert [name for name, passed in report.checks if not passed] == ["issuer_signature"]

    def test_every_byte_mutation_after_an_honest_verify_rejects(self, ledger, credential):
        # the honest verify fills the verdict memo, so no mutation may be answered from it
        data = canonical_json_bytes(credential.to_json_dict())
        assert verify_credential(ledger, Credential.from_json_dict(load_json(data))).accepted
        accepted, failed_checks = [], set()
        for position in range(len(data)):
            for mask in (0x01, 0xFF):
                mutated = data[:position] + bytes([data[position] ^ mask]) + data[position + 1:]
                try:
                    mutant = Credential.from_json_dict(load_json(mutated))
                except ParseError:
                    continue
                report = verify_credential(ledger, mutant)
                if report.accepted:
                    accepted.append((position, mask))
                failed_checks |= {name for name, passed in report.checks if not passed}
        assert accepted == []
        # mutations that parse reach every check
        assert failed_checks == {name for name, _ in report.checks}
