import pytest

from ssisim.credentials import Credential, Presentation
from ssisim.errors import ConfigError, UnknownAttribute
from ssisim.ledger import Ledger
from ssisim.scenarios import (
    GovernmentConfig,
    HealthcareConfig,
    run_government_scenario,
    run_healthcare_scenario,
    run_scenario,
)
from ssisim.serialization import canonical_json_bytes, load_json, sha256
from ssisim.wallet import wallet_create, wallet_load, wallet_save

FIG5_SEQUENCE = [
    ("patient", "request_credential"),
    ("issuer-authority", "anchor_schema_and_commitment"),
    ("issuer-authority", "issue_credential"),
    ("patient", "present_credential"),
    ("provider", "verify_presentation"),
    ("provider", "grant_access"),
]


class TestHealthcare:
    def test_honest_run_is_six_steps_and_accepts(self):
        run = run_scenario(HealthcareConfig())
        transcript = run.transcript
        assert len(transcript.steps) == 6
        assert [s["step"] for s in transcript.steps] == [1, 2, 3, 4, 5, 6]
        assert transcript.final_verdict == "accept"
        assert transcript.steps[-1]["outcome"] == "granted"
        # actors follow the six-step issue/present/verify choreography
        actor_by_role = {
            "patient": transcript.steps[0]["actor_did"],
            "issuer-authority": transcript.steps[1]["actor_did"],
            "provider": transcript.steps[4]["actor_did"],
        }
        observed = [(next(role for role, did in actor_by_role.items()
                          if did == s["actor_did"]), s["action"])
                    for s in transcript.steps]
        assert observed == FIG5_SEQUENCE

    def test_transcript_is_byte_stable_under_fixed_seed(self):
        a = run_healthcare_scenario(HealthcareConfig())
        b = run_healthcare_scenario(HealthcareConfig())
        assert a.to_bytes() == b.to_bytes()

    def test_different_seed_changes_the_transcript(self):
        a = run_healthcare_scenario(HealthcareConfig())
        b = run_healthcare_scenario(HealthcareConfig(seed=b"\x77" * 32))
        assert a.to_bytes() != b.to_bytes()

    def test_revocation_before_presentation_rejects_at_step_5(self):
        transcript = run_healthcare_scenario(
            HealthcareConfig(revoke_before_presentation=True))
        assert len(transcript.steps) == 6
        assert transcript.steps[4]["outcome"] == "reject:status_active"
        assert transcript.final_verdict == "reject:status_active"
        assert transcript.steps[-1]["outcome"] == "denied"

    def test_tampered_attribute_rejects_on_merkle_proofs(self):
        transcript = run_healthcare_scenario(HealthcareConfig(tamper_attribute="dob"))
        assert transcript.steps[4]["outcome"] == "reject:merkle_proofs"
        assert transcript.final_verdict == "reject:merkle_proofs"

    def test_tampering_an_unknown_attribute_is_a_config_error(self):
        with pytest.raises(ConfigError):
            run_healthcare_scenario(HealthcareConfig(tamper_attribute="blood_type"))


class TestGovernment:
    def test_default_run_reveals_exactly_name_and_birthdate(self):
        run = run_scenario(GovernmentConfig())
        assert run.transcript.final_verdict == "accept"
        assert {r.name for r in run.presentation.revealed} == {"name", "date_of_birth"}

    def test_hidden_attributes_never_reach_the_verifier_or_the_ledger(self):
        run = run_scenario(GovernmentConfig())
        hidden = {name: value for name, value in GovernmentConfig.DEFAULT_VALUES.items()
                  if name not in ("name", "date_of_birth")}
        surfaces = (
            run.transcript.to_bytes(),
            run.verifier_received_plaintext,
            run.ledger.to_bytes(),
        )
        for surface in surfaces:
            for value in hidden.values():
                assert value.encode() not in surface
        # the two agreed attributes do reach the verifier
        assert GovernmentConfig.DEFAULT_VALUES["name"].encode() in run.verifier_received_plaintext

    def test_reveal_all_disclosures_nine_attributes(self):
        run = run_scenario(GovernmentConfig(reveal=None))
        assert run.transcript.final_verdict == "accept"
        assert len(run.presentation.revealed) == 9
        assert {r.name for r in run.presentation.revealed} == set(GovernmentConfig.ATTRIBUTES)

    def test_unknown_reveal_attribute_fails_at_presentation(self):
        with pytest.raises(UnknownAttribute):
            run_government_scenario(GovernmentConfig(reveal=("blood_type",)))

    def test_transcript_is_byte_stable(self):
        a = run_government_scenario(GovernmentConfig())
        b = run_government_scenario(GovernmentConfig())
        assert a.to_bytes() == b.to_bytes()


class TestExportedBytes:
    """Every file format's bytes for the default runs, pinned by sha256.

    A change to any key, key order or encoding of a ledger, credential,
    presentation or wallet file changes one of these digests.
    """

    @pytest.mark.parametrize("config, digests", [
        (HealthcareConfig(), (
            "c74031e12ed4cc694f4c4888a69220b2ba3ef9be969f4bdaf69aa16bd6cc7372",
            "83265808b3e21733e0610966831db6e24339c190f6f361a5d0554731e92c260c",
            "87a78a5c2d113699f101d37a38a149ed3f28f3c31ea67ee91b2fde2a05a039bf",
        )),
        (GovernmentConfig(), (
            "e2e9aa41eacd36a389abb52e95a3b457d70907010b330f18334295fbd7ebafba",
            "c52edaffe38e641353937cdb1d8db5621592ac5891f7db96c14fc1ba0ea7f80d",
            "58206d6d09c3f0deaf111a785f54d6e0718365ed0977955544de84f75b41f1f8",
        )),
    ], ids=["healthcare", "government"])
    def test_default_run_files(self, config, digests):
        """Digests of the ledger, credential and presentation files, in that order."""
        run = run_scenario(config)
        ledger_bytes = run.ledger.to_bytes()
        credential_bytes = canonical_json_bytes(run.credential.to_json_dict())
        presentation_bytes = canonical_json_bytes(run.presentation.to_json_dict())
        files = (ledger_bytes, credential_bytes, presentation_bytes)
        assert tuple(sha256(data).hex() for data in files) == digests
        # the parsers read back exactly what the writers wrote
        assert Ledger.from_bytes(ledger_bytes).to_bytes() == ledger_bytes
        for cls, data in ((Credential, credential_bytes), (Presentation, presentation_bytes)):
            assert canonical_json_bytes(cls.from_json_dict(load_json(data)).to_json_dict()) == data

    def test_wallet_file(self):
        wallet = wallet_create(b"\x07" * 32)
        wallet.add_credential(run_scenario(HealthcareConfig()).credential)
        wallet.other_data.append(("note", b"\x00\x01\xff"))
        data = wallet_save(wallet)
        assert sha256(data).hex() == (
            "91cd0dddaed7e435fab8afad1643ca49208bd5109bf2c9c356548a5c18bbbe2f")
        assert wallet_save(wallet_load(data)) == data
