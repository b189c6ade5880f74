"""End-to-end scenario runs emitting machine-readable transcripts.

Each run wires a fresh registry, wallets, and agents from a single
seeded generator and logical clock, so transcripts are byte-reproducible.
The healthcare flow is exactly six steps; the credential-issuing
authority is called "issuer-authority" to keep it distinct from the
verifying provider.
"""

from dataclasses import asdict, dataclass, field, replace

from .agents import Agent, MessageBus
from .credentials import Presentation, create_presentation
from .engine import define_schema, issue_credential, revoke_credential, verify_presentation
from .errors import ConfigError
from .identity import make_did_document
from .ledger import Ledger, RegisterDid
from .runtime import DeterministicRng, LogicalClock
from .serialization import canonical_json_bytes, sha256
from .wallet import wallet_create

_REQUEST_ACTION = "request_credential"


@dataclass
class ScenarioTranscript:
    scenario_name: str
    steps: list = field(default_factory=list)
    final_verdict: str = "accept"

    def add_step(self, actor_did, action: str, payload: bytes, outcome: str) -> None:
        self.steps.append({
            "step": len(self.steps) + 1,
            "actor_did": actor_did,
            "action": action,
            "payload_hash": sha256(payload).hex(),
            "outcome": outcome,
        })

    def to_json_dict(self) -> dict:
        return asdict(self)

    def to_bytes(self) -> bytes:
        return canonical_json_bytes(self.to_json_dict())


@dataclass
class ScenarioRun:
    """Transcript plus the artifacts tests poke at (not part of the output)."""

    transcript: ScenarioTranscript
    ledger: Ledger
    presentation: Presentation
    verifier_received_plaintext: bytes
    credential: object


@dataclass(frozen=True)
class ScenarioConfig:
    """One run of the six-step issue -> present -> verify flow.

    A subclass is one scenario: it sets the default seed, NAME, SCHEMA_NAME,
    DEFAULT_VALUES (the values it issues), their keys as ATTRIBUTES, and ACTORS
    as (issuer, holder, verifier). reveal=None discloses every attribute.
    """

    seed: bytes
    clock_start: int = 0
    reveal: tuple | None = None
    revoke_before_presentation: bool = False
    tamper_attribute: str | None = None


@dataclass(frozen=True)
class HealthcareConfig(ScenarioConfig):
    """The provider sees the full patient record it was asked for."""

    NAME = "healthcare"
    SCHEMA_NAME = "PatientID"
    DEFAULT_VALUES = {
        "name": "Alice Example",
        "dob": "1990-04-12",
        "patient_number": "PN-1029384756",
    }
    ATTRIBUTES = tuple(DEFAULT_VALUES)
    ACTORS = ("issuer-authority", "patient", "provider")

    seed: bytes = b"\x11" * 32


@dataclass(frozen=True)
class GovernmentConfig(ScenarioConfig):
    """A nine-attribute national ID; the employer sees only name and birth date."""

    NAME = "government"
    SCHEMA_NAME = "AadhaarID"
    DEFAULT_VALUES = {
        "name": "Priya Example",
        "date_of_birth": "1988-11-03",
        "gender": "female",
        "address": "221B Example Marg, Shimla 171001",
        "mobile_number": "+91-99999-00001",
        "email": "priya.example@post.example.in",
        "fingerprints": "FP-TEMPLATE:9f3a7c51e2",
        "iris_scans": "IRIS-TEMPLATE:4b2d8e10aa",
        "facial_photograph": "PHOTO-REF:0b64beefcafe",
    }
    ATTRIBUTES = tuple(DEFAULT_VALUES)
    ACTORS = ("identity-authority", "citizen", "employer")

    seed: bytes = b"\x22" * 32
    reveal: tuple | None = ("name", "date_of_birth")


def _setup_world(seed: bytes, clock_start: int, actor_names):
    """Registry with one writer, registered actor wallets, and live agents."""
    rng = DeterministicRng(seed)
    clock = LogicalClock(clock_start)
    operator = wallet_create(rng.randbytes(32))
    operator_doc = make_did_document(
        operator.keypair, (("registry", "https://registry.sim.example/api"),),
        created_at=clock.tick(),
    )
    ledger = Ledger.genesis([operator_doc], clock=clock)
    ledger.attach_writer(operator.keypair)

    bus = MessageBus()
    agents = {}
    register_txs = []
    for name in actor_names:
        wallet = wallet_create(rng.randbytes(32))
        doc = make_did_document(
            wallet.keypair, (("agent", f"https://{name}.sim.example/agent"),),
            created_at=clock.tick(),
        )
        register_txs.append(RegisterDid(doc))
        agents[name] = Agent(wallet, ledger, bus=bus, rng=rng, clock=clock)
    ledger.submit(register_txs)
    return rng, ledger, agents


def run_scenario(config: ScenarioConfig) -> ScenarioRun:
    """Run the six-step flow that config describes."""
    values = config.DEFAULT_VALUES
    rng, ledger, agents = _setup_world(config.seed, config.clock_start, config.ACTORS)
    issuer, holder, verifier = (agents[name] for name in config.ACTORS)
    transcript = ScenarioTranscript(scenario_name=config.NAME)

    # (1) holder asks the issuing authority for a credential
    request = holder.send_message(
        issuer.did, _REQUEST_ACTION,
        {"schema_name": config.SCHEMA_NAME, "values": {k: values[k] for k in sorted(values)}},
    )
    transcript.add_step(holder.did, _REQUEST_ACTION,
                        canonical_json_bytes(request.to_json_dict()), "ok")

    # (2) issuer defines the schema and anchors the credential commitment
    issuer.inbox.popleft()
    schema = define_schema(issuer.wallet.keypair, config.SCHEMA_NAME, 1, config.ATTRIBUTES,
                           ledger)
    credential = issue_credential(issuer.wallet.keypair, holder.did, schema, values,
                                  ledger, rng=rng)
    anchor_block = ledger.blocks[-1]
    transcript.add_step(issuer.did, "anchor_schema_and_commitment",
                        anchor_block.block_hash, "ok")

    # (3) issuer delivers the credential into the holder's wallet
    delivery = issuer.send_credential(holder.did, credential)
    local_report = holder.receive_credential(holder.inbox.popleft())
    transcript.add_step(issuer.did, "issue_credential",
                        canonical_json_bytes(delivery.to_json_dict()),
                        "stored" if local_report.accepted else local_report.verdict)

    if config.revoke_before_presentation:
        revoke_credential(issuer.wallet.keypair, credential.credential_id, ledger)

    presented = holder.wallet.credentials[-1]
    if config.tamper_attribute is not None:
        names = [n for n, _ in presented.attributes]
        if config.tamper_attribute not in names:
            raise ConfigError(f"cannot tamper unknown attribute {config.tamper_attribute!r}")
        mutated = tuple(
            (n, v + "-tampered") if n == config.tamper_attribute else (n, v)
            for n, v in presented.attributes
        )
        presented = replace(presented, attributes=mutated)

    # (4) holder presents the credential to the verifier under its challenge
    challenge = rng.randbytes(32)
    reveal = config.reveal
    reveal_names = tuple(n for n, _ in presented.attributes) if reveal is None else tuple(reveal)
    presentation = create_presentation(presented, reveal_names, challenge,
                                       holder.wallet.keypair)
    presented_envelope = holder.send_message(verifier.did, "presentation",
                                             presentation.to_json_dict())
    transcript.add_step(holder.did, "present_credential",
                        canonical_json_bytes(presented_envelope.to_json_dict()), "ok")

    # (5) verifier checks the presentation against the registry
    received = verifier.open_envelope(verifier.inbox.popleft())
    verifier_plaintext = canonical_json_bytes(received)
    received_presentation = Presentation.from_json_dict(received["body"])
    report = verify_presentation(ledger, received_presentation, challenge,
                                 reader_did=verifier.did)
    transcript.add_step(verifier.did, "verify_presentation",
                        canonical_json_bytes(report.to_json_dict()), report.verdict)

    # (6) verifier answers with the access decision
    decision = "granted" if report.accepted else "denied"
    reply = verifier.send_message(holder.did, "access_decision", {"access": decision})
    transcript.add_step(verifier.did, "grant_access",
                        canonical_json_bytes(reply.to_json_dict()), decision)

    transcript.final_verdict = report.verdict
    return ScenarioRun(
        transcript=transcript,
        ledger=ledger,
        presentation=received_presentation,
        verifier_received_plaintext=verifier_plaintext,
        credential=credential,
    )


def run_healthcare_scenario(config: HealthcareConfig) -> ScenarioTranscript:
    return run_scenario(config).transcript


def run_government_scenario(config: GovernmentConfig) -> ScenarioTranscript:
    return run_scenario(config).transcript
