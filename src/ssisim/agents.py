"""Agents exchange encrypted envelopes over an in-process bus and run DID-Auth.

The bus is the whole transport: FIFO queues keyed by DID. Agents never
put private key material in any message; everything a peer needs is
resolved from the ledger. A DID-Auth challenge names the DID it was issued
to, and only that DID's answer can spend it.
"""

from collections import OrderedDict, deque
from dataclasses import dataclass

from .credentials import Credential, VerificationReport
from .engine import signed_by, verify_credential
from .errors import ParseError, StaleChallenge, UnknownDid, WrongHolderKey
from .identity import Did, Envelope, decrypt, encrypt_for, sign
from .ledger import Ledger
from .runtime import LogicalClock
from .serialization import canonical_json_bytes, encode_parts, expect_str, load_json
from .wallet import Wallet

CHALLENGE_TTL_TICKS = 100
# An agent holds at most this many unanswered challenges: issuing one more drops the oldest.
MAX_OUTSTANDING_CHALLENGES = 1024

_AUTH_CONTEXT = "ssisim/did-auth/v1"


@dataclass(frozen=True)
class AuthChallenge:
    verifier_did: Did
    subject_did: Did
    nonce: bytes
    issued_at: int


@dataclass(frozen=True)
class AuthResponse:
    subject_did: Did
    nonce: bytes
    signature: bytes


def auth_signing_payload(nonce: bytes, verifier_did: Did) -> bytes:
    return encode_parts(_AUTH_CONTEXT, nonce, verifier_did)


class MessageBus:
    """Delivers envelopes to the inboxes of registered agents."""

    def __init__(self):
        self._agents: dict = {}

    def register(self, agent: "Agent") -> None:
        self._agents[agent.did] = agent

    def deliver(self, recipient_did: Did, envelope: Envelope) -> None:
        recipient = self._agents.get(recipient_did)
        if recipient is None:
            raise UnknownDid(f"no agent registered for {recipient_did}")
        recipient.inbox.append(envelope)


class Agent:
    """Acts for one wallet: sends/receives envelopes, answers DID-Auth."""

    def __init__(self, wallet: Wallet, ledger_view: Ledger, bus: MessageBus, rng,
                 clock: LogicalClock):
        self.wallet = wallet
        self.ledger_view = ledger_view
        self.inbox: deque = deque()
        self.bus = bus
        self.rng = rng
        self.clock = clock
        self._outstanding = OrderedDict()  # nonce -> AuthChallenge, oldest first
        bus.register(self)

    @property
    def did(self) -> Did:
        return self.wallet.did

    # -- envelope exchange

    def send_message(self, recipient_did: Did, kind: str, body: dict) -> Envelope:
        """Encrypt a typed message to the recipient's ledger-resolved key."""
        recipient_doc = self.ledger_view.resolve_did(recipient_did, reader_did=self.did)
        plaintext = canonical_json_bytes({"kind": kind, "body": body})
        envelope = encrypt_for(recipient_doc.key_agreement_key,
                               self.wallet.keypair.private_key, plaintext, rng=self.rng)
        self.bus.deliver(recipient_did, envelope)
        return envelope

    def send_credential(self, recipient_did: Did, credential: Credential) -> Envelope:
        return self.send_message(recipient_did, "credential", credential.to_json_dict())

    def open_envelope(self, envelope: Envelope) -> dict:
        """Decrypt and parse a message addressed to this agent."""
        registry = self.ledger_view.registry(self.did)
        sender_did = registry.key_agreement_did(envelope.sender_key_id)
        if sender_did is None:
            raise UnknownDid(f"no registered DID owns key {envelope.sender_key_id}")
        sender_doc = registry.document(sender_did)  # it carries the key, so it is there
        plaintext = decrypt(self.wallet.keypair.private_key, sender_doc.key_agreement_key,
                            envelope)
        obj = load_json(plaintext)
        if not isinstance(obj, dict) or set(obj) != {"kind", "body"}:
            raise ParseError("message must be an object with 'kind' and 'body'")
        return obj

    def receive_credential(self, envelope: Envelope) -> VerificationReport:
        """Decrypt and verify a credential; store it only if the registry accepts it."""
        message = self.open_envelope(envelope)
        if expect_str(message["kind"], "kind") != "credential":
            raise ParseError(f"expected a credential message, got {message['kind']!r}")
        credential = Credential.from_json_dict(message["body"])
        if credential.holder_did != self.did:
            raise WrongHolderKey(f"credential is for {credential.holder_did}, not {self.did}")
        report = verify_credential(self.ledger_view, credential, reader_did=self.did)
        if report.accepted:
            self.wallet.add_credential(credential)
        return report

    # -- DID-Auth

    def did_auth_challenge(self, subject_did: Did) -> AuthChallenge:
        """Issue a fresh single-use nonce for the subject to sign.

        First drop every expired challenge, and the oldest ones while
        MAX_OUTSTANDING_CHALLENGES are held; answers to them then fail.
        """
        self.ledger_view.resolve_did(subject_did, reader_did=self.did)
        now = self.clock.now()
        # The clock is monotone, so the oldest challenge, and every expired one, leads.
        outstanding = self._outstanding
        while outstanding and (
                len(outstanding) >= MAX_OUTSTANDING_CHALLENGES
                or now - next(iter(outstanding.values())).issued_at > CHALLENGE_TTL_TICKS):
            outstanding.popitem(last=False)
        challenge = AuthChallenge(
            verifier_did=self.did,
            subject_did=subject_did,
            nonce=self.rng.randbytes(32),
            issued_at=now,
        )
        self._outstanding[challenge.nonce] = challenge
        return challenge

    def did_auth_respond(self, challenge: AuthChallenge) -> AuthResponse:
        return AuthResponse(
            subject_did=self.did,
            nonce=challenge.nonce,
            signature=sign(self.wallet.keypair.private_key,
                           auth_signing_payload(challenge.nonce, challenge.verifier_did)),
        )

    def did_auth_check(self, response: AuthResponse) -> bool:
        """True iff the challenged DID signs an outstanding nonce; consumes the nonce."""
        challenge = self._outstanding.get(response.nonce)
        if challenge is None or response.subject_did != challenge.subject_did:
            return False
        if self.clock.now() - challenge.issued_at > CHALLENGE_TTL_TICKS:
            del self._outstanding[response.nonce]
            raise StaleChallenge("challenge expired")
        ok = signed_by(self.ledger_view.registry(self.did), response.subject_did,
                       auth_signing_payload(challenge.nonce, self.did), response.signature)
        if ok:
            del self._outstanding[response.nonce]
        return ok
