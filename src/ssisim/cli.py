"""Command-line entry point for scenarios and wallet/ledger utilities.

All outputs are UTF-8 JSON on stdout; diagnostics go to stderr.
Exit codes: 0 success or Accept, 1 usage or configuration error,
2 verification/validation failure, 3 I/O or parse failure.
"""

import argparse
import fcntl
import gc
import json
import os
import sys

# Only verdicts loads with the CLI: main() starts checking a ledger file's writer
# signatures before it loads the rest of the package (see _read_early), and each
# command imports what it needs itself.
from .verdicts import start_verify

# The ledger modes (ledger.LedgerMode), offered as choices without loading the ledger.
_MODES = ["public-permissioned", "private-permissioned"]


def _echo(text: str, stream) -> None:
    """Write a line as UTF-8 whatever the locale; a stream with no byte layer takes text."""
    buffer = getattr(stream, "buffer", None)
    if buffer is None:
        stream.write(text + "\n")
        return
    stream.flush()
    buffer.write((text + "\n").encode("utf-8", "backslashreplace"))
    buffer.flush()


def _print_json(obj) -> None:
    from .serialization import canonical_json

    _echo(canonical_json(obj), sys.stdout)


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as file:
        return file.read()


def _write_bytes(path: str, data: bytes) -> None:
    with open(path, "wb") as file:
        file.write(data)


def _create_bytes(path: str, data: bytes) -> None:
    """Write a new file; an existing one raises FileExistsError and keeps its bytes."""
    with open(path, "xb") as file:
        file.write(data)


def _load_wallet(path: str):
    from .wallet import wallet_load

    return wallet_load(_read_bytes(path))


# --- ledger files --------------------------------------------------------------------
# A command that loads a ledger file holds a flock on it from before its read until
# main() returns: exclusive if the command appends to the file, shared if it only
# reads it. So appends to one file run one at a time, and no read sees half of one.
#
# A cold command that loads a ledger file spends most of its time on imports, the
# strict parse and the writer signatures. So main() reads and parses the file
# before the command runs, guesses the signature jobs from the parsed JSON and
# starts verifying them in a helper (verdicts.start_verify), with nothing of the
# package loaded but this module and verdicts. Only then does the command import
# the ledger, which checks that the parsed JSON re-dumps to exactly the bytes read
# and builds the checked records from it: the file is parsed once. The guess
# decides no verdict: validate_chain takes a helper verdict only for a job equal
# to the one it builds from the checked records, and checks every other job itself.


def _read_early(args) -> tuple | None:
    """(bytes, parsed JSON, started check, locked file) of the ledger file the command
    loads, or None.

    The file is opened and locked with the command's ledger_lock before it is read;
    main() closes it, and with it the lock. None if the command loads no ledger file
    or the file does not open: the command then reads it in its own order and reports
    why. The parse is json's alone; the load checks that it re-dumps to the bytes. If
    the bytes do not parse, the parsed JSON and the check are None, and the command
    parses the same bytes where it would have read them, and reports why.
    """
    path = (getattr(args, "ledger_file", None) or args.ledger) if args.ledger_lock else None
    if path is None:
        return None
    try:
        file = open(path, "rb")
    except (OSError, ValueError):
        return None
    try:
        fcntl.flock(file, args.ledger_lock)
        data = file.read()
        try:
            parsed = json.loads(data.decode("utf-8"))
        except (ValueError, RecursionError):
            return data, None, None, file
        return data, parsed, start_verify(_guess_writer_jobs(parsed)), file
    except BaseException:
        file.close()
        raise


def _guess_writer_jobs(parsed) -> list:
    """The (writer key, block hash, writer signature) of each block after genesis, read
    from a parsed ledger file as validate_chain builds them, but with no check; [] if
    the file is not shaped so."""
    try:
        blocks = parsed["blocks"]
        writers = {tx["document"]["did"]: bytes.fromhex(tx["document"]["verification_key"])
                   for tx in blocks[0]["transactions"] if tx["kind"] == "register_did"}
        return [(writers[block["writer_did"]], bytes.fromhex(block["block_hash"]),
                 bytes.fromhex(block["writer_signature"])) for block in blocks[1:]]
    except (LookupError, TypeError, ValueError):
        return []


def _load_ledger(path: str, early: tuple | None = None) -> tuple:
    """(bytes, ledger) of the ledger file at path; early is _read_early's read of it."""
    from .ledger import Ledger

    data, parsed, started, _ = early or (_read_bytes(path), None, None, None)
    return data, Ledger.from_bytes(data, parsed, started)


def _load_for_append(path: str, early: tuple | None = None) -> tuple:
    """(ledger, save): save() appends the blocks added to ledger since to its file, in place.

    Ledger.from_bytes accepts only canonical bytes and LedgerFile writes the
    chain last, so the file ends in the chain's closing "]}". save() writes
    the new blocks over those two bytes and closes the chain again, rewriting
    no earlier byte: the file then equals ledger.to_bytes(). A write cut short
    after its first byte leaves a file the strict parser refuses. save() first
    checks that the file still has the length it read and ends in "]}", so an
    append made to it since the read is not written over.
    """
    data, ledger = _load_ledger(path, early)
    end, height = len(data) - 2, len(ledger.blocks)

    def save() -> None:
        with open(path, "r+b") as file:
            file.seek(end)
            if file.read(3) != b"]}":  # the closing bytes it read, and then the end
                raise OSError(f"{path} changed since it was read; nothing was written")
            file.seek(end)
            file.write(b"".join(b"," + block.to_bytes() for block in ledger.blocks[height:])
                       + b"]}")

    return ledger, save


def _parse_hex(value: str, flag: str) -> bytes:
    """A 32-byte hex flag's value."""
    from .serialization import parse_hex

    return parse_hex(value, 32, flag)


def _usage_error(message: str) -> Exception:
    """A ConfigError, which exits 1."""
    from .errors import ConfigError

    return ConfigError(message)


def _each_once(names, flag: str):
    """The names, unless one repeats: a usage error that names the flag."""
    seen = set()
    for name in names:
        if name in seen:
            raise _usage_error(f"{flag} names {name!r} more than once")
        seen.add(name)
    return names


def _parse_reveal(reveal: str) -> tuple | None:
    """Comma-separated attribute names, each once; 'all' is None, which reveals every attribute."""
    if reveal == "all":
        return None
    return _each_once(tuple(name.strip() for name in reveal.split(",") if name.strip()),
                      "--reveal")


def _parse_pairs(pairs, what: str) -> dict:
    for pair in pairs:
        if "=" not in pair:
            raise _usage_error(f"{what} must look like name=value, got {pair!r}")
    split = [pair.split("=", 1) for pair in pairs]
    _each_once([name for name, _ in split], what)
    return dict(split)


def _text(value: str) -> str:
    """A text flag's value, which ends up signed: argv bytes that are not UTF-8 are refused."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise argparse.ArgumentTypeError(f"not valid UTF-8: {value!r}") from None
    return value


def _given(value, what: str):
    if value is None:
        raise _usage_error(f"missing {what}")
    return value


# --- parser ------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Takes whole flag names only, offers --help but no -h, and raises usage errors."""

    def __init__(self, **kwargs):
        super().__init__(add_help=False, allow_abbrev=False, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message):
        raise _usage_error(message)


_PARSER = _Parser(
    prog="ssisim",
    description="Self-sovereign identity sandbox: scenarios, registry, wallets, PKI baseline.")
_PARSER.add_argument("--ledger", help="Ledger file path.")
_PARSER.add_argument("--wallet", help="Wallet file path.")
_PARSER.add_argument("--seed", help="32-byte hex seed.")
_PARSER.add_argument("--clock-start", type=int, default=0, help="Logical clock start value.")
_COMMANDS = _PARSER.add_subparsers(metavar="COMMAND", required=True)


def _arg(*names, **settings):
    return names, settings


# A command's copy of a global flag sets its value only when given, so it
# overrides the global value and otherwise leaves it in place.
_LEDGER = _arg("--ledger", default=argparse.SUPPRESS)
_WALLET = _arg("--wallet", default=argparse.SUPPRESS)
_SEED = _arg("--seed", default=argparse.SUPPRESS)
_CLOCK_START = _arg("--clock-start", type=int, default=argparse.SUPPRESS)
_WRITER = _arg("--writer-wallet", required=True)
_REVEAL_HELP = "Comma-separated attribute names, or 'all'."


def _command(*options, name=None, ledger_lock=None):
    """Register the decorated function as a subcommand taking options; it returns the exit code.

    A command with a ledger_lock (fcntl.LOCK_SH or LOCK_EX) loads the file its ledger
    path names, holding that lock on it (see _read_early).
    """
    def register(run):
        parser = _COMMANDS.add_parser(name or run.__name__, help=run.__doc__,
                                      description=run.__doc__)
        for names, settings in options:
            parser.add_argument(*names, **settings)
        parser.set_defaults(run=run, ledger_lock=ledger_lock)
        return run
    return register


# --- scenarios -----------------------------------------------------------------
# These commands import the scenarios (and the agents they drive) and the PKI
# baseline themselves, so the registry commands do not pay for loading them.


def _run_scenario(args, config_class, **fields) -> int:
    """Print the transcript; exit 2 unless it accepts. Unset flags keep class defaults."""
    from .scenarios import run_scenario

    if args.seed:
        fields["seed"] = _parse_hex(args.seed, "--seed")
    transcript = run_scenario(config_class(clock_start=args.clock_start, **fields)).transcript
    _print_json(transcript.to_json_dict())
    return 0 if transcript.final_verdict == "accept" else 2


@_command(_SEED, _CLOCK_START, _arg("--revoke-before-presentation", action="store_true"),
          _arg("--tamper-attribute"))
def healthcare(args) -> int:
    """Run the six-step patient/issuer-authority/provider flow."""
    from .scenarios import HealthcareConfig

    return _run_scenario(args, HealthcareConfig,
                         revoke_before_presentation=args.revoke_before_presentation,
                         tamper_attribute=args.tamper_attribute)


@_command(_SEED, _CLOCK_START, _arg("--reveal", help=_REVEAL_HELP))
def government(args) -> int:
    """Issue a nine-attribute national-ID credential, then disclose a subset."""
    from .scenarios import GovernmentConfig

    fields = {} if args.reveal is None else {"reveal": _parse_reveal(args.reveal)}
    return _run_scenario(args, GovernmentConfig, **fields)


@_command(_arg("--scenario", choices=["ca", "ledger"], required=True),
          _arg("--forgeries", type=int, required=True),
          _arg("--writers", type=int, default=3),
          _arg("--compromised", type=int, default=1),
          _SEED)
def compare(args) -> int:
    """Contrast CA-key compromise with ledger writer compromise."""
    from .pki import CompromiseConfig, run_compromise_experiment

    report = run_compromise_experiment(CompromiseConfig(
        scenario=args.scenario, forgeries=args.forgeries, writers=args.writers,
        compromised=args.compromised, seed=_parse_hex(args.seed or "33" * 32, "--seed"),
    ))
    _print_json(report.to_json_dict())
    return 0


# --- wallet and registry utilities ------------------------------------------------


@_command(_SEED, _WALLET, name="wallet-init")
def wallet_init(args) -> int:
    """Create a wallet file deterministically from a seed."""
    from .wallet import wallet_create, wallet_save

    seed = _parse_hex(_given(args.seed, "--seed"), "--seed")
    path = _given(args.wallet, "--wallet")
    wallet = wallet_create(seed)
    _create_bytes(path, wallet_save(wallet))
    _print_json({"did": wallet.did, "key_id": wallet.key_id, "wallet": path})
    return 0


@_command(_WRITER, _LEDGER,
          _arg("--mode", choices=_MODES, default=_MODES[0]),
          _CLOCK_START, name="ledger-init")
def ledger_init(args) -> int:
    """Start a chain whose genesis registers the writer wallet's DID."""
    from .identity import make_did_document
    from .ledger import Ledger, LedgerMode
    from .runtime import LogicalClock

    path = _given(args.ledger, "--ledger")
    writer = _load_wallet(args.writer_wallet)
    clock = LogicalClock(args.clock_start)
    doc = make_did_document(writer.keypair, created_at=clock.tick())
    ledger = Ledger.genesis([doc], mode=LedgerMode(args.mode), clock=clock)
    _create_bytes(path, ledger.to_bytes())
    _print_json({"ledger": path, "writer_did": doc.did, "blocks": len(ledger.blocks)})
    return 0


@_command(_WALLET, _LEDGER, _WRITER,
          _arg("--endpoint", action="append", default=[], type=_text,
               help="Service endpoint as name=uri; repeatable."),
          name="did-register", ledger_lock=fcntl.LOCK_EX)
def did_register(args) -> int:
    """Register the wallet's DID document on the ledger."""
    from .identity import make_did_document
    from .ledger import RegisterDid

    wallet = _load_wallet(_given(args.wallet, "--wallet"))
    path = _given(args.ledger, "--ledger")
    ledger, save = _load_for_append(path, args.early)
    writer = _load_wallet(args.writer_wallet)
    doc = make_did_document(
        wallet.keypair,
        tuple(_parse_pairs(args.endpoint, "--endpoint").items()),
        created_at=ledger.clock.tick(),
    )
    ledger.append_block([RegisterDid(doc)], writer.keypair)
    save()
    _print_json({"did": doc.did, "blocks": len(ledger.blocks)})
    return 0


@_command(_arg("--wallet", default=argparse.SUPPRESS, help="Issuer wallet."), _LEDGER, _WRITER,
          _arg("--name", required=True, type=_text),
          _arg("--version", type=int, default=1),
          _arg("--attr", action="append", required=True, type=_text),
          name="schema-define", ledger_lock=fcntl.LOCK_EX)
def schema_define(args) -> int:
    """Anchor a credential schema owned by the issuer wallet."""
    from .engine import define_schema

    issuer = _load_wallet(_given(args.wallet, "--wallet"))
    path = _given(args.ledger, "--ledger")
    ledger, save = _load_for_append(path, args.early)
    ledger.attach_writer(_load_wallet(args.writer_wallet).keypair)
    schema = define_schema(issuer.keypair, args.name, args.version,
                           _each_once(args.attr, "--attr"), ledger)
    save()
    _print_json(schema.to_json_dict())
    return 0


@_command(_arg("--wallet", default=argparse.SUPPRESS, help="Issuer wallet."), _LEDGER, _WRITER,
          _arg("--schema-id", required=True),
          _arg("--holder-did", required=True),
          _arg("--value", action="append", required=True, type=_text,
               help="Attribute as name=value; repeatable."),
          _arg("--out", required=True, help="Credential file (.vc.json)."),
          ledger_lock=fcntl.LOCK_EX)
def issue(args) -> int:
    """Issue a credential and anchor its commitment root."""
    from .engine import issue_credential
    from .identity import Did

    issuer = _load_wallet(_given(args.wallet, "--wallet"))
    path = _given(args.ledger, "--ledger")
    ledger, save = _load_for_append(path, args.early)
    ledger.attach_writer(_load_wallet(args.writer_wallet).keypair)
    schema = ledger.lookup_schema(_parse_hex(args.schema_id, "--schema-id"),
                                  reader_did=issuer.did)
    credential = issue_credential(
        issuer.keypair, Did.parse(args.holder_did), schema,
        _parse_pairs(args.value, "--value"), ledger,
    )
    # The credential file first: an anchor whose credential and salts were lost
    # could never be presented.
    _write_bytes(args.out, credential.to_bytes())
    save()
    _print_json({"credential_id": credential.credential_id.hex(), "credential": args.out})
    return 0


@_command(_arg("--wallet", default=argparse.SUPPRESS, help="Holder wallet."),
          _arg("--credential", required=True),
          _arg("--reveal", default="all", help=_REVEAL_HELP),
          _arg("--challenge", required=True, help="32-byte hex nonce."),
          _arg("--out", required=True, help="Presentation file (.vp.json)."))
def present(args) -> int:
    """Build a selective-disclosure presentation bound to a challenge."""
    from .credentials import Credential, create_presentation

    holder = _load_wallet(_given(args.wallet, "--wallet"))
    credential = Credential.from_bytes(_read_bytes(args.credential))
    names = _parse_reveal(args.reveal)
    if names is None:
        names = [n for n, _ in credential.attributes]
    presentation = create_presentation(
        credential, names, _parse_hex(args.challenge, "--challenge"), holder.keypair,
    )
    _write_bytes(args.out, presentation.to_bytes())
    _print_json({"presentation": args.out, "revealed": sorted(names)})
    return 0


@_command(_arg("--presentation", required=True), _arg("--challenge", required=True), _LEDGER,
          _arg("--wallet", default=argparse.SUPPRESS, help="Verifier wallet: read as its DID."),
          name="verify", ledger_lock=fcntl.LOCK_SH)
def verify_cmd(args) -> int:
    """Verify a presentation against the registry; exit 2 on Reject."""
    from .credentials import Presentation
    from .engine import verify_presentation

    _, ledger = _load_ledger(_given(args.ledger, "--ledger"), args.early)
    presentation = Presentation.from_bytes(_read_bytes(args.presentation))
    reader_did = _load_wallet(args.wallet).did if args.wallet else None
    report = verify_presentation(ledger, presentation,
                                 _parse_hex(args.challenge, "--challenge"),
                                 reader_did=reader_did)
    _print_json(report.to_json_dict())
    return 0 if report.accepted else 2


@_command(_arg("ledger_file", nargs="?"), name="ledger-validate", ledger_lock=fcntl.LOCK_SH)
def ledger_validate(args) -> int:
    """Validate a ledger file's chain; exit 2 and print FirstInvalid on failure."""
    from .errors import FirstInvalid

    path = _given(args.ledger_file or args.ledger, "ledger path")
    try:
        _, ledger = _load_ledger(path, args.early)
    except FirstInvalid as exc:
        _print_json({"result": "FirstInvalid", "index": exc.index, "cause": exc.cause})
        return 2
    _print_json({"result": "Ok", "blocks": len(ledger.blocks)})
    return 0


# --- entry points ------------------------------------------------------------------


def main(argv=None) -> int:
    """Run the CLI and map domain errors onto the documented exit codes.

    No helper process and no ledger file lock outlives it, whatever the command does.
    """
    early = None
    try:
        args = _PARSER.parse_args(argv)
        early = args.early = _read_early(args)
        return args.run(args)
    except SystemExit as exc:  # only --help exits, once it has printed the help
        return exc.code
    except Exception as exc:
        error, code = exc, _exit_code(exc)
        if code is None:
            raise
    finally:
        if early is not None:
            _, _, started, file = early
            if started is not None:
                started.close()  # already closed if it was joined
            file.close()  # and with it the lock
    _echo(f"error: {error}", sys.stderr)
    return code


def _exit_code(error: Exception) -> int | None:
    """The documented exit code of an error a command reports; None if it is a bug."""
    from .errors import ConfigError, ParseError, SsiSimError

    if isinstance(error, ConfigError):
        return 1
    if isinstance(error, (ParseError, OSError)):
        return 3
    if isinstance(error, SsiSimError):
        return 2
    return None


def entry() -> None:
    """The ssisim command: main() in a process that ends when it returns.

    The heap dies with the process, so the cyclic collector stays off and,
    once both streams are flushed, the process leaves through os._exit with
    no interpreter teardown: atexit handlers do not run. An exception that
    escapes main leaves the normal way, with its traceback.
    """
    gc.disable()
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
