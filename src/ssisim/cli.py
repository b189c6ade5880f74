"""Command-line entry point for scenarios and wallet/ledger utilities.

All outputs are UTF-8 JSON on stdout; diagnostics go to stderr.
Exit codes: 0 success or Accept, 1 usage or configuration error,
2 verification/validation failure, 3 I/O or parse failure.
"""

import sys
from pathlib import Path

import click

from .credentials import Credential, Presentation, create_presentation
from .engine import define_schema, issue_credential, verify_presentation
from .errors import (
    ConfigError,
    FirstInvalid,
    ParseError,
    SsiSimError,
)
from .identity import Did, make_did_document
from .ledger import Ledger, LedgerMode, RegisterDid
from .runtime import LogicalClock
from .serialization import canonical_json, load_json, parse_hex
from .wallet import wallet_create, wallet_load, wallet_save


def _print_json(obj) -> None:
    click.echo(canonical_json(obj))


def _read_bytes(path: str) -> bytes:
    return Path(path).read_bytes()


def _write_bytes(path: str, data: bytes) -> None:
    Path(path).write_bytes(data)


def _load_wallet(path: str):
    return wallet_load(_read_bytes(path))


def _load_ledger(path: str) -> Ledger:
    return Ledger.from_bytes(_read_bytes(path))


def _parse_seed(seed_hex: str) -> bytes:
    return parse_hex(seed_hex, 32, "--seed")


def _parse_reveal(reveal: str) -> tuple | None:
    """Comma-separated attribute names; 'all' is None, which reveals every attribute."""
    if reveal == "all":
        return None
    return tuple(name.strip() for name in reveal.split(",") if name.strip())


def _parse_pairs(pairs, what: str) -> dict:
    values = {}
    for pair in pairs:
        if "=" not in pair:
            raise click.UsageError(f"{what} must look like name=value, got {pair!r}")
        name, value = pair.split("=", 1)
        values[name] = value
    return values


@click.group()
@click.option("--ledger", "ledger_path", type=str, default=None, help="Ledger file path.")
@click.option("--wallet", "wallet_path", type=str, default=None, help="Wallet file path.")
@click.option("--seed", "seed_hex", type=str, default=None, help="32-byte hex seed.")
@click.option("--clock-start", type=int, default=0, help="Logical clock start value.")
@click.pass_context
def cli(ctx, ledger_path, wallet_path, seed_hex, clock_start):
    """Self-sovereign identity sandbox: scenarios, registry, wallets, PKI baseline."""
    ctx.obj = {
        "ledger": ledger_path,
        "wallet": wallet_path,
        "seed": seed_hex,
        "clock_start": clock_start,
    }


def _opt(ctx, local, key, flag):
    value = local if local is not None else ctx.obj.get(key)
    if value is None:
        raise click.UsageError(f"missing {flag}")
    return value


# --- scenarios -----------------------------------------------------------------
# These commands import the scenarios (and the agents they drive) and the PKI
# baseline themselves, so the registry commands do not pay for loading them.


def _run_scenario(ctx, config_class, seed_hex, clock_start, **fields) -> None:
    """Print the transcript and exit 2 unless it accepts; unset flags keep class defaults."""
    from .scenarios import run_scenario

    seed_hex = seed_hex or ctx.obj.get("seed")
    if seed_hex:
        fields["seed"] = _parse_seed(seed_hex)
    start = clock_start if clock_start is not None else ctx.obj["clock_start"]
    transcript = run_scenario(config_class(clock_start=start, **fields)).transcript
    _print_json(transcript.to_json_dict())
    if transcript.final_verdict != "accept":
        ctx.exit(2)


@cli.command()
@click.option("--seed", "seed_hex", type=str, default=None)
@click.option("--clock-start", type=int, default=None)
@click.option("--revoke-before-presentation", is_flag=True, default=False)
@click.option("--tamper-attribute", type=str, default=None)
@click.pass_context
def healthcare(ctx, seed_hex, clock_start, revoke_before_presentation, tamper_attribute):
    """Run the six-step patient/issuer-authority/provider flow."""
    from .scenarios import HealthcareConfig

    _run_scenario(ctx, HealthcareConfig, seed_hex, clock_start,
                  revoke_before_presentation=revoke_before_presentation,
                  tamper_attribute=tamper_attribute)


@cli.command()
@click.option("--seed", "seed_hex", type=str, default=None)
@click.option("--clock-start", type=int, default=None)
@click.option("--reveal", type=str, default=None,
              help="Comma-separated attribute names, or 'all'.")
@click.pass_context
def government(ctx, seed_hex, clock_start, reveal):
    """Issue a nine-attribute national-ID credential, then disclose a subset."""
    from .scenarios import GovernmentConfig

    fields = {} if reveal is None else {"reveal": _parse_reveal(reveal)}
    _run_scenario(ctx, GovernmentConfig, seed_hex, clock_start, **fields)


@cli.command()
@click.option("--scenario", type=click.Choice(["ca", "ledger"]), required=True)
@click.option("--forgeries", type=int, required=True)
@click.option("--writers", type=int, default=3)
@click.option("--compromised", type=int, default=1)
@click.option("--seed", "seed_hex", type=str, default=None)
@click.pass_context
def compare(ctx, scenario, forgeries, writers, compromised, seed_hex):
    """Contrast CA-key compromise with ledger writer compromise."""
    from .pki import CompromiseConfig, run_compromise_experiment

    seed = _parse_seed(seed_hex or ctx.obj.get("seed") or "33" * 32)
    report = run_compromise_experiment(CompromiseConfig(
        scenario=scenario, forgeries=forgeries, writers=writers,
        compromised=compromised, seed=seed,
    ))
    _print_json(report.to_json_dict())


# --- wallet and registry utilities ------------------------------------------------


@cli.command("wallet-init")
@click.option("--seed", "seed_hex", type=str, default=None)
@click.option("--wallet", "wallet_path", type=str, default=None)
@click.pass_context
def wallet_init(ctx, seed_hex, wallet_path):
    """Create a wallet file deterministically from a seed."""
    seed = _parse_seed(_opt(ctx, seed_hex, "seed", "--seed"))
    path = _opt(ctx, wallet_path, "wallet", "--wallet")
    wallet = wallet_create(seed)
    _write_bytes(path, wallet_save(wallet))
    _print_json({"did": str(wallet.did), "key_id": wallet.keypair.key_id, "wallet": path})


@cli.command("ledger-init")
@click.option("--writer-wallet", "writer_path", type=str, required=True)
@click.option("--ledger", "ledger_path", type=str, default=None)
@click.option("--mode", type=click.Choice([m.value for m in LedgerMode]),
              default=LedgerMode.PUBLIC_PERMISSIONED.value)
@click.option("--clock-start", type=int, default=None)
@click.pass_context
def ledger_init(ctx, writer_path, ledger_path, mode, clock_start):
    """Start a chain whose genesis registers the writer wallet's DID."""
    path = _opt(ctx, ledger_path, "ledger", "--ledger")
    start = clock_start if clock_start is not None else ctx.obj["clock_start"]
    writer = _load_wallet(writer_path)
    clock = LogicalClock(start)
    doc = make_did_document(writer.keypair, created_at=clock.tick())
    ledger = Ledger.genesis([doc], mode=LedgerMode(mode), clock=clock)
    _write_bytes(path, ledger.to_bytes())
    _print_json({"ledger": path, "writer_did": str(doc.did), "blocks": len(ledger.blocks)})


@cli.command("did-register")
@click.option("--wallet", "wallet_path", type=str, default=None)
@click.option("--ledger", "ledger_path", type=str, default=None)
@click.option("--writer-wallet", "writer_path", type=str, required=True)
@click.option("--endpoint", "endpoints", type=str, multiple=True,
              help="Service endpoint as name=uri; repeatable.")
@click.pass_context
def did_register(ctx, wallet_path, ledger_path, writer_path, endpoints):
    """Register the wallet's DID document on the ledger."""
    wallet = _load_wallet(_opt(ctx, wallet_path, "wallet", "--wallet"))
    path = _opt(ctx, ledger_path, "ledger", "--ledger")
    ledger = _load_ledger(path)
    writer = _load_wallet(writer_path)
    doc = make_did_document(
        wallet.keypair,
        tuple(_parse_pairs(endpoints, "--endpoint").items()),
        created_at=ledger.clock.tick(),
    )
    ledger.append_block([RegisterDid(doc)], writer.keypair)
    _write_bytes(path, ledger.to_bytes())
    _print_json({"did": str(doc.did), "blocks": len(ledger.blocks)})


@cli.command("schema-define")
@click.option("--wallet", "wallet_path", type=str, default=None, help="Issuer wallet.")
@click.option("--ledger", "ledger_path", type=str, default=None)
@click.option("--writer-wallet", "writer_path", type=str, required=True)
@click.option("--name", required=True)
@click.option("--version", type=int, default=1)
@click.option("--attr", "attrs", multiple=True, required=True)
@click.pass_context
def schema_define(ctx, wallet_path, ledger_path, writer_path, name, version, attrs):
    """Anchor a credential schema owned by the issuer wallet."""
    issuer = _load_wallet(_opt(ctx, wallet_path, "wallet", "--wallet"))
    path = _opt(ctx, ledger_path, "ledger", "--ledger")
    ledger = _load_ledger(path)
    ledger.attach_writer(_load_wallet(writer_path).keypair)
    schema = define_schema(issuer.keypair, name, version, list(attrs), ledger)
    _write_bytes(path, ledger.to_bytes())
    _print_json(schema.to_json_dict())


@cli.command("issue")
@click.option("--wallet", "wallet_path", type=str, default=None, help="Issuer wallet.")
@click.option("--ledger", "ledger_path", type=str, default=None)
@click.option("--writer-wallet", "writer_path", type=str, required=True)
@click.option("--schema-id", "schema_id_hex", required=True)
@click.option("--holder-did", "holder_did", required=True)
@click.option("--value", "values", multiple=True, required=True,
              help="Attribute as name=value; repeatable.")
@click.option("--out", "out_path", required=True, help="Credential file (.vc.json).")
@click.pass_context
def issue(ctx, wallet_path, ledger_path, writer_path, schema_id_hex, holder_did, values,
          out_path):
    """Issue a credential and anchor its commitment root."""
    issuer = _load_wallet(_opt(ctx, wallet_path, "wallet", "--wallet"))
    path = _opt(ctx, ledger_path, "ledger", "--ledger")
    ledger = _load_ledger(path)
    ledger.attach_writer(_load_wallet(writer_path).keypair)
    schema = ledger.lookup_schema(parse_hex(schema_id_hex, 32, "--schema-id"))
    credential = issue_credential(
        issuer.keypair, Did.parse(holder_did), schema,
        _parse_pairs(values, "--value"), ledger,
    )
    _write_bytes(path, ledger.to_bytes())
    _write_bytes(out_path, canonical_json(credential.to_json_dict()).encode("utf-8"))
    _print_json({"credential_id": credential.credential_id.hex(), "credential": out_path})


@cli.command("present")
@click.option("--wallet", "wallet_path", type=str, default=None, help="Holder wallet.")
@click.option("--credential", "credential_path", required=True)
@click.option("--reveal", default="all", help="Comma-separated attribute names, or 'all'.")
@click.option("--challenge", "challenge_hex", required=True, help="32-byte hex nonce.")
@click.option("--out", "out_path", required=True, help="Presentation file (.vp.json).")
@click.pass_context
def present(ctx, wallet_path, credential_path, reveal, challenge_hex, out_path):
    """Build a selective-disclosure presentation bound to a challenge."""
    holder = _load_wallet(_opt(ctx, wallet_path, "wallet", "--wallet"))
    credential = Credential.from_json_dict(load_json(_read_bytes(credential_path)))
    names = _parse_reveal(reveal)
    if names is None:
        names = [n for n, _ in credential.attributes]
    presentation = create_presentation(
        credential, names, parse_hex(challenge_hex, 32, "--challenge"), holder.keypair,
    )
    _write_bytes(out_path, canonical_json(presentation.to_json_dict()).encode("utf-8"))
    _print_json({"presentation": out_path, "revealed": sorted(names)})


@cli.command("verify")
@click.option("--presentation", "presentation_path", required=True)
@click.option("--challenge", "challenge_hex", required=True)
@click.option("--ledger", "ledger_path", type=str, default=None)
@click.pass_context
def verify_cmd(ctx, presentation_path, challenge_hex, ledger_path):
    """Verify a presentation against the registry; exit 2 on Reject."""
    ledger = _load_ledger(_opt(ctx, ledger_path, "ledger", "--ledger"))
    presentation = Presentation.from_json_dict(load_json(_read_bytes(presentation_path)))
    report = verify_presentation(ledger, presentation,
                                 parse_hex(challenge_hex, 32, "--challenge"))
    _print_json(report.to_json_dict())
    if not report.accepted:
        ctx.exit(2)


@cli.command("ledger-validate")
@click.argument("ledger_file", required=False)
@click.pass_context
def ledger_validate(ctx, ledger_file):
    """Validate a ledger file's chain; exit 2 and print FirstInvalid on failure."""
    path = ledger_file or ctx.obj.get("ledger")
    if path is None:
        raise click.UsageError("missing ledger path")
    try:
        ledger = Ledger.from_bytes(_read_bytes(path))
    except FirstInvalid as exc:
        _print_json({"result": "FirstInvalid", "index": exc.index, "cause": exc.cause})
        ctx.exit(2)
    _print_json({"result": "Ok", "blocks": len(ledger.blocks)})


# --- entry points ------------------------------------------------------------------


def main(argv=None) -> int:
    """Run the CLI and map domain errors onto the documented exit codes."""
    try:
        # With standalone_mode off, click returns ctx.exit codes instead of
        # calling sys.exit, so thread them through.
        rv = cli.main(args=argv, standalone_mode=False)
        return rv if isinstance(rv, int) else 0
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.UsageError as exc:
        exc.show(file=sys.stderr)
        return 1
    except click.Abort:
        click.echo("aborted", err=True)
        return 1
    except ConfigError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except FirstInvalid as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except ParseError as exc:
        click.echo(f"error: {exc}", err=True)
        return 3
    except SsiSimError as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except OSError as exc:
        click.echo(f"error: {exc}", err=True)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
