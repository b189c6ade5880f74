import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ssisim
from ssisim.cli import main

from conftest import CHAIN_FAULTS, LONG_CHAIN_BLOCKS, hijacked_genesis_file, tampered


@pytest.fixture
def run(capsys):
    def invoke(*args):
        code = main(list(args))
        captured = capsys.readouterr()
        return code, captured.out.strip(), captured.err.strip()

    return invoke


FILE_NAMES = {
    "op": "op.json",
    "issuer": "issuer.json",
    "alice": "alice.json",
    "ledger": "ledger.json",
    "vc": "cred.vc.json",
    "vp": "pres.vp.json",
}


@pytest.fixture
def paths(tmp_path):
    return {key: str(tmp_path / name) for key, name in FILE_NAMES.items()}


def quiet(*args):
    """Run main in process with both streams redirected to text-only buffers, as the bench does."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue().strip(), err.getvalue().strip()


def run_python(*args, **env):
    """Run python in a child process that imports the same ssisim sources as this test run."""
    src = str(Path(ssisim.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, encoding="utf-8",
        env={**os.environ, "PYTHONPATH": pythonpath, **env},
    )


def run_script(*args, **env):
    """Run the CLI in a child process, so an uncaught exception shows as a traceback."""
    return run_python("-m", "ssisim.cli", *args, **env)


def bootstrap(run, paths, clock_start=0):
    """Operator + issuer + holder wallets, initialized ledger, registered DIDs."""
    run("wallet-init", "--seed", "aa" * 32, "--wallet", paths["op"])
    run("wallet-init", "--seed", "bb" * 32, "--wallet", paths["issuer"])
    code, out, _ = run("wallet-init", "--seed", "cc" * 32, "--wallet", paths["alice"])
    alice_did = json.loads(out)["did"]
    run("ledger-init", "--writer-wallet", paths["op"], "--ledger", paths["ledger"],
        f"--clock-start={clock_start}")
    run("did-register", "--wallet", paths["issuer"], "--ledger", paths["ledger"],
        "--writer-wallet", paths["op"])
    run("did-register", "--wallet", paths["alice"], "--ledger", paths["ledger"],
        "--writer-wallet", paths["op"],
        "--endpoint", "agent=https://alice.example/agent")
    return alice_did


class TestWalletInit:
    def test_is_deterministic(self, run, tmp_path):
        w1, w2 = str(tmp_path / "w1.json"), str(tmp_path / "w2.json")
        code1, out1, _ = run("wallet-init", "--seed", "ab" * 32, "--wallet", w1)
        code2, out2, _ = run("wallet-init", "--seed", "ab" * 32, "--wallet", w2)
        assert code1 == code2 == 0
        assert Path(w1).read_bytes() == Path(w2).read_bytes()
        assert json.loads(out1)["did"] == json.loads(out2)["did"]

    def test_missing_seed_is_a_usage_error(self, run, tmp_path):
        code, _, err = run("wallet-init", "--wallet", str(tmp_path / "w.json"))
        assert code == 1
        assert "seed" in err

    def test_bad_seed_is_a_parse_error(self, run, tmp_path):
        code, _, _ = run("wallet-init", "--seed", "xyz", "--wallet", str(tmp_path / "w.json"))
        assert code == 3


class TestEndToEndFlow:
    def test_issue_present_verify(self, run, paths):
        alice_did = bootstrap(run, paths)
        code, out, _ = run(
            "schema-define", "--wallet", paths["issuer"], "--ledger", paths["ledger"],
            "--writer-wallet", paths["op"], "--name", "PatientID",
            "--attr", "name", "--attr", "dob", "--attr", "patient_number")
        assert code == 0
        schema_id = json.loads(out)["schema_id"]

        code, out, _ = run(
            "issue", "--wallet", paths["issuer"], "--ledger", paths["ledger"],
            "--writer-wallet", paths["op"], "--schema-id", schema_id,
            "--holder-did", alice_did,
            "--value", "name=Alice Example", "--value", "dob=1990-04-12",
            "--value", "patient_number=PN-1", "--out", paths["vc"])
        assert code == 0

        code, out, _ = run(
            "present", "--wallet", paths["alice"], "--credential", paths["vc"],
            "--reveal", "dob,name", "--challenge", "99" * 32, "--out", paths["vp"])
        assert code == 0
        assert sorted(json.loads(out)["revealed"]) == ["dob", "name"]

        code, out, _ = run("verify", "--presentation", paths["vp"],
                           "--challenge", "99" * 32, "--ledger", paths["ledger"])
        assert code == 0
        assert json.loads(out)["verdict"] == "accept"

        code, out, _ = run("verify", "--presentation", paths["vp"],
                           "--challenge", "88" * 32, "--ledger", paths["ledger"])
        assert code == 2
        assert json.loads(out)["verdict"].startswith("reject")

    def test_presentation_file_hides_unrevealed_values(self, run, paths):
        alice_did = bootstrap(run, paths)
        _, out, _ = run(
            "schema-define", "--wallet", paths["issuer"], "--ledger", paths["ledger"],
            "--writer-wallet", paths["op"], "--name", "T",
            "--attr", "a", "--attr", "b")
        schema_id = json.loads(out)["schema_id"]
        run("issue", "--wallet", paths["issuer"], "--ledger", paths["ledger"],
            "--writer-wallet", paths["op"], "--schema-id", schema_id,
            "--holder-did", alice_did, "--value", "a=visible-value",
            "--value", "b=hidden-value", "--out", paths["vc"])
        run("present", "--wallet", paths["alice"], "--credential", paths["vc"],
            "--reveal", "a", "--challenge", "99" * 32, "--out", paths["vp"])
        data = Path(paths["vp"]).read_bytes()
        assert b"visible-value" in data
        assert b"hidden-value" not in data


class TestLedgerValidate:
    def test_fresh_ledger_is_ok(self, run, paths):
        bootstrap(run, paths)
        code, out, _ = run("ledger-validate", paths["ledger"])
        assert code == 0
        assert json.loads(out)["result"] == "Ok"

    def test_tampered_ledger_exits_2_with_first_invalid(self, run, paths):
        bootstrap(run, paths)
        raw = Path(paths["ledger"]).read_bytes()
        match = re.search(rb'"tx_root":"([0-9a-f]{64})"', raw)
        pos = match.start(1)
        mutated = bytearray(raw)
        mutated[pos] = ord("0") if mutated[pos] != ord("0") else ord("1")
        Path(paths["ledger"]).write_bytes(bytes(mutated))
        code, out, _ = run("ledger-validate", paths["ledger"])
        assert code == 2
        report = json.loads(out)
        assert report["result"] == "FirstInvalid"
        assert report["cause"] == "HashMismatch"

    def test_genesis_writer_under_a_foreign_key_exits_2(self, run, paths):
        Path(paths["ledger"]).write_bytes(hijacked_genesis_file())
        code, out, _ = run("ledger-validate", paths["ledger"])
        assert code == 2
        assert json.loads(out) == {"result": "FirstInvalid", "index": 0, "cause": "BadWriter"}

    def test_long_ledger_checked_with_a_helper_is_ok(self, run, tmp_path, long_chain, two_cpus):
        path = tmp_path / "ledger.json"
        path.write_bytes(long_chain.to_bytes())
        assert run("ledger-validate", str(path)) == \
            (0, f'{{"result":"Ok","blocks":{LONG_CHAIN_BLOCKS}}}', "")
        assert len(two_cpus) == 1

    @pytest.mark.parametrize("signatures, roots, expected", CHAIN_FAULTS)
    def test_long_ledger_prints_the_first_fault_in_chain_order(self, run, tmp_path, long_chain,
                                                               two_cpus, signatures, roots,
                                                               expected):
        path = tmp_path / "ledger.json"
        path.write_bytes(tampered(long_chain, signatures, roots).to_bytes())
        index, cause = expected
        assert run("ledger-validate", str(path)) == \
            (2, f'{{"result":"FirstInvalid","index":{index},"cause":"{cause}"}}', "")
        assert len(two_cpus) == 1

    def test_missing_file_exits_3(self, run, tmp_path):
        code, _, err = run("ledger-validate", str(tmp_path / "absent.json"))
        assert code == 3

    def test_unparseable_file_exits_3(self, run, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"{]")
        code, _, _ = run("ledger-validate", str(bad))
        assert code == 3

    def test_timestamp_beyond_64_bits_exits_3(self, run, paths):
        run("wallet-init", "--seed", "aa" * 32, "--wallet", paths["op"])
        run("ledger-init", "--writer-wallet", paths["op"], "--ledger", paths["ledger"])
        ledger = Path(paths["ledger"])
        raw = ledger.read_bytes()
        ledger.write_bytes(re.sub(rb'"timestamp":\d+', b'"timestamp":%d' % 2**64, raw))
        proc = run_script("ledger-validate", paths["ledger"])
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr

    def test_deeply_nested_file_exits_3(self, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_bytes(b"[" * 100_000)
        proc = run_script("ledger-validate", str(deep))
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("edit, cause", [
        (lambda obj: {**obj, "blocks": []}, "ledger has no blocks"),
        (lambda obj: [], "ledger: expected object"),
        (lambda obj: {**obj, "mode": 1}, "mode: expected string"),
        (lambda obj: {**obj, "blocks": {}}, "blocks: expected array"),
        (lambda obj: {**obj, "blocks": [{**obj["blocks"][0], "transactions": []}]},
         "genesis block registers no writers"),
    ], ids=["no blocks", "top-level list", "numeric mode", "blocks object",
            "genesis without writers"])
    def test_malformed_ledger_file_exits_3(self, run, paths, edit, cause):
        run("wallet-init", "--seed", "aa" * 32, "--wallet", paths["op"])
        run("ledger-init", "--writer-wallet", paths["op"], "--ledger", paths["ledger"])
        ledger = Path(paths["ledger"])
        ledger.write_bytes(json.dumps(edit(json.loads(ledger.read_bytes()))).encode())
        proc = run_script("ledger-validate", paths["ledger"])
        assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", f"error: {cause}\n")
        assert "Traceback" not in proc.stderr

    def test_wallet_with_a_blob_that_is_not_base64_exits_3(self, run, paths):
        bootstrap(run, paths)
        wallet = Path(paths["alice"])
        obj = json.loads(wallet.read_bytes())
        obj["other_data"] = [{"label": "note", "blob": "not base64!"}]
        wallet.write_bytes(json.dumps(obj).encode())
        before = Path(paths["ledger"]).read_bytes()
        proc = run_script("did-register", "--wallet", paths["alice"], "--ledger",
                          paths["ledger"], "--writer-wallet", paths["op"])
        assert (proc.returncode, proc.stdout) == (3, "")
        assert "other_data[0].blob: invalid base64" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert Path(paths["ledger"]).read_bytes() == before


class TestExhaustedLedgerClock:
    def test_writes_to_a_ledger_at_the_last_timestamp_exit_2(self, run, paths):
        # ledger-init ticks twice, each did-register twice and schema-define once,
        # so the schema's block carries the timestamp 2^64-1
        alice_did = bootstrap(run, paths, clock_start=2**64 - 8)
        code, out, _ = run(
            "schema-define", "--wallet", paths["issuer"], "--ledger", paths["ledger"],
            "--writer-wallet", paths["op"], "--name", "T", "--attr", "a")
        assert code == 0
        schema_id = json.loads(out)["schema_id"]
        ledger = json.loads(Path(paths["ledger"]).read_bytes())
        assert ledger["blocks"][-1]["timestamp"] == 2**64 - 1
        before = Path(paths["ledger"]).read_bytes()

        proc = run_script("did-register", "--wallet", paths["alice"],
                          "--ledger", paths["ledger"], "--writer-wallet", paths["op"])
        assert proc.returncode == 2
        assert "cannot take another block" in proc.stderr
        assert "Traceback" not in proc.stderr
        code, _, err = run(
            "schema-define", "--wallet", paths["issuer"], "--ledger", paths["ledger"],
            "--writer-wallet", paths["op"], "--name", "U", "--attr", "a")
        assert (code, "cannot take another block" in err) == (2, True)
        code, _, err = run(
            "issue", "--wallet", paths["issuer"], "--ledger", paths["ledger"],
            "--writer-wallet", paths["op"], "--schema-id", schema_id,
            "--holder-did", alice_did, "--value", "a=1", "--out", paths["vc"])
        assert (code, "cannot take another block" in err) == (2, True)
        assert Path(paths["ledger"]).read_bytes() == before


class TestScenarioCommands:
    def test_healthcare_accepts_and_prints_six_steps(self, run):
        code, out, _ = run("healthcare", "--seed", "11" * 32)
        assert code == 0
        transcript = json.loads(out)
        assert len(transcript["steps"]) == 6
        assert transcript["final_verdict"] == "accept"

    def test_healthcare_revoked_exits_2(self, run):
        code, out, _ = run("healthcare", "--revoke-before-presentation")
        assert code == 2
        assert json.loads(out)["final_verdict"] == "reject:status_active"

    def test_healthcare_tamper_exits_2(self, run):
        code, out, _ = run("healthcare", "--tamper-attribute", "dob")
        assert code == 2
        assert json.loads(out)["final_verdict"] == "reject:merkle_proofs"

    def test_government_default_reveal(self, run):
        code, out, _ = run("government")
        assert code == 0
        assert json.loads(out)["final_verdict"] == "accept"

    def test_government_reveal_all(self, run):
        code, out, _ = run("government", "--reveal", "all")
        assert code == 0

    def test_government_unknown_reveal_exits_2(self, run):
        code, _, err = run("government", "--reveal", "blood_type")
        assert code == 2
        assert "blood_type" in err

    def test_compare_ca(self, run):
        code, out, _ = run("compare", "--scenario", "ca", "--forgeries", "20")
        assert code == 0
        report = json.loads(out)
        assert report["forged_accepted"] == 20

    def test_compare_ledger(self, run):
        code, out, _ = run("compare", "--scenario", "ledger", "--writers", "3",
                           "--compromised", "1", "--forgeries", "20")
        assert code == 0
        report = json.loads(out)
        assert report["forged_accepted"] == 0

    def test_compare_ledger_without_writers_exits_1(self):
        proc = run_script("compare", "--scenario", "ledger", "--writers", "0",
                          "--forgeries", "5")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert "at least one writer" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_compare_ledger_with_no_compromised_writer_rejects_every_forgery(self):
        proc = run_script("compare", "--scenario", "ledger", "--compromised", "0",
                          "--forgeries", "5")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout) == {
            "scenario": "ledger-writer-compromise", "forged_accepted": 0,
            "forged_rejected": 5, "total_forgeries": 5, "writers": 3, "compromised": 0}

    def test_compare_zero_forgeries(self, run):
        code, out, _ = run("compare", "--scenario", "ca", "--forgeries", "0")
        assert code == 0
        report = json.loads(out)
        assert (report["forged_accepted"], report["forged_rejected"],
                report["total_forgeries"]) == (0, 0, 0)

    def test_clock_outside_64_bits_exits_1(self, run, paths):
        proc = run_script("healthcare", "--clock-start=-5")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        # a scenario's clock is configuration, also when only its ticks pass 2^64-1
        for start in (2**64 - 1, 2**64):
            code, _, err = run("healthcare", f"--clock-start={start}")
            assert (code, "2^64-1" in err) == (1, True)
        # the start fits, but the genesis block's tick passes 2^64-1
        run("wallet-init", "--seed", "aa" * 32, "--wallet", paths["op"])
        proc = run_script("ledger-init", "--writer-wallet", paths["op"],
                          "--ledger", paths["ledger"], f"--clock-start={2**64 - 2}")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr

    @settings(max_examples=60, deadline=None)
    @given(command=st.sampled_from(["healthcare", "government"]),
           clock_start=st.integers(-2**70, 2**70), seed=st.text(), text=st.text())
    @example(command="healthcare", clock_start=-5, seed="", text="dob")
    @example(command="government", clock_start=2**64 - 3, seed="", text="all")
    def test_any_scenario_flags_map_to_an_exit_code(self, command, clock_start, seed, text):
        # --flag=value keeps a value that starts with a dash a value
        flag = "--tamper-attribute" if command == "healthcare" else "--reveal"
        code = main([command, f"--clock-start={clock_start}", f"--seed={seed}",
                     f"{flag}={text}"])
        assert code in {0, 1, 2, 3}

    def test_bad_flags_exit_1(self, run):
        assert run("compare", "--scenario", "dns", "--forgeries", "1")[0] == 1
        assert run("no-such-command")[0] == 1
        assert run("compare")[0] == 1


class TestInstalledScript:
    def test_console_entry_point_runs(self):
        proc = run_script("compare", "--scenario", "ca", "--forgeries", "2")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["forged_accepted"] == 2


class TestUsage:
    """The command line's contract on malformed and edge-case input."""

    @pytest.mark.parametrize("argv", [
        [],
        ["no-such-command"],
        ["compare"],                                            # a required option is missing
        ["compare", "--scenario", "dns", "--forgeries", "1"],   # not a choice
        ["compare", "--scenario", "ca", "--forgeries", "x"],    # not an integer
        ["compare", "--scen", "ca", "--forgeries", "1"],        # an abbreviation
        ["ledger-validate", "a", "b"],                          # an extra positional
        ["ledger-validate"],                                    # no path and no --ledger
        ["-h"],
        ["--clock-start", "x", "healthcare"],
        ["--ledger", "ledger.json"],                            # no command
        ["healthcare", "--ledger", "ledger.json"],              # not a healthcare flag
        ["healthcare", "--revoke-before-presentation=x"],
        ["healthcare", "government"],
    ])
    def test_usage_errors_exit_1_with_nothing_on_stdout(self, run, argv):
        code, out, err = run(*argv)
        assert (code, out) == (1, "")
        assert err

    @pytest.mark.parametrize("argv, shows", [
        (["--help"], "ledger-validate"),
        (["verify", "--help"], "--presentation"),
    ])
    def test_help_goes_to_stdout_and_exits_0(self, run, argv, shows):
        code, out, err = run(*argv)
        assert (code, err) == (0, "")
        assert shows in out

    @pytest.mark.parametrize("argv, cause", [
        (["healthcare", "--clock-start=-5"], "logical clock start -5 "),
        (["--clock-start=-5", "healthcare"], "logical clock start -5 "),
        (["healthcare", "--clock-start", "-5"], "logical clock start -5 "),
        (["healthcare", "--tamper-attribute=-x"], "unknown attribute '-x'"),
    ])
    def test_a_value_that_starts_with_a_dash_stays_a_value(self, run, argv, cause):
        code, out, err = run(*argv)
        assert (code, out) == (1, "")
        assert cause in err

    def test_a_value_without_an_equals_sign_is_a_usage_error(self, run, paths):
        alice_did = bootstrap(run, paths)
        _, out, _ = run("schema-define", "--wallet", paths["issuer"], "--ledger", paths["ledger"],
                        "--writer-wallet", paths["op"], "--name", "T", "--attr", "a")
        before = Path(paths["ledger"]).read_bytes()
        code, out, err = run(
            "issue", "--wallet", paths["issuer"], "--ledger", paths["ledger"],
            "--writer-wallet", paths["op"], "--schema-id", json.loads(out)["schema_id"],
            "--holder-did", alice_did, "--value", "a", "--out", paths["vc"])
        assert (code, out) == (1, "")
        assert "name=value" in err
        assert Path(paths["ledger"]).read_bytes() == before

    @pytest.mark.parametrize("argv, wins", [
        (["ledger-init", "--ledger", "{local}"], "local"),
        (["--ledger", "{global}", "ledger-init"], "global"),
        (["--ledger", "{global}", "ledger-init", "--ledger", "{local}"], "local"),
    ])
    def test_a_local_flag_overrides_the_global_one(self, run, tmp_path, argv, wins):
        op = str(tmp_path / "op.json")
        run("wallet-init", "--seed", "aa" * 32, "--wallet", op)
        files = {name: str(tmp_path / f"{name}.json") for name in ("global", "local")}
        code, out, _ = run(*[arg.format(**files) for arg in argv], "--writer-wallet", op)
        assert code == 0
        assert json.loads(out)["ledger"] == files[wins]
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(["op.json",
                                                                           f"{wins}.json"])

    def test_ledger_validate_takes_the_global_ledger_unless_given_a_path(self, run, paths):
        bootstrap(run, paths)
        assert run("--ledger", paths["ledger"], "ledger-validate")[0] == 0
        assert run("--ledger", paths["vc"], "ledger-validate", paths["ledger"])[0] == 0
        assert run("--ledger", paths["ledger"], "ledger-validate", paths["vc"])[0] == 3


class TestNonUtf8Argv:
    """Argv bytes that are not UTF-8 reach a text flag as a lone surrogate; that is a usage error."""

    BAD = "\udcff"  # how Python decodes the argv byte 0xff

    @pytest.mark.parametrize("flag, argv", [
        ("--name", ["schema-define", "--wallet", "{issuer}", "--name", "{bad}", "--attr", "a"]),
        ("--attr", ["schema-define", "--wallet", "{issuer}", "--name", "U", "--attr", "{bad}"]),
        ("--endpoint", ["did-register", "--wallet", "{alice}", "--endpoint", "{bad}=https://a"]),
        ("--endpoint", ["did-register", "--wallet", "{alice}", "--endpoint", "agent=x{bad}"]),
        ("--value", ["issue", "--wallet", "{issuer}", "--value", "a={bad}"]),
        ("--value", ["issue", "--wallet", "{issuer}", "--value", "{bad}=1"]),
    ])
    def test_a_text_flag_that_is_not_utf8_exits_1(self, run, paths, flag, argv):
        alice_did = bootstrap(run, paths)
        _, out, _ = run("schema-define", "--wallet", paths["issuer"], "--ledger", paths["ledger"],
                        "--writer-wallet", paths["op"], "--name", "T", "--attr", "a")
        if argv[0] == "issue":
            argv = argv + ["--schema-id", json.loads(out)["schema_id"],
                           "--holder-did", alice_did, "--out", paths["vc"]]
        before = Path(paths["ledger"]).read_bytes()
        code, out, err = run(*[arg.format(bad=self.BAD, **paths) for arg in argv],
                             "--ledger", paths["ledger"], "--writer-wallet", paths["op"])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: argument {flag}: not valid UTF-8: ")
        assert len(err.splitlines()) == 1
        assert Path(paths["ledger"]).read_bytes() == before
        assert not Path(paths["vc"]).exists()

    def test_the_raw_byte_from_a_shell_exits_1_without_a_traceback(self, run, paths):
        bootstrap(run, paths)
        proc = run_python("-m", "ssisim.cli", "schema-define", "--wallet", paths["issuer"],
                          "--ledger", paths["ledger"], "--writer-wallet", paths["op"],
                          "--name", b"\xff", "--attr", "a")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("error: argument --name: not valid UTF-8: ")
        assert "Traceback" not in proc.stderr


class TestStreams:
    """Output is UTF-8 whatever the locale, and a text-only stream gets it as text."""

    ASCII = {"PYTHONIOENCODING": "ascii", "LC_ALL": "C"}

    def test_stdout_is_utf8_under_an_ascii_locale(self, run, paths, tmp_path):
        bootstrap(run, paths)
        results = []
        for i, env in enumerate([{}, self.ASCII]):
            ledger = shutil.copy(paths["ledger"], tmp_path / f"copy{i}.json")
            proc = run_script("schema-define", "--wallet", paths["issuer"],
                              "--ledger", str(ledger), "--writer-wallet", paths["op"],
                              "--name", "B✓", "--attr", "a", **env)
            results.append((proc.returncode, proc.stdout, proc.stderr))
        assert results[0] == results[1]
        code, out, err = results[0]
        assert (code, err) == (0, "")
        assert '"name":"B✓"' in out

    def test_stderr_is_utf8_under_an_ascii_locale(self):
        proc = run_script("government", "--reveal", "blüt", **self.ASCII)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "blüt" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_text_only_streams_get_the_output(self, tmp_path):
        wallet = str(tmp_path / "w.json")
        code, out, err = quiet("wallet-init", "--seed", "ab" * 32, "--wallet", wallet)
        assert (code, err) == (0, "")
        assert json.loads(out)["wallet"] == wallet
        code, out, err = quiet("ledger-validate", str(tmp_path / "absent.json"))
        assert (code, out) == (3, "")
        assert err.startswith("error: ")


class TestImports:
    def test_the_cli_loads_no_click_and_no_scenario_code(self):
        proc = run_python("-c", "import sys, ssisim.cli; print(sorted(set(sys.modules) & "
                                "{'click', 'ssisim.pki', 'ssisim.scenarios', 'ssisim.agents'}))")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


# The structural argv fuzz draws from these. Relative paths name the files of the
# directory it runs in, which holds the files that FILE_NAMES names and nothing else.
COMMANDS = ["healthcare", "government", "compare", "wallet-init", "ledger-init", "did-register",
            "schema-define", "issue", "present", "verify", "ledger-validate"]
GLOBAL_FLAGS = ["--ledger", "--wallet", "--seed", "--clock-start"]
VALUE_FLAGS = GLOBAL_FLAGS + [
    "--tamper-attribute", "--reveal", "--scenario", "--writer-wallet", "--mode", "--endpoint",
    "--name", "--version", "--attr", "--schema-id", "--holder-did", "--value", "--out",
    "--credential", "--challenge", "--presentation"]
COUNT_FLAGS = ["--forgeries", "--writers", "--compromised"]  # kept small, so runs stay short
TEXT_FLAGS = ["--name", "--attr", "--endpoint", "--value", "--reveal", "--tamper-attribute",
              "--holder-did"]
TEXT_VALUES = ["a", "a=1", "\udcff", "a=\udcff", "\udcff=a"]  # 0xff in argv decodes to \udcff
VALUES = ["", "-5", str(2**64), "ab" * 32, "not hex", "ca", "ledger", ".", "absent.json",
          *FILE_NAMES.values()]
COUNTS = ["0", "1", "3", "-5", "", "x"]


def flag(names, values):
    """A flag with a value, as `--flag value` or `--flag=value`."""
    return st.tuples(st.sampled_from(names), st.sampled_from(values), st.booleans()).map(
        lambda t: [f"{t[0]}={t[1]}"] if t[2] else [t[0], t[1]])


ARGV = st.tuples(
    st.lists(flag(GLOBAL_FLAGS, VALUES), max_size=3),
    st.sampled_from([*COMMANDS, "bogus"]).map(lambda command: [command]),
    st.lists(st.one_of(flag(VALUE_FLAGS, VALUES), flag(COUNT_FLAGS, COUNTS),
                       flag(TEXT_FLAGS, TEXT_VALUES),
                       st.just(["--revoke-before-presentation"]),
                       st.just(["--help"]),
                       st.sampled_from(VALUES).map(lambda stray: [stray])),
             max_size=8),
).map(lambda parts: [token for group in (*parts[0], parts[1], *parts[2]) for token in group])


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    """A directory with wallets, a bootstrapped ledger, a credential and a presentation."""
    root = tmp_path_factory.mktemp("argv")
    paths = {key: str(root / name) for key, name in FILE_NAMES.items()}
    alice_did = bootstrap(quiet, paths)
    _, out, _ = quiet("schema-define", "--wallet", paths["issuer"], "--ledger", paths["ledger"],
                      "--writer-wallet", paths["op"], "--name", "T", "--attr", "a")
    quiet("issue", "--wallet", paths["issuer"], "--ledger", paths["ledger"],
          "--writer-wallet", paths["op"], "--schema-id", json.loads(out)["schema_id"],
          "--holder-did", alice_did, "--value", "a=1", "--out", paths["vc"])
    quiet("present", "--wallet", paths["alice"], "--credential", paths["vc"],
          "--challenge", "ab" * 32, "--out", paths["vp"])
    assert all(Path(path).exists() for path in paths.values())
    return root


class TestArgvFuzz:
    @settings(max_examples=150, deadline=None)
    @given(argv=ARGV)
    @example(argv=["schema-define", "--wallet", "issuer.json", "--ledger", "ledger.json",
                   "--writer-wallet", "op.json", "--name", "\udcff", "--attr", "a"])
    @example(argv=["schema-define", "--wallet", "issuer.json", "--ledger", "ledger.json",
                   "--writer-wallet", "op.json", "--name", "U", "--attr", "\udcff"])
    @example(argv=["did-register", "--wallet", "alice.json", "--ledger", "ledger.json",
                   "--writer-wallet", "op.json", "--endpoint", "a=\udcff"])
    def test_any_argv_maps_to_an_exit_code(self, argv_dir, argv):
        cwd = os.getcwd()
        os.chdir(argv_dir)
        try:
            code = quiet(*argv)[0]
        except (Exception, SystemExit) as exc:
            pytest.fail(f"main({argv!r}) raised {exc!r}")
        finally:
            os.chdir(cwd)
        assert type(code) is int and code in {0, 1, 2, 3}
