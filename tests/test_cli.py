import json
import os
import re
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


@pytest.fixture
def paths(tmp_path):
    return {
        "op": str(tmp_path / "op.json"),
        "issuer": str(tmp_path / "issuer.json"),
        "alice": str(tmp_path / "alice.json"),
        "ledger": str(tmp_path / "ledger.json"),
        "vc": str(tmp_path / "cred.vc.json"),
        "vp": str(tmp_path / "pres.vp.json"),
    }


def run_script(*args):
    """Run the CLI in a child process, so an uncaught exception shows as a traceback."""
    # The child process imports the same ssisim sources as this test run.
    src = str(Path(ssisim.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "ssisim.cli", *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": pythonpath},
    )


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
