import json
import subprocess
import sys

import pytest

from saslab import harness
from saslab.cli import main
from saslab.harness import ExperimentConfig, run_experiment
from saslab.harness import EXCLUDED_REPORT_FIELDS


def run_cli(*argv):
    return main(list(argv))


def test_run_honest_kex3(capsys):
    code = run_cli("run", "--protocol", "kex3", "--ne", "16", "--trials", "100", "--seed", "7")
    out = capsys.readouterr().out
    assert code == 0
    assert "100/100" in out and "within-bound" in out


def test_attack_collision_demo(capsys):
    code = run_cli(
        "attack", "--strategy", "kex2-collision", "--ne", "8",
        "--budget", "100000", "--trials", "50", "--seed", "7",
    )
    out = capsys.readouterr().out
    assert code == 0  # demonstrations do not gate
    assert "rate 1.0000" in out
    assert "expected demonstration" in out


def test_attack_infers_target_protocol(capsys):
    code = run_cli(
        "attack", "--strategy", "kem-same-key", "--kem2-entropy", "key-only",
        "--trials", "10", "--seed", "7",
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("kem2 kem-same-key")


def test_unknown_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--protocol", "kex3", "--bogus-flag", "1")
    assert exc.value.code == 1
    assert "error" in capsys.readouterr().err


def test_invalid_combination_exits_one(capsys):
    code = run_cli("attack", "--strategy", "kex2-collision", "--protocol", "kex3")
    assert code == 1
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "--protocol", "kex3", "--seed", "-1"),
        ("run", "--protocol", "kex3", "--seed", str(1 << 64)),
        ("selftest", "--only", "11"),
        ("selftest", "--only", "10", "--seed", "-1"),
        ("attack", "--strategy", "kex2-collision", "--ne", "8", "--budget", "-4",
         "--trials", "2"),
        ("sweep", "--protocol", "kex3", "--ne", "4", "--trials", ""),
        ("run", "--protocol", "kex3", "--ne", "4,8"),
        ("attack", "--strategy", "random-forge", "--protocol", "kex3", "--ne", "8,9"),
        ("sweep", "--protocol", "kex3", "--ne", "4,100"),
    ],
    ids=["negative-seed", "seed-2^64", "criterion-11", "selftest-negative-seed",
         "negative-budget", "sweep-no-trials", "run-ne-list", "attack-ne-list",
         "sweep-later-width-100"],
)
def test_out_of_range_input_exits_one_with_one_line(argv, capsys):
    code = run_cli(*argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.count("\n") == 1 and "configuration error" in captured.err
    assert captured.out == ""  # nothing ran


@pytest.mark.parametrize("only", ["", ","], ids=["empty", "comma"])
def test_selftest_only_naming_no_criterion_exits_one(only, monkeypatch, capsys):
    # an --only that names no criterion is refused, not read as all ten
    import saslab.cli

    def battery(numbers, seed):
        raise AssertionError(f"the battery ran for --only {only!r}: {numbers!r}")

    monkeypatch.setattr(saslab.cli, "run_criteria", battery)
    assert run_cli("selftest", "--only", only) == 1
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "configuration error" in captured.err
    assert captured.out == ""


def test_defended_violation_exits_two(capsys):
    # find a seed whose single forge trial at n_e=4 lands the 2^-4 collision;
    # a 1-trial rate of 1.0 exceeds the bound envelope and must gate
    seed = next(
        s for s in range(200)
        if run_experiment(
            ExperimentConfig(
                protocol="kex3", strategy="random-forge", n_e=4, trials=1, seed=s
            )
        ).successes == 1
    )
    code = run_cli(
        "attack", "--strategy", "random-forge", "--protocol", "kex3",
        "--ne", "4", "--trials", "1", "--seed", str(seed),
    )
    assert code == 2
    assert "violates-bound" in capsys.readouterr().out


def test_json_report_reproducible(tmp_path, capsys):
    args = (
        "attack", "--strategy", "kem2-replica", "--ne", "8", "--trials", "20",
        "--seed", "11", "--format", "json",
    )
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(*args, "--out", str(first)) == 0
    assert run_cli(*args, "--out", str(second)) == 0
    capsys.readouterr()
    a, b = json.loads(first.read_text()), json.loads(second.read_text())
    for key in EXCLUDED_REPORT_FIELDS:
        a.pop(key), b.pop(key)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_csv_report(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = run_cli(
        "run", "--protocol", "kem2", "--trials", "5", "--seed", "3",
        "--format", "csv", "--out", str(out),
    )
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("protocol,strategy")
    assert len(lines) == 2


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("run", "--protocol", "kex3", "--trials", "2"), "--out"),
        (("run", "--protocol", "kex3", "--trials", "2", "--format", "csv"), "--out"),
        (("run", "--protocol", "kex3", "--trials", "2"), "--transcript"),
        (("sweep", "--protocol", "kex3", "--ne", "4,8", "--trials", "2"), "--out"),
    ],
    ids=["json-report", "csv-report", "transcript", "sweep-report"],
)
def test_unwritable_output_exits_one_with_one_line(argv, flag, tmp_path, capsys, monkeypatch):
    # refused before any trial runs
    def batch(config, indices):
        raise AssertionError("a trial ran before the output path was checked")

    monkeypatch.setattr(harness, "_trial_batch", batch)
    target = tmp_path / "missing" / "out.bin"
    assert run_cli(*argv, flag, str(target)) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "configuration error: cannot write" in err
    assert not target.exists()


def test_sweep_command(capsys):
    code = run_cli(
        "sweep", "--protocol", "kex3", "--strategy", "random-forge",
        "--ne", "4,8", "--trials", "300", "--seed", "7",
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("random-forge") == 2


def test_sweep_rejects_empty_ne(capsys):
    code = run_cli("sweep", "--protocol", "kex3", "--ne", "", "--trials", "5")
    assert code == 1


def test_list_protocols(capsys):
    assert run_cli("list-protocols") == 0
    out = capsys.readouterr().out
    for name in ("mt-auth", "kex2", "kex3", "kem2", "kem3-two-entropy",
                 "kem3-commit", "kem4", "kem6"):
        assert name in out
    assert "E_B2[A]" in out and "E[none]" in out


def test_selftest_single_criterion(capsys):
    code = run_cli("selftest", "--only", "10")
    out = capsys.readouterr().out
    assert code == 0
    assert "criterion 10" in out and "1/1 criteria passed" in out


def test_transcript_roundtrip_via_cli(tmp_path, capsys):
    transcript = tmp_path / "run.bin"
    code = run_cli(
        "run", "--protocol", "kem3-commit", "--trials", "1", "--seed", "21",
        "--transcript", str(transcript),
    )
    capsys.readouterr()
    assert code == 0 and transcript.exists()
    assert run_cli("replay", str(transcript)) == 0
    first = capsys.readouterr().out
    assert run_cli("replay", str(transcript)) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "completed" in first and "kappa=" in first


def test_transcript_records_the_reports_trial_zero(tmp_path, capsys):
    from saslab.model import TRANSCRIPT_MAGIC, Model, World, run_honest, transcript_export
    from saslab.protocols import ProtocolConfig, ProtocolKind
    from saslab.rng import derive_seed

    transcript = tmp_path / "run.bin"
    assert run_cli(
        "run", "--protocol", "kex3", "--ne", "8", "--trials", "2", "--seed", "5",
        "--transcript", str(transcript),
    ) == 0
    capsys.readouterr()
    seed = derive_seed(5, b"trial", (0).to_bytes(8, "big"))
    world = World(ProtocolKind.KEX3, ProtocolConfig(n_e=8), Model.AM, seed)
    run_honest(world)

    def records(raw):
        return json.loads(raw[len(TRANSCRIPT_MAGIC) + 4 :])["records"]

    assert records(transcript.read_bytes()) == records(transcript_export(world))


def test_replay_rejects_altered_recording(tmp_path, capsys):
    from saslab.model import TRANSCRIPT_MAGIC

    transcript = tmp_path / "run.bin"
    assert run_cli(
        "run", "--protocol", "kem3-commit", "--trials", "1", "--seed", "21",
        "--transcript", str(transcript),
    ) == 0
    capsys.readouterr()
    raw = transcript.read_bytes()
    body = json.loads(raw[len(TRANSCRIPT_MAGIC) + 4 :])
    alice = next(r for r in body["records"] if r["parties"][0] == "alice")
    alice["kappa"] = ("1" if alice["kappa"][0] == "0" else "0") + alice["kappa"][1:]
    alice["entropies"] = {}
    forged = json.dumps(body, sort_keys=True).encode()
    transcript.write_bytes(TRANSCRIPT_MAGIC + len(forged).to_bytes(4, "big") + forged)
    assert run_cli("replay", str(transcript)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "diverges" in captured.err


def _without(key):
    return lambda body: {k: v for k, v in body.items() if k != key}


def _with(key, value):
    return lambda body: {**body, key: value}


def _with_int_seed(seed):
    return lambda body: {**body, "seed": seed, "seed_is_hex": False}


@pytest.mark.parametrize("fault", [
    pytest.param(_without("group"), id="missing-group"),
    pytest.param(_without("seed_is_hex"), id="missing-seed-flag"),
    pytest.param(_with("group", "toy128"), id="unknown-group"),
    pytest.param(_with("kind", "kex9"), id="unknown-kind"),
    pytest.param(_with("model", "XM"), id="unknown-model"),
    pytest.param(_with("seed", "zz"), id="non-hex-seed"),
    pytest.param(_with("parties", [1, 2]), id="non-string-party"),
    pytest.param(lambda body: {**body, "run": {**body["run"], "initiator": "dave"}},
                 id="unknown-initiator"),
    pytest.param(lambda body: {**body, "run": {**body["run"], "message": "zz"}},
                 id="non-hex-message"),
    pytest.param(lambda body: {**body, "run": {**body["run"], "message": 5}},
                 id="non-string-message"),
    pytest.param(lambda body: [body], id="body-not-an-object"),
    pytest.param(_with_int_seed(-1), id="negative-int-seed"),
    pytest.param(_with_int_seed(1 << 70), id="int-seed-past-64-bits"),
    pytest.param(_with("n_e", "8"), id="string-n_e"),
    pytest.param(_with("kem2_key_only_entropy", "yes"), id="string-key-only-flag"),
    pytest.param(_with("include_receiver_identity", 1), id="int-identity-flag"),
    pytest.param(_with("seed_is_hex", "yes"), id="string-seed-flag"),
])
def test_replay_malformed_header_exits_one_with_one_line(fault, tmp_path, capsys):
    from saslab.model import TRANSCRIPT_MAGIC, Model, World, run_honest, transcript_export
    from saslab.protocols import ProtocolConfig, ProtocolKind

    world = World(ProtocolKind.KEX3, ProtocolConfig(), Model.AM, b"\x07")  # a hex seed
    run_honest(world, b"alice", b"bob")
    body = json.loads(transcript_export(world)[len(TRANSCRIPT_MAGIC) + 4 :])
    blob = json.dumps(fault(body)).encode()
    path = tmp_path / "run.bin"
    path.write_bytes(TRANSCRIPT_MAGIC + len(blob).to_bytes(4, "big") + blob)
    assert run_cli("replay", str(path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("saslab: transcript error: ")
    assert captured.err.count("\n") == 1


def test_replay_out_of_range_n_e_is_a_header_fault(tmp_path, capsys):
    # refused with the header's message, not replayed until the machines abort
    from saslab.model import TRANSCRIPT_MAGIC, Model, World, run_honest, transcript_export
    from saslab.protocols import ProtocolConfig, ProtocolKind

    world = World(ProtocolKind.KEX3, ProtocolConfig(), Model.AM, 7)
    run_honest(world, b"alice", b"bob")
    body = json.loads(transcript_export(world)[len(TRANSCRIPT_MAGIC) + 4 :])
    blob = json.dumps({**body, "n_e": 100}).encode()
    path = tmp_path / "run.bin"
    path.write_bytes(TRANSCRIPT_MAGIC + len(blob).to_bytes(4, "big") + blob)
    assert run_cli("replay", str(path)) == 1
    assert capsys.readouterr().err == (
        "saslab: transcript error: malformed transcript header: "
        "ValueError: n_e 100 is outside [4, 64]\n")


def test_replay_missing_file(capsys):
    code = run_cli("replay", "/nonexistent/path.bin")
    assert code == 1


def test_replay_corrupt_file(tmp_path, capsys):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a transcript at all")
    assert run_cli("replay", str(path)) == 1


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "saslab.cli", "list-protocols"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "kem3-commit" in proc.stdout
