import json
import subprocess
import sys

import pytest

from bidmc.cli import main
from bidmc.io import (
    ChannelFormatError,
    channel_to_csv,
    load_channel,
    parse_channel_csv,
    parse_channel_json,
    reduce_transition_matrix,
)
from bidmc import bsc, canonicalize, equivalent

Q3_JSON = json.dumps(
    {
        "particles": [
            {"sigma": 0.1, "q": 0.5},
            {"sigma": 0.2, "q": 0.3},
            {"sigma": 0.4, "q": 0.2},
        ]
    }
)


@pytest.fixture
def q3_file(tmp_path):
    path = tmp_path / "q3.json"
    path.write_text(Q3_JSON)
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# file formats


def test_parse_channel_json_roundtrip():
    chan = parse_channel_json(Q3_JSON)
    assert chan.size == 3
    again = parse_channel_csv(channel_to_csv(chan))
    assert equivalent(chan, again)


def test_parse_channel_csv_diagnostics():
    with pytest.raises(ChannelFormatError, match="line 1"):
        parse_channel_csv("a,b\n0.1,1.0\n")
    with pytest.raises(ChannelFormatError, match="line 3"):
        parse_channel_csv("sigma,q\n0.1,0.5\n0.2,oops\n")


def test_parse_channel_json_diagnostics():
    with pytest.raises(ChannelFormatError):
        parse_channel_json('{"particles": [{"sigma": 0.1}]}')
    with pytest.raises(ChannelFormatError):
        parse_channel_json('{"nope": 1}')
    with pytest.raises(ChannelFormatError, match="line"):
        parse_channel_json("{not json")


def test_reduce_transition_matrix_bsc():
    chan = reduce_transition_matrix([[0.9, 0.1], [0.1, 0.9]])
    assert equivalent(chan, bsc(0.1))


def test_reduce_transition_matrix_bsc_13_digit_crossover():
    # The two outputs' crossovers differ in the last bit and straddle a
    # 12-digit rounding boundary.
    e = 0.2587837918765
    chan = reduce_transition_matrix([[1.0 - e, e], [e, 1.0 - e]])
    assert equivalent(chan, bsc(e))


def test_reduce_transition_matrix_bec():
    chan = reduce_transition_matrix([[0.5, 0.0, 0.5], [0.0, 0.5, 0.5]])
    assert equivalent(chan, canonicalize([(0.0, 0.5), (0.5, 0.5)]))


def test_reduce_transition_matrix_accepts_folded_symmetric():
    # BSC plus uniform noise: outputs pair up into a symmetric LR-profile.
    chan = reduce_transition_matrix([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1]])
    assert equivalent(chan, canonicalize([(1.0 / 9.0, 0.9), (0.5, 0.1)]))


def test_reduce_transition_matrix_rejects_asymmetric():
    with pytest.raises(ChannelFormatError):
        reduce_transition_matrix([[0.8, 0.2, 0.0], [0.1, 0.8, 0.1]])


def test_load_channel_transition_matrix(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"transition_matrix": [[0.7, 0.3], [0.3, 0.7]]}))
    assert equivalent(load_channel(path), bsc(0.3))


# ----------------------------------------------------------------------
# subcommands


def test_analyze_reports_capacity(q3_file, capsys):
    code, out, _ = run_cli(["analyze", q3_file, "--oracle"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["capacity"] == pytest.approx(0.354733655848217, abs=1e-9)
    assert report["error_probability"] == pytest.approx(0.19, abs=1e-12)
    assert report["particles"] == 3


def test_analyze_bsc_and_erasure_files(tmp_path, capsys):
    bsc_path = tmp_path / "bsc.json"
    bsc_path.write_text(json.dumps({"particles": [{"sigma": 0.1, "q": 1.0}]}))
    code, out, _ = run_cli(["analyze", str(bsc_path)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["capacity"] == pytest.approx(0.5310044064107188, abs=1e-9)
    assert report["error_probability"] == pytest.approx(0.1, abs=1e-12)

    bec_path = tmp_path / "bec.csv"
    bec_path.write_text("sigma,q\n0.0,0.5\n0.5,0.5\n")
    code, out, _ = run_cli(["analyze", str(bec_path)], capsys)
    assert code == 0
    assert json.loads(out)["capacity"] == pytest.approx(0.5, abs=1e-12)


def test_analyze_malformed_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"particles": [{"sigma": 0.1, "q": 0.4}]}')
    code, _, err = run_cli(["analyze", str(bad)], capsys)
    assert code == 2
    assert err


def test_usage_error_exits_1(capsys):
    code, _, _ = run_cli(["degrade"], capsys)
    assert code == 1


def test_degrade_opt_with_witness(q3_file, tmp_path, capsys):
    wit_path = tmp_path / "wit.json"
    out_path = tmp_path / "out.json"
    code, out, _ = run_cli(
        [
            "degrade",
            q3_file,
            "--n",
            "2",
            "--method",
            "opt",
            "--oracle",
            "--emit-witness",
            str(wit_path),
            "--output-channel",
            str(out_path),
        ],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["cuts"] == [3]
    assert report["capacity"] == pytest.approx(0.34368675842621577, abs=1e-9)
    wit = json.loads(wit_path.read_text())
    assert wit["rows"] == 3 and wit["cols"] == 2
    degraded = load_channel(out_path)
    assert degraded.size == 2


def test_degrade_identity_when_n_equals_m(q3_file, capsys):
    code, out, _ = run_cli(["degrade", q3_file, "--n", "3"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["clr"] == 0.0


def test_degrade_method_ordering(q3_file, capsys):
    caps = {}
    for method in ("opt", "tv", "tv-star"):
        code, out, _ = run_cli(
            ["degrade", q3_file, "--n", "2", "--method", method], capsys
        )
        assert code == 0
        caps[method] = json.loads(out)["capacity"]
    assert caps["opt"] >= caps["tv-star"] - 1e-12
    assert caps["tv-star"] >= caps["tv"] - 1e-12


def test_degrade_mean_method(q3_file, capsys):
    code, out, _ = run_cli(["degrade", q3_file, "--method", "mean"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["n"] == 1
    assert report["channel"]["particles"][0]["sigma"] == pytest.approx(0.19)


def test_degrade_validates_n(q3_file, capsys):
    code, _, err = run_cli(["degrade", q3_file, "--n", "9"], capsys)
    assert code == 2


def test_enumerate_sorted_and_top_matches_opt(q3_file, capsys):
    code, out, _ = run_cli(["enumerate", q3_file, "--n", "2", "--oracle"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 2
    caps = [row["capacity"] for row in report["plans"]]
    assert caps == sorted(caps, reverse=True)
    assert report["plans"][0]["cuts"] == [3]


def test_check_verdicts(q3_file, tmp_path, capsys):
    w_path = tmp_path / "w.json"
    w_path.write_text(json.dumps({"particles": [{"sigma": 0.19, "q": 1.0}]}))
    code, out, _ = run_cli(["check", str(w_path), q3_file, "--oracle"], capsys)
    assert code == 0
    assert json.loads(out)["degradation"] is True

    u_path = tmp_path / "u.json"
    u_path.write_text(json.dumps({"particles": [{"sigma": 0.05, "q": 1.0}]}))
    code, out, _ = run_cli(["check", str(u_path), q3_file], capsys)
    assert code == 0
    assert json.loads(out)["degradation"] is False


def test_check_oracle_mismatch_exits_3(q3_file, tmp_path, capsys, monkeypatch):
    import bidmc.cli as cli_mod

    monkeypatch.setattr(cli_mod, "risk_dominates", lambda *a, **k: False)
    code, _, err = run_cli(["check", q3_file, q3_file, "--oracle"], capsys)
    assert code == 3
    assert "oracle" in err


def test_experiment_pplus_stats_deterministic(capsys):
    args = [
        "experiment",
        "--table",
        "pplus-stats",
        "--m",
        "8",
        "--n",
        "4",
        "--samples",
        "30",
        "--seed",
        "5",
    ]
    code, out1, _ = run_cli(args, capsys)
    assert code == 0
    code, out2, _ = run_cli(args, capsys)
    assert out1 == out2
    row = json.loads(out1)["rows"][0]
    assert row["pplus_count"] == 35
    assert 0 < row["mean_c_count"] <= 35


def test_experiment_jobs_stable(capsys):
    base = [
        "experiment",
        "--table",
        "opt-clr",
        "--m",
        "12",
        "--n",
        "3",
        "--samples",
        "12",
        "--seed",
        "9",
        "--compare-full",
    ]
    code, out1, _ = run_cli(base + ["--jobs", "1"], capsys)
    assert code == 0
    code, out2, _ = run_cli(base + ["--jobs", "2"], capsys)
    assert code == 0
    assert out1 == out2
    row = json.loads(out1)["rows"][0]
    assert row["mean_evaluations"] <= row["mean_evaluations_full"]


def test_experiment_seed_env_override(capsys, monkeypatch):
    args = [
        "experiment",
        "--table",
        "pplus-stats",
        "--m",
        "6",
        "--n",
        "3",
        "--samples",
        "10",
        "--seed",
        "1",
    ]
    code, out1, _ = run_cli(args, capsys)
    monkeypatch.setenv("BIDMC_SEED", "2")
    code, out2, _ = run_cli(args, capsys)
    monkeypatch.delenv("BIDMC_SEED")
    code, out3, _ = run_cli(args + ["--seed", "2"], capsys)
    assert out1 != out2
    assert out2 == out3


def test_experiment_csv_output(tmp_path, capsys):
    out_path = tmp_path / "table.csv"
    code, _, _ = run_cli(
        [
            "experiment",
            "--table",
            "arikan-clr",
            "--n",
            "4",
            "--samples",
            "4",
            "--seed",
            "3",
            "--format",
            "csv",
            "--output",
            str(out_path),
        ],
        capsys,
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0].startswith("n,")
    assert len(lines) == 2


def test_polar_command(q3_file, capsys):
    code, out, _ = run_cli(
        ["polar", q3_file, "--depth", "2", "--n", "3", "--oracle"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert len(report["branches"]) == 6
    for row in report["branches"]:
        assert 0.0 <= row["clr"] <= 1.0


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bidmc.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "analyze" in proc.stdout
