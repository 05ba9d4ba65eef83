import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bidmc
from bidmc.cli import main
from bidmc.io import (
    ChannelFormatError,
    channel_to_csv,
    channel_to_json_dict,
    load_channel,
    parse_channel_csv,
    parse_channel_json,
    reduce_transition_matrix,
)
from bidmc import (
    arikan_minus,
    bsc,
    canonicalize,
    construct,
    dp_tables,
    instance_rng,
    random_channel,
)

from channel_helpers import equivalent

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


_PARTICLE_FORM = 'expected {"sigma": number, "q": number}'


@pytest.mark.parametrize(
    "particles, index",
    [
        # float(True) is 1.0: a noiseless particle once reflected.
        ([{"sigma": True, "q": 0.5}, {"sigma": 0.2, "q": 0.5}], 0),
        ([{"sigma": 0.1, "q": 0.5}, {"sigma": 0.2, "q": False}], 1),
        ([[0.1, 0.5], [0.2, 0.5]], 0),
        ([{"sigma": 0.1, "q": 0.5}, "0.2,0.5"], 1),
        ([{"sigma": 0.1, "q": 0.5}, None], 1),
    ],
    ids=["sigma-true", "q-false", "list-entry", "string-entry", "null-entry"],
)
def test_particle_entries_must_be_objects_of_numbers(particles, index, tmp_path, capsys):
    text = json.dumps({"particles": particles})
    with pytest.raises(ChannelFormatError) as exc:
        parse_channel_json(text)
    assert str(exc.value).startswith(f"particle {index}: {_PARTICLE_FORM}, got ")
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run_cli(["analyze", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {exc.value}\n"


def test_particle_numbers_load_as_floats():
    # Integers and numeric strings are numbers float() reads alike.
    got = parse_channel_json('{"particles": [{"sigma": 0, "q": 1}]}')
    assert equivalent(got, bsc(0.0))
    assert equivalent(parse_channel_json('{"particles": [{"sigma": "0.1", "q": 1}]}'), bsc(0.1))


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


@pytest.mark.parametrize("name", ["out.csv", "out.CSV"])
def test_csv_output_channel_reads_back(name, q3_file, tmp_path, capsys):
    # Writer and loader share one suffix rule, in any case.
    path = tmp_path / name
    code, out, _ = run_cli(["degrade", q3_file, "--n", "2", "--output-channel", str(path)], capsys)
    assert code == 0
    assert path.read_text().startswith("sigma,q\n")
    code, _, _ = run_cli(["analyze", str(path)], capsys)
    assert code == 0
    assert channel_to_json_dict(load_channel(path)) == json.loads(out)["channel"]


def test_analyze_malformed_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"particles": [{"sigma": 0.1, "q": 0.4}]}')
    code, _, err = run_cli(["analyze", str(bad)], capsys)
    assert code == 2
    assert err


@pytest.mark.parametrize(
    "argv",
    [["analyze"], ["degrade", "--n", "2"], ["polar", "--depth", "2", "--n", "2"]],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize(
    "name, text",
    [
        (
            "nan.json",
            '{"particles": [{"sigma": 0.1, "q": NaN}, {"sigma": 0.2, "q": 0.5}, {"sigma": 0.3, "q": 0.5}]}',
        ),
        ("nan.csv", "sigma,q\n0.1,nan\n0.2,0.5\n0.3,0.5\n"),
    ],
)
def test_nan_weight_exits_2(argv, name, text, tmp_path, capsys):
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run_cli([argv[0], str(path), *argv[1:]], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "nan" in err


@pytest.mark.parametrize(
    "matrix, message",
    [
        ([[0.5, 0.5], [0.5]], "rows of numbers of equal length"),
        ("abc", "rows of numbers of equal length"),
        ([[0.5, float("nan")], [0.5, 0.5]], "must be finite"),
    ],
)
def test_malformed_transition_matrix_exits_2(matrix, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"transition_matrix": matrix}))
    with pytest.raises(ChannelFormatError, match=message):
        load_channel(path)
    code, out, err = run_cli(["degrade", str(path), "--n", "2"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_transition_matrix_entries_within_tol_below_zero_count_as_zero(tmp_path, capsys):
    # The -2e-10 entries pass the nonnegativity check, within its 1e-9
    # tolerance, and load as 0, so the crossovers stay in [0, 1].
    matrix = [[0.5000000001, 0.4999999999, -2e-10, 2e-10], [2e-10, -2e-10, 0.4999999999, 0.5000000001]]
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"transition_matrix": matrix}))
    code, out, err = run_cli(["analyze", str(path)], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["particles"] == 2
    chan = load_channel(path)
    assert chan.sigmas.tolist() == [0.0, pytest.approx(4e-10, rel=1e-6)]
    assert chan.weights.tolist() == pytest.approx([0.5, 0.5], abs=1e-9)


def test_transition_matrix_canonicalize_errors_are_format_errors(monkeypatch):
    # Symmetric, but the columns' masses sum to 1.5, which a tolerance of 1
    # lets past the rows' checks to canonicalize.
    import bidmc.io as io_mod

    monkeypatch.setattr(io_mod, "TRANSITION_TOL", 1.0)
    with pytest.raises(ChannelFormatError, match="weights sum"):
        reduce_transition_matrix([[0.9, 0.6], [0.6, 0.9]])


_CHANNEL_COMMANDS = {
    "analyze": ["analyze", "{channel}"],
    "degrade": ["degrade", "{channel}", "--n", "2"],
    "enumerate": ["enumerate", "{channel}", "--n", "2"],
    "check": ["check", "{channel}", "{q3}"],
    "polar": ["polar", "{channel}", "--depth", "1", "--n", "2"],
}

# Each bad input: the channel file's name and bytes (None for a directory),
# and an output option pointed at a directory.
_BAD_INPUTS = {
    "non-utf8-json": ("bad.json", b'{"particles": [{"sigma": 0.1, "q": 1\xff}]}', None),
    "non-utf8-csv": ("bad.csv", b"sigma,q\n0.1,1\xff\n", None),
    "particles-number": ("bad.json", b'{"particles": 5}', None),
    "particles-null": ("bad.json", b'{"particles": null}', None),
    "channel-directory": ("channel.json", None, None),
    "output-directory": ("q3.json", Q3_JSON.encode(), "--output"),
    "witness-directory": ("q3.json", Q3_JSON.encode(), "--emit-witness"),
}


@pytest.mark.parametrize(
    "command, bad",
    [
        (command, bad)
        for command in _CHANNEL_COMMANDS
        for bad in _BAD_INPUTS
        if bad != "witness-directory" or command in ("degrade", "check")
    ],
)
def test_unreadable_channel_or_unwritable_output_exits_2(command, bad, tmp_path, q3_file, capsys):
    name, data, option = _BAD_INPUTS[bad]
    channel = tmp_path / name
    if data is None:
        channel.mkdir()
    else:
        channel.write_bytes(data)
    argv = [a.format(channel=channel, q3=q3_file) for a in _CHANNEL_COMMANDS[command]]
    if option:
        (tmp_path / "out").mkdir()
        argv += [option, str(tmp_path / "out")]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("bad_output", ["directory", "missing-directory"])
def test_bad_output_path_exits_2_and_writes_nothing(bad_output, q3_file, tmp_path, capsys):
    # Every output path is checked before the command runs, so the witness
    # and channel files named before the bad report path are not written.
    (tmp_path / "out").mkdir()
    output = tmp_path / "out" if bad_output == "directory" else tmp_path / "missing" / "report.json"
    wit_path, chan_path = tmp_path / "w.json", tmp_path / "red.json"
    code, out, err = run_cli(
        ["degrade", q3_file, "--n", "2", "--emit-witness", str(wit_path),
         "--output-channel", str(chan_path), "--output", str(output)],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert not wit_path.exists() and not chan_path.exists()


# Each run names one file twice, as two outputs or as an input and an output.
_COLLIDING = {
    "report-on-channel": ["degrade", "{q}", "--n", "4", "--output-channel", "{out}", "--output", "{out}"],
    "witness-on-input": ["degrade", "{q}", "--n", "4", "--emit-witness", "{q}"],
    "witness-on-report": ["degrade", "{q}", "--n", "4", "--emit-witness", "{out}", "--output", "{out}"],
    "channel-on-input-link": ["degrade", "{q}", "--n", "4", "--output-channel", "{link}"],
    "check-witness-on-degraded": ["check", "{w}", "{q}", "--emit-witness", "{w}"],
    "check-report-on-source": ["check", "{w}", "{q}", "--output", "{q}"],
    "analyze-report-on-input": ["analyze", "{q}", "--output", "{q}"],
    "polar-report-on-input-link": ["polar", "{link}", "--n", "2", "--output", "{q}"],
}


@pytest.mark.parametrize("case", sorted(_COLLIDING))
def test_colliding_paths_exit_2_and_leave_every_file_unchanged(case, tmp_path, capsys):
    q = random_channel(instance_rng(0, 0), 8)
    paths = {key: tmp_path / f"{key}.json" for key in ("q", "w", "out")}
    paths["q"].write_text(json.dumps(channel_to_json_dict(q)))
    paths["w"].write_text(json.dumps(channel_to_json_dict(arikan_minus(arikan_minus(q)))))
    paths["out"].write_text("an earlier report\n")
    paths["link"] = tmp_path / "link.json"
    paths["link"].symlink_to(paths["q"])
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    argv = [a.format(**{key: str(path) for key, path in paths.items()}) for a in _COLLIDING[case]]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: output path ")
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


@pytest.mark.parametrize("method,n", [("opt", 3), ("tv", 3), ("opt", 4)])
def test_degrade_emits_witness_with_tiny_weights(method, n, tmp_path, capsys):
    # Weights at or below 1e-15 end groups of the chosen cut plans.
    chan = {"particles": [{"sigma": 0.1, "q": 0.5}, {"sigma": 0.2, "q": 1e-20},
                          {"sigma": 0.3, "q": 0.5}, {"sigma": 0.4, "q": 1e-300}]}
    path, wit_path = tmp_path / "t.json", tmp_path / "w.json"
    path.write_text(json.dumps(chan))
    code, out, err = run_cli(
        ["degrade", str(path), "--n", str(n), "--method", method, "--emit-witness", str(wit_path)], capsys
    )
    assert code == 0, err
    wit = json.loads(wit_path.read_text())
    report = json.loads(out)
    assert wit["rows"] == 4 and wit["cols"] == len(report["cuts"]) + 1
    assert [sum(row) for row in wit["k"]] == [p["q"] for p in chan["particles"]]


def test_experiment_bad_output_exits_2_before_computing(tmp_path, capsys, monkeypatch):
    import bidmc.experiments as experiments_mod

    def fail(*args, **kwargs):
        raise AssertionError("the table was computed")

    monkeypatch.setattr(experiments_mod, "_opt_clr_counted", fail)
    code, out, err = run_cli(
        ["experiment", "--table", "opt-clr", "--samples", "4", "--output", str(tmp_path)], capsys
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("command", [*_CHANNEL_COMMANDS, "experiment"])
def test_malformed_seed_env_exits_2_before_any_work(command, q3_file, capsys, monkeypatch):
    import bidmc.cli as cli_mod
    import bidmc.experiments as experiments_mod

    def fail(*args, **kwargs):
        raise AssertionError("work started before the seed was checked")

    monkeypatch.setattr(cli_mod, "load_channel", fail)
    monkeypatch.setattr(experiments_mod, "_records", fail)
    monkeypatch.setenv("BIDMC_SEED", "abc")
    argv = _CHANNEL_COMMANDS.get(command, ["experiment", "--table", "opt-clr", "--samples", "4"])
    code, out, err = run_cli([a.format(channel=q3_file, q3=q3_file) for a in argv], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: BIDMC_SEED")


@pytest.mark.parametrize(
    "suffix, text",
    [(".json", Q3_JSON), (".csv", "sigma,q\n0.1,0.5\n0.2,0.3\n0.4,0.2\n")],
    ids=["json", "csv"],
)
def test_channel_file_with_byte_order_mark_reads_as_without(suffix, text, tmp_path, capsys):
    plain, marked = tmp_path / f"plain{suffix}", tmp_path / f"marked{suffix}"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    code, expected, _ = run_cli(["analyze", str(plain)], capsys)
    assert code == 0
    code, out, _ = run_cli(["analyze", str(marked)], capsys)
    assert code == 0
    assert out == expected


def test_usage_error_exits_1(capsys):
    code, _, _ = run_cli(["degrade"], capsys)
    assert code == 1


def test_experiment_takes_no_oracle_flag(capsys):
    # No table has an independent oracle, so the flag is refused as a usage
    # error rather than ignored; the same table without it runs.
    table = ["experiment", "--table", "opt-clr", "--m", "6", "--n", "3", "--samples", "2"]
    code, _, err = run_cli([*table, "--oracle"], capsys)
    assert code == 1 and "--oracle" in err
    assert run_cli(table, capsys)[0] == 0


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


def test_degrade_pruning_off_reports_the_unpruned_dp(tmp_path, capsys):
    # --pruning off gives the default run's plan and capacity, with the
    # unpruned DP's counters: every alive entry computed, no state dropped.
    q = random_channel(instance_rng(19, 0), 16)
    path = tmp_path / "q.json"
    path.write_text(json.dumps(channel_to_json_dict(q)))
    reports = []
    for extra in ([], ["--pruning", "off"]):
        code, out, _ = run_cli(["degrade", str(path), "--n", "4", "--method", "opt", *extra], capsys)
        assert code == 0
        reports.append(json.loads(out))
    pruned, full = reports
    assert (full["cuts"], full["capacity"]) == (pruned["cuts"], pruned["capacity"])
    assert full["evaluations"] == dp_tables([q], 4, False)[0][1].evaluations
    assert full["evaluations"] >= pruned["evaluations"]
    assert full["pruned_states"] == 0


@pytest.mark.parametrize(
    "method, n", [("tv", "4"), ("tv-star", "4"), ("mean", None), ("opt", "16"), ("opt", "4")]
)
def test_degrade_prints_the_dp_counters_only_for_opt_below_m(method, n, tmp_path, capsys):
    # Only opt with n < m runs the DP, and its report prints the counters of
    # dp_tables([q], n, True); every other method, and opt at n = m (the
    # identity plan), prints null for both.
    q = random_channel(instance_rng(19, 0), 16)
    path = tmp_path / "q.json"
    path.write_text(json.dumps(channel_to_json_dict(q)))
    code, out, _ = run_cli(["degrade", str(path), "--method", method, *(["--n", n] if n else [])], capsys)
    assert code == 0
    report = json.loads(out)
    expected = [None, None]
    if method == "opt" and int(n) < q.size:
        table = dp_tables([q], int(n), True)[0][1]
        expected = [table.evaluations, table.pruned_states]
    assert [report["evaluations"], report["pruned_states"]] == expected


def test_degrade_mean_method(q3_file, capsys):
    code, out, _ = run_cli(["degrade", q3_file, "--method", "mean"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["n"] == 1
    assert report["channel"]["particles"][0]["sigma"] == pytest.approx(0.19)


def test_degrade_validates_n(q3_file, capsys):
    code, _, err = run_cli(["degrade", q3_file, "--n", "9"], capsys)
    assert code == 2


@pytest.mark.parametrize(
    "command, particles, least",
    [("degrade", 1, 2), ("enumerate", 1, 3), ("enumerate", 2, 3)],
)
def test_too_small_channel_for_n_exits_2(command, particles, least, tmp_path, capsys):
    path = tmp_path / "small.json"
    path.write_text(json.dumps(channel_to_json_dict(random_channel(instance_rng(19, 1), particles))))
    code, out, err = run_cli([command, str(path), "--n", "2"], capsys)
    assert (code, out) == (2, "")
    assert f"--n needs a channel of at least {least} particles, this one has {particles}" in err


def test_enumerate_sorted_and_top_matches_opt(q3_file, capsys):
    code, out, _ = run_cli(["enumerate", q3_file, "--n", "2", "--oracle"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 2
    caps = [row["capacity"] for row in report["plans"]]
    assert caps == sorted(caps, reverse=True)
    assert report["plans"][0]["cuts"] == [3]


def test_enumerate_csv_without_c_degradations(tmp_path, capsys):
    # Branch 0000's minus transform: 6 particles within 4.3e-11 of 1/2, no
    # cut vector of which passes every window at n = 4.
    run = construct(random_channel(instance_rng(1, 25), 4), 5, 4)
    path = tmp_path / "q6.json"
    path.write_text(json.dumps(channel_to_json_dict(arikan_minus(run.records["0000"].quantized))))
    code, out, _ = run_cli(["enumerate", str(path), "--n", "4"], capsys)
    assert (code, json.loads(out)["count"]) == (0, 0)
    code, out, _ = run_cli(["enumerate", str(path), "--n", "4", "--format", "csv"], capsys)
    assert (code, out) == (0, "cuts,capacity,clr\r\n")


def test_enumerate_oracle_refuses_past_the_brute_force_guard(tmp_path, capsys, monkeypatch):
    import bidmc.cli as cli_mod

    # The oracle would test C(39, 7) = 15.4M cut vectors, one call each;
    # the run is refused before it enumerates anything.
    def fail(*args, **kwargs):
        raise AssertionError("enumerated past the guard")

    monkeypatch.setattr(cli_mod, "enumerate_c_degradations", fail)
    path = tmp_path / "q40.json"
    path.write_text(json.dumps(channel_to_json_dict(random_channel(instance_rng(19, 0), 40))))
    code, out, err = run_cli(["enumerate", str(path), "--n", "8", "--oracle"], capsys)
    assert code == 2
    assert out == ""
    assert "oracle infeasible" in err


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


def test_internal_error_exits_4(q3_file, capsys, monkeypatch):
    import bidmc.cli as cli_mod

    def fail(*args, **kwargs):
        raise RuntimeError("no feasible traceback state")

    monkeypatch.setattr(cli_mod, "dp_tables", fail)
    code, out, err = run_cli(["degrade", q3_file, "--n", "2"], capsys)
    assert code == 4
    assert out == ""
    assert err == "internal error in degrade: no feasible traceback state\n"


def test_library_value_error_exits_4(q3_file, capsys, monkeypatch):
    import bidmc.cli as cli_mod

    def fail(*args, **kwargs):
        raise ValueError("row sums do not match the row pattern")

    monkeypatch.setattr(cli_mod, "find_degradation_witness", fail)
    code, out, err = run_cli(["check", q3_file, q3_file], capsys)
    assert code == 4
    assert out == ""
    assert err == "internal error in check: row sums do not match the row pattern\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["polar", "{q3}", "--depth", "0", "--n", "3"],
        ["polar", "{q3}", "--n", "1"],
        ["experiment", "--table", "arikan-clr", "--n", "1", "--samples", "2"],
        ["experiment", "--table", "branch-clr", "--n", "3", "--depth", "0", "--samples", "2"],
        ["experiment", "--table", "opt-clr", "--samples", "0"],
        ["experiment", "--table", "opt-clr", "--samples", "-3"],
        ["experiment", "--table", "opt-clr", "--m", "", "--samples", "2"],
        ["experiment", "--table", "pplus-stats", "--n", "", "--samples", "2"],
        ["experiment", "--table", "arikan-clr", "--samples", "2", "--jobs", "0"],
        ["experiment", "--table", "branch-clr", "--samples", "0", "--format", "csv"],
    ],
)
def test_quantizer_options_are_validated(argv, q3_file, capsys):
    code, out, err = run_cli([a.format(q3=q3_file) for a in argv], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --")


def test_malformed_seed_env_exits_2(q3_file, capsys, monkeypatch):
    monkeypatch.setenv("BIDMC_SEED", "seven")
    code, _, err = run_cli(["analyze", q3_file], capsys)
    assert code == 2
    assert "BIDMC_SEED" in err


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


@pytest.mark.parametrize(
    "table",
    [
        ["opt-clr", "--m", "12", "--n", "3", "--samples", "12", "--compare-full"],
        ["pplus-stats", "--m", "8", "--n", "3 4", "--samples", "9"],
        ["arikan-clr", "--n", "3 4", "--samples", "9", "--c-stats"],
        ["branch-clr", "--n", "3", "--depth", "2", "--samples", "5"],
    ],
    ids=lambda table: table[0],
)
def test_experiment_jobs_stable(table, capsys):
    base = ["experiment", "--table", *table, "--seed", "9"]
    code, out1, _ = run_cli(base + ["--jobs", "1"], capsys)
    assert code == 0
    code, out2, _ = run_cli(base + ["--jobs", "2"], capsys)
    assert code == 0
    assert out1 == out2
    if table[0] == "opt-clr":
        row = json.loads(out1)["rows"][0]
        assert row["mean_evaluations"] <= row["mean_evaluations_full"]


def test_experiment_jobs_capped_at_cpu_count(monkeypatch):
    # A fake Pool records the processes asked for and runs the batches
    # serially, so no worker process starts.
    import os

    import bidmc.experiments as experiments_mod

    asked = []

    class FakePool:
        def __init__(self, processes):
            asked.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, tasks):
            return [fn(*task) for task in tasks]

    monkeypatch.setattr(experiments_mod, "Pool", FakePool)
    serial = experiments_mod.pplus_stats_rows(3, [8], [4], 64, jobs=1)
    assert asked == []
    assert experiments_mod.pplus_stats_rows(3, [8], [4], 64, jobs=64) == serial
    assert len(asked) == 1 and asked[0] <= (os.cpu_count() or 1)
    monkeypatch.setattr(experiments_mod.os, "cpu_count", lambda: 3)
    assert experiments_mod.pplus_stats_rows(3, [8], [4], 64, jobs=64) == serial
    assert asked[-1] == 3


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


def test_polar_with_a_subnormal_weight(tmp_path, capsys):
    # Merging pairs with subnormal masses once landed a group mean on its
    # neighbour's, so canonicalize rejected its own output (exit 4).
    path = tmp_path / "sub.json"
    particles = [{"sigma": 0.0, "q": 1e-320}, {"sigma": 0.2, "q": 0.5}, {"sigma": 0.5, "q": 0.5}]
    path.write_text(json.dumps({"particles": particles}))
    code, out, err = run_cli(["polar", str(path), "--n", "2", "--depth", "3", "--oracle"], capsys)
    assert (code, err) == (0, "")
    assert len(json.loads(out)["branches"]) == 14


def test_console_entry_point():
    # The checkout's package is found by the subprocess too, installed or not.
    src = Path(bidmc.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "bidmc.cli", "--help"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert "analyze" in proc.stdout
