"""Each value is held once: a construction's run holds only its records, a
record derives its reference flag from its exact channel, and ``--format``
is offered only where it has two values."""

import dataclasses
import json

from bidmc import BranchRecord, ConstructionRun, instance_rng, random_channel
from bidmc.cli import EXIT_USAGE, build_parser, main
from bidmc.io import channel_to_json_dict

from options import flags


def test_a_construction_run_holds_only_its_records():
    assert [f.name for f in dataclasses.fields(ConstructionRun)] == ["records"]
    assert [f.name for f in dataclasses.fields(BranchRecord)] == ["alpha", "exact", "quantized", "clr"]


def test_format_is_offered_only_by_the_commands_with_a_csv_report():
    offered = [flag.split()[0] for flag in flags(build_parser()) if flag.endswith(" --format")]
    assert offered == ["enumerate", "experiment", "polar"]


def test_format_on_a_json_only_command_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(channel_to_json_dict(random_channel(instance_rng(0, 0), 6))))
    for argv in (["analyze", str(path)], ["degrade", str(path), "--n", "3"], ["check", str(path), str(path)]):
        assert main(argv + ["--format", "json"]) == EXIT_USAGE
        assert main(argv) == 0
    capsys.readouterr()
