"""Each value is held once: a construction's run holds only its records, a
record derives its reference flag and exact size from its exact channel,
``--format`` is offered only where it has two values, a parameter whose
every caller passes one value has no default, and the branch order is
``construct``'s alone."""

import ast
import dataclasses
import inspect
import json

from bidmc import BranchRecord, ConstructionRun, instance_rng, random_channel
from bidmc import cli, experiments, io, search
from bidmc.cli import EXIT_USAGE, build_parser, main
from bidmc.io import channel_to_json_dict

from options import defaulted, flags


def test_a_construction_run_holds_only_its_records():
    assert [f.name for f in dataclasses.fields(ConstructionRun)] == ["records"]
    assert [f.name for f in dataclasses.fields(BranchRecord)] == ["alpha", "exact", "quantized", "clr"]


def test_a_record_reads_its_exact_size_off_its_exact_channel():
    assert not hasattr(BranchRecord, "exact_size")


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


def _defaults(module, names):
    return [d for d in defaulted(inspect.getsource(module)) if d.split("(")[0] in names]


def test_no_default_restates_its_callers_one_value():
    tables = ("pplus_stats_rows", "opt_clr_rows", "arikan_clr_rows", "branch_clr_rows", "arikan_clr")
    assert _defaults(experiments, tables) == []
    assert _defaults(io, ["reduce_transition_matrix"]) == []
    assert _defaults(search, ["dp_tables"]) == []


def test_the_branch_order_is_read_from_construct():
    imported = [
        alias.name
        for node in ast.walk(ast.parse(inspect.getsource(experiments)))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert "itertools" not in imported
    tree = ast.parse(inspect.getsource(cli.cmd_polar))
    called = [n.func.id for n in ast.walk(tree) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)]
    assert "sorted" not in called
