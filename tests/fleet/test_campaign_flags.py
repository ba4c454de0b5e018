"""The flags a campaign spec carries are declared once, for both CLIs.

``repro-bench`` and ``repro-fleet submit`` share one flag block
(:func:`~repro.fleet.service.add_campaign_arguments`) and take every
spec default from ``CampaignSpec()``: the two surfaces cannot drift.
"""

import dataclasses

import pytest

from repro.fleet.cli import build_parser as fleet_parser
from repro.fleet.service import CampaignSpec
from repro.runner.cli import build_parser as bench_parser

SPEC_FIELDS = {f.name for f in dataclasses.fields(CampaignSpec)}


def submit_parser():
    return fleet_parser()._subparsers._group_actions[0].choices["submit"]


def parse(name, argv):
    if name == "repro-bench":
        return bench_parser().parse_args(argv)
    return fleet_parser().parse_args(["submit", "--queue", "q"] + argv)


def spec_actions(parser):
    return {a.dest: a for a in parser._actions if a.dest in SPEC_FIELDS}


@pytest.mark.parametrize("name", ["repro-bench", "repro-fleet submit"])
def test_bare_suite_parses_to_the_default_spec(name):
    args = parse(name, ["-c", "stream"])
    assert CampaignSpec.from_args(args) == CampaignSpec(suites=["stream"])
    default = CampaignSpec().to_doc()
    for field in SPEC_FIELDS - {"suites"}:
        assert getattr(args, field) == default[field], field


def test_shared_flags_are_declared_identically():
    bench, submit = spec_actions(bench_parser()), spec_actions(submit_parser())
    assert len(submit) == 22 and set(submit) <= set(bench)
    for dest, action in submit.items():
        twin = bench[dest]
        assert (action.option_strings, action.type, action.choices,
                action.help, action.default) == \
            (twin.option_strings, twin.type, twin.choices, twin.help,
             twin.default), dest
        assert action.help, dest


def test_submit_still_requires_a_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        parse("repro-fleet submit", [])
    assert exc.value.code == 2
    assert "-c/--checkpath" in capsys.readouterr().err
