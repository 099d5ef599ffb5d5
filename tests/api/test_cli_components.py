"""The CLI's one component parser, table-driven over all five flags.

``--summary``, ``--reconfig``, ``--transport``, ``--topology`` and
``--catalog`` share :func:`repro.api.__main__.parse_component_arg`,
driven by the spec layer's ``COMPONENTS`` registry: the head before
``:`` is the component's selector field (``catalog`` has none), a key
naming a dataclass field sets it, ``summary=``/``summary.<p>=`` build
the nested :class:`SummarySpec`, and any other key is a ``params``
entry where the class has one.  Malformed strings raise
:class:`SpecError` (CLI exit status 2).  Also here: mistyped topology
generator parameters exit 2 rather than crash.
"""

import json

import pytest

from repro.api import (
    CatalogSpec,
    ReconfigSpec,
    SpecError,
    SummarySpec,
    TopologySpec,
    TransportSpec,
)
from repro.api.__main__ import main, parse_component_arg
from repro.api.spec import COMPONENTS
from repro.topology import TopologyError, generate, generator_entry, generator_names

PARSED = [
    # summary: every key after the kind is a build parameter.
    ("summary", "bloom", SummarySpec(kind="bloom")),
    (
        "summary",
        "art:bits_per_element=16,correction=2",
        SummarySpec(kind="art", params={"bits_per_element": 16, "correction": 2}),
    ),
    # reconfig: fields, plus the nested summary prefix.
    ("reconfig", "static", ReconfigSpec(policy="static")),
    ("reconfig", "random:interval=10", ReconfigSpec(policy="random", interval=10)),
    (
        "reconfig",
        "informed:summary=bloom,summary.bits_per_element=4,"
        "interval=10,jitter=0.5,scan_budget=8",
        ReconfigSpec(
            policy="informed",
            summary=SummarySpec(kind="bloom", params={"bits_per_element": 4}),
            interval=10,
            jitter=0.5,
            scan_budget=8,
        ),
    ),
    (
        "reconfig",
        "informed:summary=minwise",
        ReconfigSpec(policy="informed", summary=SummarySpec(kind="minwise")),
    ),
    ("reconfig", " informed : interval = 5 ", ReconfigSpec(interval=5)),
    # transport: bottleneck_*/rto_* are fields, every other key a param.
    ("transport", "open_loop", TransportSpec()),
    (
        "transport",
        "aimd:beta=0.7,bottleneck_rate=12,rto_min=1.5",
        TransportSpec(
            policy="aimd", params={"beta": 0.7}, bottleneck_rate=12, rto_min=1.5
        ),
    ),
    (
        "transport",
        "aimd:bottleneck_buffer=16,rto_max=30,beta=0.5",
        TransportSpec(
            policy="aimd", params={"beta": 0.5}, bottleneck_buffer=16, rto_max=30
        ),
    ),
    # topology: every key is a generator parameter.
    ("topology", "ring", TopologySpec(kind="ring")),
    ("topology", "scale_free:attach=2", TopologySpec("scale_free", {"attach": 2})),
    (
        "topology",
        "cdn_tiers:tiers=3,fanout=4",
        TopologySpec("cdn_tiers", {"tiers": 3, "fanout": 4}),
    ),
    # catalog: no selector, every key is a field.
    ("catalog", "objects=4", CatalogSpec(objects=4)),
    (
        "catalog",
        "objects=6,zipf_skew=1.2,priority_tiers=3",
        CatalogSpec(objects=6, zipf_skew=1.2, priority_tiers=3),
    ),
]

MALFORMED = [
    ("summary", ":k=1"),  # no kind
    ("summary", "bloom:oops"),  # not key=val
    ("summary", "nope"),  # unknown kind
    ("summary", "bloom:a=1,,b=2"),  # empty item
    ("reconfig", ":interval=5"),
    ("reconfig", "informed:notakeyvalue"),
    ("reconfig", "informed:unknown_field=3"),  # no params field to fall into
    ("reconfig", "informed:policy=random"),  # the selector is not a key
    ("reconfig", "informed:summary.bits_per_element=4"),  # no summary kind
    ("reconfig", "informed:summary=nope"),
    ("reconfig", "static:summary=bloom"),  # summaries are informed-only
    ("reconfig", "informed:interval=abc"),
    ("reconfig", "psychic"),
    ("transport", ":beta=0.7"),
    ("transport", "aimd:beta"),
    ("transport", "aimd:bottleneck_buffer=2.5"),
    ("transport", "aimd:rto_min=-1"),
    ("transport", "psychic"),
    ("topology", ":attach=2"),
    ("topology", "bogus"),
    ("topology", "scale_free:nope=1"),
    ("topology", "ring:degree=4"),
    ("catalog", "foo=1"),
    ("catalog", "objects"),
    ("catalog", "objects=abc"),
    ("catalog", "objects=0"),
    ("catalog", "zipf:objects=4"),  # catalog has no selector
]


def _row_id(row):
    return f"{row[0]}:{row[1]}"


class TestParseComponentArg:
    @pytest.mark.parametrize("name,text,expected", PARSED, ids=map(_row_id, PARSED))
    def test_parses(self, name, text, expected):
        assert parse_component_arg(name, text) == expected

    @pytest.mark.parametrize("name,text", MALFORMED, ids=map(_row_id, MALFORMED))
    def test_malformed_strings_raise_spec_error(self, name, text):
        with pytest.raises(SpecError):
            parse_component_arg(name, text)

    def test_every_registered_component_has_a_row(self):
        assert {row[0] for row in PARSED} == set(COMPONENTS)
        assert {row[0] for row in MALFORMED} == set(COMPONENTS)

    def test_unknown_component_rejected(self):
        with pytest.raises(SpecError, match="unknown component"):
            parse_component_arg("engine", "columnar")


FLAGS = [
    "--summary", "bloom:bits_per_element=4",
    "--reconfig", "random:interval=10",
    "--transport", "aimd:beta=0.5,bottleneck_rate=8",
    "--topology", "ring",
    "--catalog", "objects=2",
]


class TestOverridesReachTheSpec:
    def _printed(self, capsys, *argv):
        assert main([*argv, *FLAGS, "--print-spec"]) == 0
        return json.loads(capsys.readouterr().out)

    def _assert_overridden(self, spec):
        assert spec["strategy"]["summary"] == {
            "kind": "bloom", "params": {"bits_per_element": 4}
        }
        assert spec["reconfig"]["policy"] == "random"
        assert spec["reconfig"]["interval"] == 10
        assert spec["transport"]["policy"] == "aimd"
        assert spec["transport"]["params"] == {"beta": 0.5}
        assert spec["transport"]["bottleneck_rate"] == 8
        assert spec["swarm"]["topology"]["kind"] == "ring"
        assert spec["catalog"]["objects"] == 2

    def test_single_run(self, capsys):
        self._assert_overridden(self._printed(capsys, "--scenario", "flash_crowd"))

    def test_campaign_base(self, capsys):
        printed = self._printed(capsys, "--campaign-scenario", "pair_transfer")
        self._assert_overridden(printed["base"])

    def test_malformed_flag_exits_2(self, capsys):
        assert main(["--scenario", "flash_crowd", "--catalog", "foo=1"]) == 2
        assert "unknown key 'foo'" in capsys.readouterr().err


GENERATOR_PARAMS = [
    (kind, param)
    for kind in generator_names()
    for param in sorted(generator_entry(kind).params)
]
BAD_VALUES = ["abc", 1.5, True, 0]


class TestMistypedTopologyParameters:
    @pytest.mark.parametrize(
        "kind,param", GENERATOR_PARAMS, ids=[f"{k}.{p}" for k, p in GENERATOR_PARAMS]
    )
    @pytest.mark.parametrize("value", BAD_VALUES, ids=repr)
    def test_generator_raises_topology_error(self, kind, param, value):
        with pytest.raises(TopologyError, match=param):
            generate(kind, 12, 0, **{param: value})

    @pytest.mark.parametrize(
        "kind,param", GENERATOR_PARAMS, ids=[f"{k}.{p}" for k, p in GENERATOR_PARAMS]
    )
    @pytest.mark.parametrize("value", ["abc", "1.5", "true"])
    def test_cli_exits_2(self, capsys, kind, param, value):
        argv = [
            "--scenario", "scale_free_swarm",
            "--topology", f"{kind}:{param}={value}",
        ]
        assert main(argv) == 2
        assert "topology" in capsys.readouterr().err

    def test_every_generator_parameter_is_covered(self):
        assert {p for _, p in GENERATOR_PARAMS} == {
            "degree", "attach", "clusters", "tiers", "fanout"
        }
