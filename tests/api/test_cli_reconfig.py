"""CLI surface of the adaptive-overlay subsystem.

``--reconfig`` plumbing (single runs and campaigns; parsing is covered
with the other component flags in ``test_cli_components.py``),
``--list`` spec/grid markers, and the gridless ``--campaign-scenario``
refusal.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.api import SpecError, registry
from repro.campaign import small_campaign

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(REPO_ROOT, "src")


def _cli(*args, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.api", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        **kwargs,
    )


class TestReconfigCli:
    def test_print_spec_carries_the_selection(self):
        proc = _cli(
            "--scenario", "flash_crowd",
            "--reconfig", "informed:summary=bloom,interval=10",
            "--print-spec",
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["reconfig"]["policy"] == "informed"
        assert payload["reconfig"]["summary"]["kind"] == "bloom"
        assert payload["reconfig"]["interval"] == 10

    def test_run_reports_control_metrics(self):
        proc = _cli("--scenario", "flash_crowd", "--reconfig", "informed")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["metrics"]["reconfig_control_bytes"] > 0

    def test_bad_reconfig_exits_2(self):
        proc = _cli("--scenario", "flash_crowd", "--reconfig", "psychic")
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    def test_campaign_base_carries_the_selection(self):
        proc = _cli(
            "--campaign-scenario", "adaptive_overlay",
            "--reconfig", "informed:interval=4",
            "--print-spec",
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["base"]["reconfig"]["interval"] == 4


class TestListMarkers:
    def test_list_marks_spec_and_grid_carriers(self):
        proc = _cli("--list")
        assert proc.returncode == 0
        lines = {line.split()[0]: line for line in proc.stdout.splitlines() if line}
        for name in registry.names():
            entry = registry.get(name)
            if entry.small_spec is None:
                expected = "[-"
            elif entry.small_grid is not None:
                expected = "[spec+grid"
            else:
                expected = "[spec"
            assert expected in lines[name], lines[name]

    def test_adaptive_overlay_carries_a_grid(self):
        proc = _cli("--list")
        line = next(
            l for l in proc.stdout.splitlines() if l.startswith("adaptive_overlay")
        )
        assert "spec+grid" in line


class TestGridlessCampaignScenario:
    def test_cli_exits_2_with_a_clear_message(self):
        # flash_crowd registers a miniature spec but no campaign grid.
        assert registry.get("flash_crowd").small_grid is None
        proc = _cli("--campaign-scenario", "flash_crowd")
        assert proc.returncode == 2
        assert "no miniature campaign grid" in proc.stderr
        assert "--campaign" in proc.stderr  # points at the escape hatch

    def test_library_fallback_still_available(self):
        campaign = small_campaign("flash_crowd", seeds=2)
        assert campaign.grid == ()
        with pytest.raises(SpecError, match="no miniature campaign grid"):
            small_campaign("flash_crowd", require_grid=True)
