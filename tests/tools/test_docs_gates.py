"""Tests for the docs CI gates (link checker + docstring-presence checker).

These keep ``tools/check_docs.py`` and ``tools/check_docstrings.py`` honest:
the committed documentation must pass both, and each gate must actually
fail when given an offender (a gate that cannot fail guards nothing).
"""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).parent.parent.parent
TOOLS = REPO_ROOT / "tools"


def run_tool(script, *args):
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, str(TOOLS / script), *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
    )


class TestDocsLinkGate:
    def test_committed_docs_pass(self):
        result = run_tool("check_docs.py")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "README.md" not in result.stdout  # no offenders listed

    def test_docs_directory_is_covered(self):
        result = run_tool("check_docs.py")
        # README + architecture + backends + cli + diff + experiments
        # + slack-policies + faults + scale.
        assert "9 file(s)" in result.stdout

    def test_broken_relative_link_fails(self, tmp_path):
        offender = tmp_path / "bad.md"
        offender.write_text("see [missing](does-not-exist.md)\n")
        result = run_tool("check_docs.py", str(offender))
        assert result.returncode == 1
        assert "does-not-exist.md" in result.stdout

    def test_external_links_and_anchors_are_skipped(self, tmp_path):
        page = tmp_path / "ok.md"
        page.write_text(
            "[web](https://example.com) [mail](mailto:a@b.c) [anchor](#here)\n"
        )
        result = run_tool("check_docs.py", str(page))
        assert result.returncode == 0, result.stdout

    def test_stale_repro_name_fails_and_fenced_names_are_skipped(self, tmp_path):
        page = tmp_path / "names.md"
        page.write_text(
            "`repro.bench.harness.rows_digest` and `repro.sim.compiled._memo` resolve;\n"
            "```python\nrepro.fenced.never_checked\n`repro.fenced.never_checked`\n```\n"
            "`repro.bench.rows_digest` moved, and `repro.no_such_module` never was.\n"
        )
        result = run_tool("check_docs.py", str(page))
        assert result.returncode == 1
        assert f"{page}:6: `repro.bench.rows_digest` does not resolve" in result.stdout
        assert f"{page}:6: `repro.no_such_module` does not resolve" in result.stdout
        assert "fenced" not in result.stdout and "harness" not in result.stdout

    def test_stale_repro_name_in_a_source_docstring_fails(self, tmp_path):
        module = tmp_path / "module.py"
        module.write_text(
            '"""See ``repro.core.replay.replay_schedule`` and\n'
            ':func:`~repro.pipeline.experiment.cached_schedule`; `repro.single` is prose.\n'
            'Stale: :func:`~repro.pipeline.experiment.build_live_slack_policy`,\n'
            '``repro.faults.FaultInjector`` and [a](no-link-check-here).\n"""\n'
        )
        result = run_tool("check_docs.py", str(module))
        assert result.returncode == 1
        stale = [line for line in result.stdout.splitlines() if "does not resolve" in line]
        assert stale == [
            f"{module}:3: `repro.pipeline.experiment.build_live_slack_policy` does not resolve",
            f"{module}:4: `repro.faults.FaultInjector` does not resolve",
        ]
        assert "broken relative link" not in result.stdout

    def test_source_modules_are_covered(self):
        result = run_tool("check_docs.py")
        modules = len(list((REPO_ROOT / "src" / "repro").rglob("*.py")))
        assert f"{modules} source module(s)" in result.stdout


class TestDocstringGate:
    def test_documented_packages_pass(self):
        result = run_tool("check_docstrings.py")
        assert result.returncode == 0, result.stdout + result.stderr

    def test_default_coverage_includes_traffic_and_experiments(self):
        """The gate's default module set was widened to repro.traffic and
        repro.experiments; CI relies on the default, so the default must
        keep covering them."""
        result = run_tool("check_docstrings.py")
        assert "repro.traffic" in result.stdout
        assert "repro.experiments" in result.stdout
        assert "repro.diff" in result.stdout
        # The OO engine's hot-path modules sit under the gate too.
        assert "repro.sim" in result.stdout
        assert "repro.transport" in result.stdout

    def test_missing_docstring_fails(self, tmp_path):
        package = tmp_path / "fakepkg"
        package.mkdir()
        (package / "__init__.py").write_text(
            '"""A package."""\n\ndef undocumented():\n    return 1\n'
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(tmp_path) + os.pathsep + str(REPO_ROOT / "src")
        result = subprocess.run(
            [sys.executable, str(TOOLS / "check_docstrings.py"), "fakepkg"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 1
        assert "fakepkg.undocumented" in result.stdout
