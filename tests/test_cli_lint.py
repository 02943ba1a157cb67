"""CLI tests for `repro lint` and the `--sanitize` run flag."""

import os

from repro.cli import main
from repro import hooks as probe

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "lint_bad_chare.py")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "repro")


class TestLintCommand:
    def test_clean_targets_exit_zero(self, capsys):
        assert main(["lint", os.path.join(SRC, "apps")]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_module_name_target(self, capsys):
        assert main(["lint", "repro.apps.stencil3d"]) == 0

    def test_seeded_fixture_exits_nonzero_with_anchor(self, capsys):
        assert main(["lint", FIXTURE]) == 1
        out = capsys.readouterr().out
        assert "REP102" in out
        assert f"{FIXTURE}:25" in out  # file:line anchor

    def test_strict_promotes_warnings(self, tmp_path, capsys):
        target = tmp_path / "warn_only.py"
        target.write_text(
            "class C(Chare):\n"
            "    @entry\n"
            "    def go(self):\n"
            "        yield from self.kernel(flops=1, reads=[self.a],\n"
            "                               writes=[])\n")
        assert main(["lint", str(target)]) == 0
        assert main(["lint", "--strict", str(target)]) == 1
        assert "REP108" in capsys.readouterr().out

    def test_unknown_target_exits_two(self, capsys):
        assert main(["lint", "no.such.module.anywhere"]) == 2
        assert "lint:" in capsys.readouterr().err

    def test_no_targets_exits_two(self, capsys):
        assert main(["lint"]) == 2

    def test_findings_exit_one_not_two(self, capsys):
        # exit codes are a contract: 1 = verdict with findings, 2 = the
        # run itself failed (bad args / internal error)
        assert main(["lint", FIXTURE]) == 1
        assert capsys.readouterr().err == ""

    def test_internal_error_exits_two(self, tmp_path, capsys):
        target = tmp_path / "not_utf8.py"
        target.write_bytes(b"x = 1\n\xff\xfe\x00bad\n")
        assert main(["lint", str(target)]) == 2
        err = capsys.readouterr().err
        assert "lint: internal error" in err

    def test_rules_listing(self, capsys):
        assert main(["lint", "--rules"]) == 0
        out = capsys.readouterr().out
        assert "REP101" in out and "SAN205" in out


class TestSelectAndCrash:
    def test_select_filters_to_prefix(self, capsys):
        # the fixture has REP1xx findings but no REP3xx ones: selecting
        # the bwlint family flips the verdict back to clean
        assert main(["lint", FIXTURE, "--select", "REP3"]) == 0
        out = capsys.readouterr().out
        assert "REP102" not in out
        assert main(["lint", FIXTURE, "--select", "REP1"]) == 1
        assert "REP102" in capsys.readouterr().out

    def test_analyzer_crash_exits_two_naming_site(self, tmp_path,
                                                  monkeypatch, capsys):
        import repro.lint.traffic as traffic_mod

        target = tmp_path / "crashy.py"
        target.write_text(
            "class CrashMe(Chare):\n"
            "    @entry\n"
            "    def setup(self, barrier):\n"
            "        self.a = self.declare_block('a', 1024)\n")
        monkeypatch.setattr(traffic_mod, "_FORCE_CRASH", "CrashMe")
        assert main(["lint", str(target)]) == 2
        err = capsys.readouterr().err
        assert "lint: internal error" in err
        assert "crashy.py" in err and "CrashMe" in err


class TestGuidanceEmission:
    def test_lint_guidance_writes_canonical_file(self, tmp_path, capsys):
        out_path = tmp_path / "guidance.json"
        assert main(["lint", os.path.join(SRC, "apps"),
                     "--guidance", str(out_path)]) == 0
        err = capsys.readouterr().err
        assert "guidance for" in err and "sha256" in err
        from repro.lint.guidance import load_guidance

        guide = load_guidance(out_path)
        assert "StencilChare.grid" in guide.sites

    def test_guide_command_stdout(self, capsys):
        assert main(["guide"]) == 0
        out = capsys.readouterr().out
        assert '"schema"' in out and "StencilChare.grid" in out

    def test_guide_command_output_file_round_trips(self, tmp_path, capsys):
        out_path = tmp_path / "g.json"
        assert main(["guide", "repro.apps", "-o", str(out_path)]) == 0
        from repro.lint.guidance import build_guidance, load_guidance

        import repro.apps
        direct = build_guidance([os.path.dirname(repro.apps.__file__)])
        assert load_guidance(out_path).dumps() == direct.dumps()

    def test_guide_bad_target_exits_two(self, capsys):
        assert main(["guide", "no.such.module.anywhere"]) == 2
        assert "guide:" in capsys.readouterr().err


class TestSanitizeFlag:
    COMMON = ["--cores", "8", "--mcdram", "128MiB", "--ddr", "1GiB"]

    def test_stencil_sanitized_run_is_clean(self, capsys):
        code = main(["stencil", "--sanitize", "--strategy", "multi-io",
                     *self.COMMON, "--total", "256MiB", "--block", "8MiB",
                     "--iterations", "1"])
        assert code == 0
        assert "simsan: 0 violations" in capsys.readouterr().out
        assert probe.on_retain is None  # unsubscribed even on success

    def test_matmul_sanitized_run_is_clean(self, capsys):
        code = main(["matmul", "--sanitize", "--strategy", "single-io",
                     *self.COMMON, "--working-set", "64MiB",
                     "--block-dim", "64"])
        assert code == 0
        assert "simsan: 0 violations" in capsys.readouterr().out

    def test_stream_sanitized(self, capsys):
        assert main(["stream", "--sanitize", "--threads", "8"]) == 0
        assert "simsan: 0 violations" in capsys.readouterr().out

    def test_without_flag_no_observer_is_installed(self, capsys):
        assert main(["stream", "--threads", "8"]) == 0
        assert "simsan" not in capsys.readouterr().out
        assert probe.on_retain is None
