"""``repro serve`` CLI: exit codes and report byte-identity.

Exit-code contract: 0 when the run saw no leaks, 1 when any request
leaked (undefended or unpatched vulnerability), 2 on usage errors —
matching argparse's own convention.
"""

import json

import pytest

from repro.ccencoding import Strategy
from repro.core.instrument import instrument
from repro.patch import config as patch_config
from repro.cli import main
from repro.serving.services import nginx_body_patch
from repro.workloads.services.nginx import NginxServer

#: Small-but-multi-batch CLI run shape.
ARGS = ["--requests", "60", "--batch-size", "20"]


@pytest.fixture(scope="module")
def patch_file(tmp_path_factory):
    program = NginxServer()
    codec = instrument(program,
                       strategy=Strategy.from_name("incremental")).codec
    text = patch_config.dumps([nginx_body_patch(program, codec)])
    path = tmp_path_factory.mktemp("patches") / "nginx.patches"
    path.write_text(text)
    return str(path)


class TestExitCodes:
    def test_clean_run_exits_zero(self, capsys):
        assert main(["serve"] + ARGS) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["outcomes"] == {"ok": 60}

    def test_unpatched_attack_exits_one(self, capsys):
        assert main(["serve"] + ARGS + ["--attack-every", "25"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["outcomes"]["leak"] == 2

    def test_patched_attack_exits_zero(self, capsys, patch_file):
        assert main(["serve"] + ARGS + ["--attack-every", "25",
                                        "--patches", patch_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["outcomes"]["blocked"] == 2
        assert "leak" not in report["outcomes"]

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--batch-size", "0"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("flag,value", [("--requests", "-5"),
                                            ("--attack-every", "-3")])
    def test_negative_count_exits_two(self, flag, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--requests", "12", "--batch-size", "4",
                  flag, value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "must be >= 0" in err

    def test_unreadable_patches_file_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--patches", str(tmp_path / "missing.cfg")])
        assert excinfo.value.code == 2

    def test_attack_on_mysql_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--service", "mysql", "--attack-every", "10"])
        assert excinfo.value.code == 2


class TestReportOutput:
    def test_json_flag_writes_report_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["serve"] + ARGS + ["--json", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["schema"].startswith("repro/serving-report/")
        # The report itself went to the file, not stdout; stderr keeps
        # the wall-clock telemetry line.
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "req/s wall" in captured.err

    def test_reports_byte_identical_modulo_workers(self, tmp_path):
        texts = []
        for workers in ("1", "2"):
            out = tmp_path / f"report-{workers}.json"
            assert main(["serve"] + ARGS + ["--workers", workers,
                                            "--json", str(out)]) == 0
            texts.append(out.read_text())
        docs = [json.loads(text) for text in texts]
        assert [doc.pop("workers") for doc in docs] == [1, 2]
        assert docs[0] == docs[1]
        # Byte-level: the serialized reports differ only on the workers
        # line.
        diff = [(a, b) for a, b in zip(texts[0].splitlines(),
                                       texts[1].splitlines()) if a != b]
        assert diff == [('  "workers": 1', '  "workers": 2')]
