"""tools/same_outputs.py's handling of its arguments."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def same_outputs(monkeypatch):
    spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)

    def run_side(src, run_dir, ckpt=None):  # the same one output file on either side
        run_dir.mkdir(parents=True)
        (run_dir / "out.txt").write_text("same\n")

    monkeypatch.setattr(mod, "run_side", run_side)
    return mod


def test_missing_work_dir_is_created(same_outputs, tmp_path):
    work = tmp_path / "not" / "yet"
    src = str(ROOT / "src")
    assert same_outputs.main([src, src, "--work", str(work)]) == 0
    assert work.is_dir()


def test_unusable_work_dir_exits_2(same_outputs, tmp_path, capsys):
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    src = str(ROOT / "src")
    with pytest.raises(SystemExit) as exit_info:
        same_outputs.main([src, src, "--work", str(blocker / "sub")])
    assert exit_info.value.code == 2
    assert "cannot use --work" in capsys.readouterr().err
