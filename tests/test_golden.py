"""The CLI's result files match the golden set in tests/golden/ byte for
byte, and each case exits with its recorded code."""

import importlib.util
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"


def _regenerate_module():
    spec = importlib.util.spec_from_file_location(
        "golden_regenerate", GOLDEN / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_result_files_match_the_golden_set(tmp_path):
    regenerate = _regenerate_module()
    regenerate.generate(tmp_path)
    want = regenerate.golden_files(GOLDEN)
    got = regenerate.golden_files(tmp_path)
    assert sorted(got) == sorted(want)
    changed = [rel for rel in want
               if got[rel].read_bytes() != want[rel].read_bytes()]
    assert not changed, (
        "result files differ from tests/golden (run "
        "tests/golden/regenerate.py for the report):\n"
        + "\n".join(regenerate.report(GOLDEN, tmp_path)))
