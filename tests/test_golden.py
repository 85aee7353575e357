"""Reports of fixed `verify` and `search` runs against checked-in copies.

Each configuration is run through the CLI, its report is stripped of
`runtime_ms` and compared byte for byte with `data/golden_reports.json`.
A refactor that must keep the reports unchanged keeps this test passing.
To rewrite the file after an intended report change, run

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import sys
from pathlib import Path

import pytest

from ktrees.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_reports.json"

_SUITES = (
    "jamison-ratio",
    "global-mean-bound",
    "kelmans",
    "partial-kelmans",
    "leaf-dominance",
    "local-mean-reduction",
    "chartree-adjacency",
    "nonmajor-max",
    "end-clique-dominance",
    "double-broom",
)
CONFIGS = [
    *(f"verify --suite {s} --k 1-3 --max-n 7" for s in _SUITES),
    "verify --suite bristled-star --k 2,3 --max-n 7",
    "verify --suite kelmans --max-n 8",
    "verify --suite partial-kelmans --max-n 8",
    "verify --suite jamison-ratio --max-n 10",
    "verify --suite end-clique-dominance --k 2 --max-n 9",
    "verify --suite end-clique-dominance --k 2,3 --max-n 9 --mode random "
    "--trials 30 --seed 4",
    "verify --suite double-broom --max-n 12",
    "search --k 2 --max-n 8",
    "search --k 3 --max-n 8",
    "search --k 2 --max-n 9 --mode random --budget 20 --seed 5",
]


def _dump(report):
    return json.dumps(report, indent=2, sort_keys=True)


def stripped_report(config, out):
    """Run one configuration and return its report without `runtime_ms`."""
    main([*config.split(), "--out", str(out)])
    report = json.loads(Path(out).read_text(encoding="utf-8"))
    report.pop("runtime_ms")
    return report


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_every_config(golden):
    assert sorted(golden) == sorted(CONFIGS)


@pytest.mark.parametrize("config", CONFIGS)
def test_report_matches_golden(config, golden, tmp_path, capsys):
    got = stripped_report(config, tmp_path / "report.json")
    capsys.readouterr()
    assert _dump(got) == _dump(golden[config])


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        reports = {c: stripped_report(c, Path(tmp) / "r.json") for c in CONFIGS}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(_dump(reports) + "\n", encoding="utf-8")
    print(f"wrote {len(reports)} reports to {GOLDEN}", file=sys.stderr)
