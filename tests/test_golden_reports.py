"""Report bytes pinned across changes.

Each case runs one CLI command at small quadrature and must reproduce the
report committed under tests/data byte for byte, with the same exit code.
Criterion 10 compares two runs of one checkout; these files compare a
checkout against the reports of an earlier one, so a change that is meant
to leave every number alone (a performance change, a refactor) shows here
when it does not.

A change that is meant to move report bytes regenerates the files and says
so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from conestab.cli import main as cli_main
from conestab.trial import battery_descriptors

DATA = Path(__file__).resolve().parent / "data"
QUADRATURE = {"radial_nodes": 16, "angular_nodes": 4, "box_nodes_per_axis": 16,
              "support_radius": 3.0}
FIELDS = [
    {"id": "vertex-a", "kind": "boundary_concentrated", "radius": 0.6, "exponent": 1},
    {"id": "box-b", "kind": "tensor_bump", "center": 1.4, "half_width": 0.6, "exponent": 2},
]
# A tensor field with face kinks, an off-axis field and a field shifted off
# the boundary, at a dimension where the tensor product has four factors.
FIELDS_N4 = [desc for desc in battery_descriptors(20)
             if desc["id"] in ("box-c", "offaxis-a", "deep-a")]
# All four tensor fields: with three or more factors per node, these
# reports move when the order of the tensor product does.
BOXES = [desc for desc in battery_descriptors(20) if desc["kind"] == "tensor_bump"]
# file name -> (command line, config, exit code)
CASES = {
    "variation-n3.json": (["variation", "--n", "3", "--lambda", "0.1"],
                          {"quadrature": QUADRATURE, "trial_functions": FIELDS}, 0),
    "variation-n4.json": (["variation", "--n", "4", "--lambda", "0.3"],
                          {"quadrature": QUADRATURE, "trial_functions": FIELDS_N4}, 0),
    "variation-n4-boxes.json": (["variation", "--n", "4", "--lambda", "0.3"],
                                {"quadrature": QUADRATURE, "trial_functions": BOXES}, 0),
    "sweep-n4.json": (["sweep", "--n", "4"], {"quadrature": QUADRATURE}, 0),
    "sweep-n5.json": (["sweep", "--n", "5"],
                      {"quadrature": QUADRATURE, "trial_functions": battery_descriptors(20)},
                      0),
    "witness-n2.json": (["witness-n2"], {"quadrature": QUADRATURE}, 5),
}


def run_case(name: str, workdir: Path) -> tuple[int, str]:
    """Exit code and stdout of the case's command."""
    args, config, _ = CASES[name]
    path = workdir / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(args + ["--config", str(path)])
    return code, buf.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_committed_bytes(name, tmp_path):
    code, text = run_case(name, tmp_path)
    assert code == CASES[name][2]
    assert text == (DATA / name).read_text(encoding="utf-8")


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            code, text = run_case(name, Path(tmp))
            (DATA / name).write_text(text, encoding="utf-8")
            print(f"{name}: exit {code}", file=sys.stderr)
