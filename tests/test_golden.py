"""Golden outputs: the report and table files of fixed runs do not move.

Each case of ``golden.regenerate.CASES`` is run afresh and its files are
compared with those kept under ``tests/golden/``. A change that moves a
number regenerates them (see ``golden/regenerate.py``) in the same commit.

The comparison rule:

* ``.txt`` files are compared byte for byte;
* in ``.json`` and ``.csv`` files every string, integer, boolean and
  null is compared exactly, and so is the layout (keys, their order,
  list and row lengths);
* every float is compared within a relative ``FLOAT_RTOL`` = 1e-10 (a
  NaN matches only a NaN, an infinity only itself). The reason: OpenBLAS
  chooses its dot and matrix-product kernels by CPU and by version, so
  the order of summation, and with it the last bits of a sum, may differ
  on another machine or in CI's oldest-numpy job. Carried through the
  Newton solves and the tail probabilities such differences stay far
  below 1e-10 relative; a changed formula, scan or stopping rule moves
  some float by more, or an iteration count, a label or the text.
"""

from __future__ import annotations

import csv
import io
import json
import math

import pytest

from golden.regenerate import CASES, GOLDEN_DIR, run_case, write_inputs

FLOAT_RTOL = 1e-10


def _parse_cell(cell: str):
    """A CSV cell as an int, a float or the text itself."""
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return cell


def _float_matches(actual: float, expected: float) -> bool:
    if math.isnan(expected):
        return math.isnan(actual)
    return math.isclose(actual, expected, rel_tol=FLOAT_RTOL, abs_tol=0.0)


def _mismatches(actual, expected, where: str) -> list[str]:
    """Where ``actual`` breaks the comparison rule against ``expected``."""
    if isinstance(expected, float) and type(actual) is float:
        return [] if _float_matches(actual, expected) else [
            f"{where}: {actual!r} != {expected!r}"]
    if type(actual) is not type(expected):
        return [f"{where}: {actual!r} != {expected!r} (type)"]
    if isinstance(expected, dict):
        if list(actual) != list(expected):
            return [f"{where}: keys {list(actual)} != {list(expected)}"]
        return [m for key in expected
                for m in _mismatches(actual[key], expected[key], f"{where}.{key}")]
    if isinstance(expected, list):
        if len(actual) != len(expected):
            return [f"{where}: length {len(actual)} != {len(expected)}"]
        return [m for i, (a, e) in enumerate(zip(actual, expected))
                for m in _mismatches(a, e, f"{where}[{i}]")]
    return [] if actual == expected else [f"{where}: {actual!r} != {expected!r}"]


def _load(path):
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return json.loads(text)
    if path.suffix == ".csv":
        rows = csv.reader(io.StringIO(text, newline=""))
        return [[_parse_cell(cell) for cell in row] for row in rows]
    return text


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden_inputs")
    write_inputs(directory)
    return directory


@pytest.mark.parametrize("name", list(CASES))
def test_outputs_match_the_golden_files(name, inputs, tmp_path):
    run_case(name, inputs, tmp_path)
    for file in CASES[name][1]:
        actual, expected = tmp_path / file, GOLDEN_DIR / name / file
        if expected.suffix == ".txt":
            assert actual.read_bytes() == expected.read_bytes(), f"{name}/{file}"
        else:
            assert _mismatches(_load(actual), _load(expected), f"{name}/{file}") == []
