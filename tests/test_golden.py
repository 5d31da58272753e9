"""Golden outputs: each command's files, stdout, stderr and exit code at small sizes.

tests/golden holds what tests/golden/make_golden.py wrote; its docstring
lists the cases.  A fresh run is compared byte for byte when it ran with the
numpy version and CPU features the golden manifest records.  Elsewhere
numpy's SIMD-dispatched exp and power may move the last bit of a float, so
floats are compared within a relative 1e-12 and everything else exactly; the
.field digests cannot be compared loosely and are then checked by name only.
"""

import json
import re
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"
_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def _close(expected: str, actual: str, rel: float = 1e-12) -> bool:
    """The texts are equal but for floats that differ by at most rel of the larger."""
    if _NUMBER.split(expected) != _NUMBER.split(actual):
        return False
    want, got = _NUMBER.findall(expected), _NUMBER.findall(actual)
    for a, b in zip(want, got):
        if a == b:
            continue
        if not any(c in a + b for c in ".eE"):  # integers compare exactly
            return False
        x, y = float(a), float(b)
        if abs(x - y) > rel * max(abs(x), abs(y)):
            return False
    return True


def test_every_command_reproduces_its_golden_outputs(golden_run):
    out, _ = golden_run
    want = json.loads((GOLDEN / "manifest.json").read_text())
    got = json.loads((out / "manifest.json").read_text())
    exact = got["environment"] == want["environment"]
    assert [c["name"] for c in got["cases"]] == [c["name"] for c in want["cases"]]
    for w, g in zip(want["cases"], got["cases"]):
        name = w["name"]
        assert (g["argv"], g["exit"], g["files"]) == (w["argv"], w["exit"], w["files"]), name
        if exact:
            assert g["stderr"] == w["stderr"], name
            assert g["digests"] == w["digests"], name
        else:
            assert _close(w["stderr"], g["stderr"]), name
            assert g["digests"].keys() == w["digests"].keys(), name
        for f in w["files"]:
            expected, actual = GOLDEN / name / f, out / name / f
            if exact:
                assert actual.read_bytes() == expected.read_bytes(), f"{name}/{f}"
            else:
                assert _close(expected.read_text(), actual.read_text()), f"{name}/{f}"


def test_loose_comparison_forgives_only_the_last_bits_of_floats():
    assert _close('{"a": 0.1, "n": 3}', '{"a": 0.10000000000000002, "n": 3}')
    assert _close("r,1e-08", "r,1.0000000000000001e-08")
    assert not _close('{"a": 0.1}', '{"a": 0.1000000001}')
    assert not _close('{"n": 3}', '{"n": 4}')
    assert not _close('"pass": true', '"pass": false')
    assert not _close("slope,1.0", "slope,1.0\n2.0")
