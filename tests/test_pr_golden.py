"""``pr_analyze`` pinned on a pool of 126 specs.

``tests/data/pr_reports.json`` holds, for every spec of :func:`pool`, either
its report or the ``ConfigError`` message it raises.  A refactor of the
analyzer must reproduce both.  Floats are compared at ``rtol = atol =
1e-12``, because another BLAS may sum in another order.  Regenerate the
file only when a change of the reports is intended:

    PYTHONPATH=src python tests/test_pr_golden.py
"""

import importlib.resources as ir
import json
import pathlib

import numpy as np

from fdl.analysis import pr_analyze
from fdl.errors import ConfigError
from fdl.network import (
    build_lwfsn,
    build_red,
    build_rlwfsn,
    build_toy_spec,
    build_unet,
    spec_from_json,
)

GOLDEN = pathlib.Path(__file__).parent / "data" / "pr_reports.json"
WIDTHS = (2, 4, 8, 16, 32, 64, 128)
# (c0, c1) of the two-width families; the last three cannot be instantiated
PAIRS = tuple((c0, c1) for c0 in WIDTHS for c1 in WIDTHS if c1 in (2 * c0, 4 * c0)) + (
    (2, 128), (4, 4), (8, 4), (16, 8),
)
TOY_WIDTHS = ((2, 4, 8), (6, 12, 24), (8, 16, 32))
FLOATS = ("gain_dc", "gain_nyquist", "max_recon_err")


def pool():
    """``(id, spec)`` of every pinned spec."""
    for name in ("lwfsn", "red", "rlwfsn", "toy", "unet"):
        path = ir.files("fdl") / "specs" / f"{name}.json"
        yield f"bundled:{name}", spec_from_json(json.loads(path.read_text()))
    for n_f in (3, 5):
        for c0, c1 in PAIRS:
            yield f"unet({c0},{c1},n_f={n_f})", build_unet(c0, c1, n_f)
            yield f"unet-residual({c0},{c1},n_f={n_f})", build_unet(c0, c1, n_f, residual=True)
            yield f"red({c0},{c1},n_f={n_f})", build_red(c0, c1, n_f)
        for c0 in WIDTHS:
            yield f"lwfsn({c0},n_f={n_f})", build_lwfsn(c0, n_f)
            yield f"rlwfsn({c0},n_f={n_f})", build_rlwfsn(c0, n_f)
    for widths in TOY_WIDTHS:
        yield f"toy{widths}", build_toy_spec(widths)


def report_of(spec) -> dict:
    try:
        report = pr_analyze(spec).to_json()
    except ConfigError as exc:
        return {"error": str(exc)}
    del report["name"]
    return report


def test_reports_match_golden():
    golden = json.loads(GOLDEN.read_text())
    got = {key: report_of(spec) for key, spec in pool()}
    assert len(got) == 126 and sorted(got) == sorted(golden)
    for key, want in golden.items():
        have = got[key]
        assert have.keys() == want.keys(), key
        if "error" in want:
            assert have["error"] == want["error"], key
            continue
        assert have["is_perfect"] is want["is_perfect"], key
        for field in FLOATS:
            np.testing.assert_allclose(have[field], want[field], rtol=1e-12, atol=1e-12, err_msg=key)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    reports = {key: report_of(spec) for key, spec in pool()}
    GOLDEN.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reports)} reports to {GOLDEN}")
