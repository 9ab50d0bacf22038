"""The desk-scale trainings of the acceptance suite, pinned.

``tests/data/desk_histories.json`` holds, for every acceptance seed and every
``(init_mode, bias_mode)`` pair that an experiment evaluates, the per-epoch
training history with each float as ``float.hex``.  A change of the training
stack (summation order, a worker pool) must reproduce them.  Floats are
compared at ``rtol = 1e-11``, the tolerance of ``bench/reference_train.json``,
because another BLAS may sum in another order.  The test reads the session
memo ``desk_models``, so after the acceptance suite it trains nothing.
Regenerate the file only when a change of the training results is intended:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_desk_histories.py
"""

import json
import pathlib

import pytest

from fdl.experiments import MODELS, train_models

from test_acceptance import DESK_SEEDS, desk_config

GOLDEN = pathlib.Path(__file__).parent / "data" / "desk_histories.json"
PAIRS = tuple(dict.fromkeys(pair for pairs in MODELS.values() for pair in pairs))
RTOL = 1e-11


def histories(trained=None):
    """``{seed: {"init_mode/bias_mode": epoch rows}}`` of every desk model."""
    out = {}
    for seed in DESK_SEEDS:
        models = train_models(desk_config(seed), PAIRS, trained)
        out[str(seed)] = {f"{i}/{b}": history.epochs for (i, b), (_, history) in models.items()}
    return out


@pytest.mark.slow
def test_desk_histories_match_golden(desk_models):
    golden = json.loads(GOLDEN.read_text())
    got = histories(desk_models)
    assert sorted(got) == sorted(golden)
    worst, where = 0.0, "-"
    for seed, runs in golden.items():
        assert sorted(got[seed]) == sorted(runs), seed
        for key, rows in runs.items():
            assert len(got[seed][key]) == len(rows), (seed, key)
            for have, want in zip(got[seed][key], rows):
                assert have.keys() == want.keys(), (seed, key)
                for field, value in want.items():
                    if not isinstance(value, str):
                        assert have[field] == value, (seed, key, field)
                        continue
                    value = float.fromhex(value)
                    rel = abs(have[field] - value) / max(abs(value), 1e-12)
                    if rel > worst:
                        worst, where = rel, f"seed {seed} {key} epoch {have['epoch']} {field}"
    print(f"desk histories: largest relative deviation {worst:.3g} at {where} (rtol {RTOL:g})")
    assert worst <= RTOL, where


if __name__ == "__main__":
    hexed = {
        seed: {
            key: [{k: v.hex() if isinstance(v, float) else v for k, v in row.items()} for row in rows]
            for key, rows in runs.items()
        }
        for seed, runs in histories().items()
    }
    GOLDEN.write_text(json.dumps(hexed, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, hexed.values()))} histories to {GOLDEN}")
