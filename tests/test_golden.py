"""Stored sha256 hashes of run_benchmark's artifacts.

The hashes pin the bundled optimizers' exact trajectories (the snapshot
files hold every reported individual and its fitness at full precision)
and the scoring written from them.  A changed hash is a change in
behaviour: name it and its reason in CHANGES.md, never regenerate it
silently.
"""

import hashlib
import os

import pytest

from dmmobench.config import BenchmarkSettings
from dmmobench.reporting import run_benchmark

#: F1 and F5 at D=5, F8 under C1 (P9), and F1 and F5 at D=10.
PROBLEMS = ("P1", "P5", "P9", "P17", "P21")

SETTINGS = BenchmarkSettings(evals_per_dim=50, environments=5)

#: At this budget no run finds a peak at any accuracy level, so the
#: score files agree between the optimizers; the snapshots differ.
SCORES = {
    "records_P1.csv": "38172a64ef677980f091645a773d657b489c3ca46a1a2205dfa4aa1fe9dcb8af",
    "records_P5.csv": "2d35b04fa506a961c70919c0948fab5f32e462d9c4ba9f4911f82c0d15b0a27e",
    "records_P9.csv": "848bf5e7c5f1884366d43525c93a1a23c605788edcccfb76eb81f86e859f2ff3",
    "records_P17.csv": "38172a64ef677980f091645a773d657b489c3ca46a1a2205dfa4aa1fe9dcb8af",
    "records_P21.csv": "2d35b04fa506a961c70919c0948fab5f32e462d9c4ba9f4911f82c0d15b0a27e",
    "results.csv": "9d244cc4349e4c2e72c4411630ffc8ef1e0176d47854b3e0c0d0e0c7a64da75c",
    "results.txt": "57b884a7cadca0a7d56305658cbad2c125079bbe58be713f43d82c70deea4116",
}

GOLDEN = {
    "baseline": {
        **SCORES,
        "snapshots_P1_seed1.txt": "f4e743d17bd0a88cb49d912142509df22ebd1f5899d126221fe3852eceb1d054",
        "snapshots_P5_seed1.txt": "8f6f4e1790ed6648c52cd1db57da5d9580bc4ea04ec8ae006b5d4fcb34ff4e7c",
        "snapshots_P9_seed1.txt": "01aab327b843967156d9565fea9f581d43b371bb0142b0fb27ab3b9020113c62",
        "snapshots_P17_seed1.txt": "fd73f3b07e0f3ffe4113866443d08cf25087b914d56d33689947ff0cb4673c9f",
        "snapshots_P21_seed1.txt": "a5284e1b1f6f42cddb0e2d0c06237a4ebfc2f2401bdf4e491f901928519ae1e4",
    },
    "random": {
        **SCORES,
        "snapshots_P1_seed1.txt": "11feeaedfe3ae65bc0e9a51a0128a7014e90d2faa70f50be617d7698a8b07b05",
        "snapshots_P5_seed1.txt": "794c0fe87438a7bd154789050db4d225299a843ecdb4f25f1bf34e7bf4338501",
        "snapshots_P9_seed1.txt": "334d41af1289512db78e2646900f3c535f4846db3513f736cdf443902002a2ee",
        "snapshots_P17_seed1.txt": "565b4a6b51ea7b1b81de1b045063945317d20e7d5b5136fbb3e90367a04a3701",
        "snapshots_P21_seed1.txt": "872b6a2d1cd59a6408a30fc5db98dd9cf54e90a3ae3508121f794661b8d3ffd4",
    },
}


def _hashes(out_dir):
    digests = {}
    for name in os.listdir(out_dir):
        with open(os.path.join(out_dir, name), "rb") as handle:
            digests[name] = hashlib.sha256(handle.read()).hexdigest()
    return digests


@pytest.mark.parametrize("optimizer", sorted(GOLDEN))
def test_artifacts_match_stored_hashes(optimizer, tmp_path):
    report = run_benchmark(PROBLEMS, [1], optimizer, SETTINGS,
                           out_dir=str(tmp_path), save_snapshots=True)
    assert report.failures == []
    assert _hashes(tmp_path) == GOLDEN[optimizer]
