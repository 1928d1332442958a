"""Stored sha256 hashes of run_benchmark's artifacts, the parameter
dumps and the landscape grids.

The hashes pin the bundled optimizers' exact trajectories (the snapshot
files hold every reported individual and its fitness at full precision),
the scoring written from them, and the dynamics.  A changed hash is a change in
behaviour: name it and its reason in CHANGES.md, never regenerate it
silently.
"""

import hashlib
import os

import numpy as np
import pytest

from dmmobench.config import BenchmarkSettings
from dmmobench.controller import dump_environments_text
from dmmobench.core import DOMAIN_HIGH, DOMAIN_LOW, PROBLEM_INDICES
from dmmobench.optimizers import OPTIMIZERS
from dmmobench.reporting import (export_landscape_grid, rescore_snapshots,
                                 run_benchmark)

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


# -- dynamics dumps and landscape grids ---------------------------------------

DUMP_SEEDS = (1, 2)

#: sha256 of dump_environments_text under the default settings
#: (60 environments), keyed "<problem>/<seed>".
DUMPS = {
    "P1/1": "9e62f42c490f148f07fbc087904f37bba77ac9de4c25c8ff9d2b33672cb1bba2",
    "P1/2": "b39c8194571b5b1df728e82a397a07320e8af0772fdf8c61ea470bd225f931bd",
    "P2/1": "7ed43b3df6c5c17a9e81effa4add60fb02f925bfe6484a79a60fa4887500ae61",
    "P2/2": "a722679038248bb0ff1d1535e2bef6567e06451fb0f39811c53f42bf0c7d6540",
    "P3/1": "f7c909b22d58844056b79cfe344f5df0e3b008d244afff08070ac7532d6d2cdc",
    "P3/2": "6a6b1d9a1fa6b90fbf275c446c34bfeed27d1bdf5f1b4cf25cddf4091e6b0b63",
    "P4/1": "859944de4feb3b1997dd1c944eaea315ba596765f126c2fda29ab64dec352e09",
    "P4/2": "d0ce26d4c8dcb1a45c73707695ec78908da3199631d038888e304b4bacc2161b",
    "P5/1": "658af300d49417073e0c492168db00352dd304907648c843c4a729d536094644",
    "P5/2": "25f85941ad0f8b70cad55b9e2196cb028900addf8359b94905a1aad05065376f",
    "P6/1": "0baa7d5ecef963cda3184ae831461bcc214e1c2797b858deb8a20a58f4722209",
    "P6/2": "172fa7c1b84bfb6f1e4b2d6a52f3e952ab11d28c9b8b982cef9330d8f669394f",
    "P7/1": "a286ed26c2dae302ac0c326f6248022b425049ddde57117fa3a8d2c66263a564",
    "P7/2": "330cd9fa16766ce2ed07e93a5bdc53a9356f21665104f46f9eb5d3be0f335dd8",
    "P8/1": "bdd50dee6338fa6ca4ac4504431a2b43547bc8a2f188295d70ab2416be9b98e0",
    "P8/2": "54c1e2212e61c3a8a34bc2580338473767a522f0917f40266b778f48af08fd17",
    "P9/1": "c3ab32518c0a7912e350f7cbcfb76beacdcbe9e7f26de13c437d354db42d5810",
    "P9/2": "a366d93b6578b24bee90e8b91fbe48c2c9ace000d82a73060d79d19b8e7d5b03",
    "P10/1": "47a7ecfb224ac5cc0c527aaa09e459a74d11ae8deb29d049ca4f3ab82cbd7c53",
    "P10/2": "b5dcd456b1ce2cfe34ed101bccae9c2cb46dd88dd170dcc809cfeb28a7dc75f4",
    "P11/1": "2cb557b4d22d936cce94a988d95cbde490ffdf4f67a118daabeb5aa84f929c1f",
    "P11/2": "b98a94db177ec97380a9f0d4f1abd5ecace3ce7b1d102484c3522c404b48c2d4",
    "P12/1": "ab0c6b9c9e0e1ac4068c391b4ab54f2d4c35a348f0fcdbae1f55f542455c26fa",
    "P12/2": "96e07df16f77d5cee16619d39181c65e2d78f9cceaea5829b4b62f159fde5303",
    "P13/1": "5cca6b4ac8ffa21cd8446976a8be7a99aaf87c9466dbf40aa03d8af76de3ed86",
    "P13/2": "87845978d3439404c28ea95fff80e34147dbb36d1988348132c70dbae15cced2",
    "P14/1": "cf1a2d2c9c64c4d5421508d27cd65eca341aa334c974abdc9a57f2462caccdb2",
    "P14/2": "cdb6770c7ea5d88bcd3f15928b5989ab1aaac34590972838b8d33b32be98dd62",
    "P15/1": "4079aa7346aea5071b02040a5e333edc290e6bc76fd921d8b1f8513cdeec6c8a",
    "P15/2": "4f2268bbadc3eb71bd7fd575bcc7e5a87e75b7a4da78b7d6663f583f9d38bb2b",
    "P16/1": "27d1fc11f120056bff2353edc5818fcfdf816c57be91e54089641a8911bb13bb",
    "P16/2": "ae0c43a8b86c5487fd5b87442e70919fc6b604b2b15db3c3499c7d8886a6e8d6",
    "P17/1": "9b5a58a04910eaae45cd285e2d330fdf21c97cd5781edc8311e3e428fc6f8839",
    "P17/2": "6bab8369966db78e1254e6c48ea401eee46bd42dd8aec34124351a958fc35812",
    "P18/1": "65a993495e8b6eef3cf11d14e98a9344085986f88ff7d51ac802574a64a86494",
    "P18/2": "6b4b3c99fd42ec6e73e94b8bf8a878d909c5af8581e9eaeb334da490f2552dd6",
    "P19/1": "9ba519cd75f3eecab08b32d65c3b2a38e2d2f3d09bcf73d6c681804eb644b0e3",
    "P19/2": "a117f66ac1a21f072dfa0723d5722d7e10bfa211e26c4422ffc36fb607d253d3",
    "P20/1": "56a87be66507d72d3514758241b6da3b505e4436feb3ab31d91c4f02a7179f11",
    "P20/2": "643a74274c2123dadd89bc78b8a8e5368e86f37c9e055c943d321f431c28f4fa",
    "P21/1": "c76e500ef629ee29851c3f50c79b4afb3ae2a58fe07f8043a390d2c3ce934027",
    "P21/2": "a38160f3dca90d91af838abc16f5f9e08096cac08c6af739e71762017d01c815",
    "P22/1": "16c5dc07f6465e44de85af8361da5f560f6fccb9c23be0ce0fc8266df0d26a9c",
    "P22/2": "d2adb5cf1e861299dd706ff7fd9b18eff2247426c4fa188d206f5f16e204e7cc",
    "P23/1": "06585ab4ac830857e21176598bc6e48dde00b05b6336b54b4ae4f7fea5ab44cb",
    "P23/2": "b81ee4deb51e6edc72be5769c93d6f501655dc17d9538dca905ab35c2b2d8186",
    "P24/1": "d6fc4a2a70621258e8e1113a33daacb6e2b811faab667b88827b3500555f7390",
    "P24/2": "8839e24199aec537e6112e1971f69ac56204a71107c40d0573a60d2073300642",
}

#: sha256 of export_landscape_grid at dim_override=2, env 3, resolution 21.
GRIDS = {
    "P1": "27c3fbcf9679ebed1838d7962a423d9b9c552bd4417c6afc9e8acc0081d6db60",
    "P5": "0e6110fa9bdd75301ebbcd37d7d14829021b2d3ec84f825552dcee768138d380",
}


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_dumps_match_stored_hashes():
    digests = {f"{problem}/{seed}": _sha(dump_environments_text(problem, seed))
               for problem in PROBLEM_INDICES for seed in DUMP_SEEDS}
    assert digests == DUMPS


def test_grids_match_stored_hashes():
    digests = {problem: _sha(export_landscape_grid(
                   problem, 1, env=3, resolution=21, dim_override=2))
               for problem in GRIDS}
    assert digests == GRIDS


# -- non-zero peak counts ------------------------------------------------------

#: Distance of each reported point from its optimum, cycled over the
#: optima: from exact to outside the distance accuracy, so that the found
#: counts differ between the accuracy levels.
ORACLE_OFFSETS = (0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1)


class Oracle:
    """Reports every optimum of each environment, displaced by a known
    offset, then spends the environment's budget at the origin."""

    name = "oracle"

    def __init__(self, config=None):
        pass

    def optimize(self, instance, rng):
        dim = instance.spec.dimension
        direction = np.ones(dim) / np.sqrt(dim)
        while not instance.frozen:
            positions, _ = instance.ground_truth(instance.t)
            offsets = np.resize(ORACLE_OFFSETS, len(positions))
            instance.report_population(np.clip(
                positions + offsets[:, None] * direction,
                DOMAIN_LOW, DOMAIN_HIGH))
            instance.evaluate_many(np.zeros((instance.remaining_budget(), dim)))
        return instance.snapshots


#: F1 and F2 at D=5 and D=10, F5 and F8 at D=5.
ORACLE_PROBLEMS = ("P1", "P2", "P5", "P8", "P17", "P18")

ORACLE = {
    "results.csv": "06d61ab65d848b6c26230752c2a348537240aea4084b2d44b6ac4f487a8976fc",
    "results.txt": "73ab3b1d7e523d6be253ffc27c3a97627ad57e66f7220985c3df746d5bbcb94a",
    "records_P1.csv": "6d659470d7e5049ad652df14f64e3385f637943f57ce0637cbed7bf267ec070c",
    "records_P2.csv": "11d3974db4dfe467f8ef75dd25f7b75e780cdc625542bfbafaceab94d52e22e0",
    "records_P5.csv": "7a9df7280959b140bcf9171b9ff32bac787c639e075e77cd5014cbf780fa68b8",
    "records_P8.csv": "2c4e43791b5c1679bbb82265fab9a6343a6d6d5661172011138ba9791a22e3b2",
    "records_P17.csv": "474c31121f30bc9591ff3237b443c9daac78bdcec2bb112ce69cad742b4d4dc0",
    "records_P18.csv": "11d3974db4dfe467f8ef75dd25f7b75e780cdc625542bfbafaceab94d52e22e0",
}


def test_oracle_scores_match_stored_hashes(tmp_path, monkeypatch):
    monkeypatch.setitem(OPTIMIZERS, Oracle.name, Oracle)
    report = run_benchmark(ORACLE_PROBLEMS, [1, 2], Oracle.name, SETTINGS,
                           out_dir=str(tmp_path), save_snapshots=True)
    assert report.failures == []
    digests = {name: digest for name, digest in _hashes(tmp_path).items()
               if not name.startswith("snapshots_")}
    assert digests == ORACLE
    rescored = rescore_snapshots(str(tmp_path), SETTINGS)
    assert rescored.table.render() == report.table.render()
