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

from dmmobench import dynamics
from dmmobench.composition import init_composition
from dmmobench.config import BenchmarkSettings
from dmmobench.controller import (create_problem, dump_environments_text,
                                  format_environment)
from dmmobench.core import (CHANGE_MODES, CONE_FAMILIES, DOMAIN_HIGH,
                            DOMAIN_LOW, PROBLEM_INDICES, RngStream)
from dmmobench.df import init_df
from dmmobench.dynamics import advance_environment, init_change_state
from dmmobench.optimizers import OPTIMIZERS, make_optimizer
from dmmobench.reporting import (export_landscape_grid, render_snapshots,
                                 rescore_snapshots, run_benchmark)

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


#: The other 19 problems, so that every family, change mode and dimension
#: of the table is pinned through the same artifacts.
REST = tuple(p for p in PROBLEM_INDICES if p not in PROBLEMS)

REST_SCORES = {
    "records_P2.csv": "38172a64ef677980f091645a773d657b489c3ca46a1a2205dfa4aa1fe9dcb8af",
    "records_P3.csv": "38172a64ef677980f091645a773d657b489c3ca46a1a2205dfa4aa1fe9dcb8af",
    "records_P4.csv": "38172a64ef677980f091645a773d657b489c3ca46a1a2205dfa4aa1fe9dcb8af",
    "records_P6.csv": "848bf5e7c5f1884366d43525c93a1a23c605788edcccfb76eb81f86e859f2ff3",
    "records_P7.csv": "2d35b04fa506a961c70919c0948fab5f32e462d9c4ba9f4911f82c0d15b0a27e",
    "records_P8.csv": "848bf5e7c5f1884366d43525c93a1a23c605788edcccfb76eb81f86e859f2ff3",
    "records_P10.csv": "848bf5e7c5f1884366d43525c93a1a23c605788edcccfb76eb81f86e859f2ff3",
    "records_P11.csv": "848bf5e7c5f1884366d43525c93a1a23c605788edcccfb76eb81f86e859f2ff3",
    "records_P12.csv": "848bf5e7c5f1884366d43525c93a1a23c605788edcccfb76eb81f86e859f2ff3",
    "records_P13.csv": "848bf5e7c5f1884366d43525c93a1a23c605788edcccfb76eb81f86e859f2ff3",
    "records_P14.csv": "848bf5e7c5f1884366d43525c93a1a23c605788edcccfb76eb81f86e859f2ff3",
    "records_P15.csv": "5457da9076b23d3d164fde200d9bb35381a6f8b3fed104a095c7c6ee958eedb1",
    "records_P16.csv": "ececfd5b975952c9a9dbbccd82cdb3494c817ba2f1933ffc3673a069a606eee0",
    "records_P18.csv": "38172a64ef677980f091645a773d657b489c3ca46a1a2205dfa4aa1fe9dcb8af",
    "records_P19.csv": "38172a64ef677980f091645a773d657b489c3ca46a1a2205dfa4aa1fe9dcb8af",
    "records_P20.csv": "38172a64ef677980f091645a773d657b489c3ca46a1a2205dfa4aa1fe9dcb8af",
    "records_P22.csv": "848bf5e7c5f1884366d43525c93a1a23c605788edcccfb76eb81f86e859f2ff3",
    "records_P23.csv": "2d35b04fa506a961c70919c0948fab5f32e462d9c4ba9f4911f82c0d15b0a27e",
    "records_P24.csv": "848bf5e7c5f1884366d43525c93a1a23c605788edcccfb76eb81f86e859f2ff3",
    "results.csv": "ea714c7652ed5419943fbfd19088a5ab5935b9fe6c53df02cfd75df0bf985bd5",
    "results.txt": "b48e682cfe19fd5afbbfa86770c589ee8d99924c0b48d397aef8ed565f40149a",
}

REST_GOLDEN = {
    "baseline": {
        **REST_SCORES,
        "snapshots_P2_seed1.txt": "c45ee5be917f31256f27f89a97455ce90a4ec39966d3a64b96c82bf63545ecc6",
        "snapshots_P3_seed1.txt": "8bd48d0cec3011a529cb979a722bb36d589247e2947f15f3071c7e695774df2b",
        "snapshots_P4_seed1.txt": "6440027dcd4d188334d035bf5468d9fb434f1672d867d2637e8bd81e167783eb",
        "snapshots_P6_seed1.txt": "8672a4fc4fdc0a8073a990c5456ceff1747c967f3787ac84bb9c58be8ad8f40a",
        "snapshots_P7_seed1.txt": "21bf767ab923fef2645784a097c85b3d85ef540e41b5525554cb46fde4d10e06",
        "snapshots_P8_seed1.txt": "38f2098f4832e4b6eb26075fd5ba40620aba96ff327b9a214fa2d1a38c100227",
        "snapshots_P10_seed1.txt": "385963ccd1c4956682de7b34456abeaeb09bc6c2e4dc653f0775a6435be8efa6",
        "snapshots_P11_seed1.txt": "b6a762ea6ca75dbf063898648d6a1c08d42710e43678641a276705ea9ddca214",
        "snapshots_P12_seed1.txt": "a004127444b809f38227f955dbb363782bb0f5b0235a8233e683cebfaf2bb5f2",
        "snapshots_P13_seed1.txt": "561eb0ed06c59e83b2275ada808882eea18786073f7561396ebeb346021c0543",
        "snapshots_P14_seed1.txt": "2614b7f5827e88c692ca3d9169877054319e4530475b699aec7b0404ed8d58e8",
        "snapshots_P15_seed1.txt": "9401a2396b55e25d6ab77f7d1f1d982aafe2c0663cb67903c1003deb14402124",
        "snapshots_P16_seed1.txt": "3d649767aff8c69e875bf9ad141d0fd290d8937593a4f8d8d6d739fceb4a49a2",
        "snapshots_P18_seed1.txt": "6ce49ad93cdc9181d449d07cbbb18d5e397387c8909d63bec8485dbee5d434da",
        "snapshots_P19_seed1.txt": "b86be0178c513b7618f04f0c7507a9058d38e3ab382ccada5e1f0e61bb305cfe",
        "snapshots_P20_seed1.txt": "279e62e58d669c308e40558e0cd577ebfacb8050f62a1fb1ed20d11ebcd68523",
        "snapshots_P22_seed1.txt": "2edda6a7a94a93854676a9fdaa557b1a6dce9909ebdaca37e551065aaa4dd5b1",
        "snapshots_P23_seed1.txt": "19c4813fee9dafac8b2ea34c85bba678b54c1d24f39e821855827069fc092c78",
        "snapshots_P24_seed1.txt": "69b63fc13885466560c61e19ca4c379354b5458edacb139d413a2d7b8b2463c0",
    },
    "random": {
        **REST_SCORES,
        "snapshots_P2_seed1.txt": "75223a75a62aeaa0a1ed8abe3c5de30b81d9b757c69d4809c1cdca3df72d4b0f",
        "snapshots_P3_seed1.txt": "f690df049573eeb6b3ccb554b50e45a90ee4b735d1c9aee10bd8c16aef36aed9",
        "snapshots_P4_seed1.txt": "7106d08e91459550e7e8f8821f131c8d597310a79ae65b33e889142ef75646b2",
        "snapshots_P6_seed1.txt": "f711065f4d5d3152ab29843f0a72e8afc819ed30021e37b22535c448f636fadb",
        "snapshots_P7_seed1.txt": "db1de49d1136448ecb4c457e408c88a7be44c106fef972b832de3b9b6c5f72f4",
        "snapshots_P8_seed1.txt": "e81b789580aa0312fdfbb3c344d2381efe0455adad00859e686ff2c35adfa7f5",
        "snapshots_P10_seed1.txt": "1967f621c00b27159647412a3abe4b1aae91e783482ea5a5d7b9c88232c18502",
        "snapshots_P11_seed1.txt": "f7ea2028dc8f0e8d72db0d91e2c90b243db456f71b9b9b8b61074d1a2bb236ca",
        "snapshots_P12_seed1.txt": "7d336440ae5b50c022145163794a1d0193f8c00dbf044aa91734065bddd2a5c1",
        "snapshots_P13_seed1.txt": "b14891323b0c7b18ea042ea7adc218e174c5e4f9e88bef1e2aa3d5050a7d36e5",
        "snapshots_P14_seed1.txt": "91173ecd21998b03e27c1c16309c1b7cda03b555be0be112529ee8c387832ef6",
        "snapshots_P15_seed1.txt": "07d65801fde08fe4339b435dce6a6a9e2347099ae9645446b383008fc3510ffd",
        "snapshots_P16_seed1.txt": "b90e378e84ffd6c9ab32734f76cf5dcf75dd115de3fe08ab3d6094fb34bc43c7",
        "snapshots_P18_seed1.txt": "ade3c4e1baa0b5300a8fab62f44e0ec32969f0dae5967a4bc6186091bc608dc8",
        "snapshots_P19_seed1.txt": "39f001e1e1cf0afa1b8644b8e06d248b3419eccf12ea4ccd1fcc528dd5d51189",
        "snapshots_P20_seed1.txt": "8fa982c1ab3736867f281d629bb3a1cb87d755743626ed6f4b8386d6d9c9df26",
        "snapshots_P22_seed1.txt": "11650407fb2077b1cf691dcc74f7196e33be95b4f881aedf8045d6052ff4b8f6",
        "snapshots_P23_seed1.txt": "f6ccd44d99db7d244c420319a04afd622e849452cacc64f27e791b58aea77589",
        "snapshots_P24_seed1.txt": "89ceea003e259c82abc73b9c25547fa2b0aa0d8a5f7e219f5dbefad358719c0e",
    },
}


@pytest.mark.parametrize("optimizer", sorted(REST_GOLDEN))
def test_other_problems_match_stored_hashes(optimizer, tmp_path):
    report = run_benchmark(REST, [1], optimizer, SETTINGS,
                           out_dir=str(tmp_path), save_snapshots=True)
    assert report.failures == []
    assert _hashes(tmp_path) == REST_GOLDEN[optimizer]


# -- one cell of the paper's table at full budget -----------------------------

#: P1, seed 1, the baseline at the default settings: 60 environments at
#: 5000 evaluations per dimension.  It finds 60, 56 and 3 of the 240
#: optima at the three accuracy levels, so these are the only stored
#: non-zero counts of a bundled optimizer, and the only stored DE
#: trajectory over a whole run.
FULL_BUDGET = {
    "records_P1.csv": "2afe2d257c0bdff36b644bd290c248ead0f62f05e4a4aa92e735422f2e46d137",
    "snapshots_P1_seed1.txt": "c0bc568d6c0ad046f002a6c075bcc858b31e6e8c74361104daf86c8f4ef61451",
}


def test_full_budget_cell_matches_stored_hashes(tmp_path):
    report = run_benchmark(("P1",), [1], "baseline", BenchmarkSettings(),
                           out_dir=str(tmp_path), save_snapshots=True)
    assert report.failures == []
    digests = {name: digest for name, digest in _hashes(tmp_path).items()
               if name in FULL_BUDGET}
    assert digests == FULL_BUDGET


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


# -- change constants away from their values ----------------------------------

#: Every change constant and severity of `dynamics` set away from its
#: value, so that a formula which read another constant would move a hash.
CHANGED_SETTINGS = dict(
    ALPHA=0.07, ALPHA_MAX=0.03, CHAOS_FACTOR=3.9, PERIOD=7,
    NOISE_SEVERITY=0.3, HEIGHT_SEVERITY=5.0, WIDTH_SEVERITY=0.5,
    ROTATION_SEVERITY=0.6)

#: sha256 of dump_environments_text under CHANGED_SETTINGS, seed 1: F1
#: under C1 (heights and widths) and F8 under each change mode.
CHANGED_DUMPS = {
    "P1": "c7201053b5e9fa9cbf25595f1df8e8ee2f83e52999940fe72c42108f84eb5dd8",
    "P9": "7591b726d431fc263b4be9a76f89a346302f9ab5756f5b020ef889f7934a0f03",
    "P10": "7df06d86c8685c22b24e43a6d67aa92d21252e8b9ff21ef8d9e1f91415797aac",
    "P11": "18d47b7304cab0cec18d55871a2bbb08c36772511d9e7eb00ab6e02e3b8081f6",
    "P12": "71f4a3b03f0a88d65d3a48adaa9cb20ecee936059760ab88e06634d3eb715ba5",
    "P13": "e2c89a5162c1ea5f9ec86e0d9649f5797bebb60c20ad626a6d6737125ee744de",
    "P14": "243f89ad974a880e608d943a0a391d36fd63a779e96aec1442e2097ec9ab240d",
    "P15": "a977f90207fa4ef7823398b390efeb46a042f51f8b71f76f2d62a4a9a3f2c089",
    "P16": "92e66168b1b8728f58079abe4983e10a95b2956de9a4922d2ea71a92de4858f8",
}


def _set_constants(monkeypatch, constants):
    for name, value in constants.items():
        monkeypatch.setattr(dynamics, name, value)


def test_dumps_under_changed_settings_match_stored_hashes(monkeypatch):
    _set_constants(monkeypatch, CHANGED_SETTINGS)
    digests = {problem: _sha(dump_environments_text(problem, 1))
               for problem in CHANGED_DUMPS}
    assert digests == CHANGED_DUMPS


# -- every change mode on both landscape kinds ---------------------------------

#: The large-step cap and the logistic coefficient away from their
#: defaults, so that C2 and C4 take other steps than C1 and the table.
TRAJECTORY_SETTINGS = dict(ALPHA_MAX=0.1, CHAOS_FACTOR=3.9)

#: sha256 over the 60-environment parameter trajectories, seed 7, of F1,
#: F5 and F8 under each change mode at D = 2, 5 and 10.  The table runs
#: cone landscapes only under C1, so only this pins their height and
#: width steps under C2-C8.
TRAJECTORIES = "0b82f34755dcef540568c1767394459b24c153c8ff51ddf66f48c204deabdd63"


def _trajectory(family, mode, dim, seed=7):
    """The labels and values of every environment of one run, as
    `format_environment` lays them out."""
    rng = RngStream(seed)
    init = init_df if family in CONE_FAMILIES else init_composition
    landscape = init(family, dim, rng)
    state = init_change_state(landscape, mode, rng)
    for env in range(1, 61):
        if env > 1:
            advance_environment(landscape, state, rng)
        labels, _, values = format_environment(landscape, state)
        yield "\n".join(labels).encode("utf-8")
        yield values.tobytes()


def test_every_change_mode_matches_stored_hash(monkeypatch):
    _set_constants(monkeypatch, TRAJECTORY_SETTINGS)
    digest = hashlib.sha256()
    for family in ("F1", "F5", "F8"):
        for mode in CHANGE_MODES:
            for dim in (2, 5, 10):
                for chunk in _trajectory(family, mode, dim):
                    digest.update(chunk)
    assert digest.hexdigest() == TRAJECTORIES


# -- random search with a pruned pool ------------------------------------------

#: Batches of 1000 evaluations, so the random search holds far more points
#: than its pool of 100 and prunes after every batch.
PRUNED_SETTINGS = BenchmarkSettings(evals_per_dim=2000, environments=2)

PRUNED = {
    "snapshots_P1_seed3.txt": "01154c30e0a0b1307a4f2a8607c3e1c4b03cab523c4b091240f0086071f6c3c1",
    "snapshots_P5_seed3.txt": "5b43be656664611ce7ca6ac04a6b9cacc206f29a898f0781c56492f513106e49",
}


def test_random_search_past_its_pool_matches_stored_hashes(tmp_path):
    report = run_benchmark(("P1", "P5"), [3], "random", PRUNED_SETTINGS,
                           out_dir=str(tmp_path), save_snapshots=True)
    assert report.failures == []
    digests = {name: digest for name, digest in _hashes(tmp_path).items()
               if name.startswith("snapshots_")}
    assert digests == PRUNED


# -- change detection when one batch spans a whole environment ----------------

#: sha256 of the snapshot file of P1, seed 2, six environments, per
#: optimizer and `evals_per_dim`.  An environment's budget is then 50 to
#: 300 evaluations, so the baseline's batches of 100 cover two whole
#: environments (10), exactly one (20) or end inside a later one (30,
#: 40, 60).  After a batch that spans a whole environment the remaining
#: budget reads as before, so only the environment index shows that
#: change.
SPANNING = {
    "baseline": {
        10: "ac6f9ab9e239d7ffcaaa00447ea11015a76baf98075520a9fd84b178535a2dc2",
        20: "e004ea07648026b56466008e8c47300e414d51111fe6be14a36c1649d61e6284",
        30: "f75b065a486d80cd3a642254f0195b06e7cba7915ebc20ad6b80cc251d804bb9",
        40: "fa4b34763273e064948666307fd49db831684f26b44c31892a962bee9a51c186",
        60: "ee5a531e62551f4c0939a78fa0067702089d17b05862a86d7d6018b788d32901",
    },
    "random": {
        10: "6e2bdacbaf5006861cffd66b58b69d46bb344c4f9a571e78a7fa88cc940864d8",
        20: "9fc461b191e9129d97bd360b42097e845791b862b46ad2211d94cd1f1fe12aa9",
        30: "65492525021d61757c4f6e14eb2b72f3c7314a6f4cd71ec8aba9d5d4e8067fb1",
        40: "c0e0573f02f9f41d5813faff05bad6f642244279ee80aebc0263b1ab67407dfb",
        60: "80366cd16324c40bfb6ffe5c37448ff10aa8fa4c9829c2128569058b9e199c5e",
    },
}


@pytest.mark.parametrize("optimizer", sorted(SPANNING))
@pytest.mark.parametrize("evals_per_dim", [10, 20, 30, 40, 60])
def test_batches_spanning_environments_match_stored_hashes(optimizer,
                                                           evals_per_dim):
    settings = BenchmarkSettings(evals_per_dim=evals_per_dim, environments=6)
    instance = create_problem("P1", 2, settings)
    make_optimizer(optimizer).optimize(instance, RngStream(2, stream=1))
    text = render_snapshots("P1", 2, instance.snapshots)
    assert _sha(text) == SPANNING[optimizer][evals_per_dim]
