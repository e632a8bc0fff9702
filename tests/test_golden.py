"""Golden digests: fixed-seed artifacts must stay byte-identical across changes.

The constants below are the sha256 of every file that six scenarios write
with seed 42: the per-run rounds CSVs and summaries, and the aggregate
comparison table and figure data built from them. A change that moves any of
them changes what the simulator computes; regenerate them only together with
a note saying why.
"""

import hashlib

import pytest

from wsn_lab.cli import parse_scenario, run_scenario

SCENARIOS = {
    "small": {"network": {"node_count": 20, "round_count": 50}},
    # Every network dies: the clustered runs end after 17-18 rounds and the
    # baseline runs the full 300 with 29 of 30 nodes dead.
    "depleted": {"network": {"node_count": 30, "round_count": 300,
                             "initial_energy": 0.01},
                 "learning": {"shared_table": False}},
    # 60 stage-1 clusters of 300 nodes: locks farthest-point seeding and
    # capped assignment at a k the two small scenarios never reach.
    "wide": {"network": {"node_count": 300, "round_count": 3,
                         "comm_range_fraction": 0.2}},
    # Private tables pruned every 10 rounds below 40 visits: locks that a
    # pruned entry reads as zero and is learned afresh afterwards.
    "pruned": {"network": {"node_count": 20, "round_count": 60},
               "learning": {"prune_min_visits": 40, "prune_window_rounds": 10,
                            "shared_table": False}},
    # A batch smaller than the buffer: locks the replay rng's sample draws.
    "sampled": {"network": {"node_count": 20, "round_count": 60},
                "learning": {"replay_capacity": 30, "replay_batch": 7}},
    # Three nodes that never stop exploring: in 5 of 40 rounds no rl-gt agent
    # founds a cluster, so the geometric partition steps in for stage 1.
    "fallback": {"network": {"node_count": 3, "round_count": 40,
                             "stage_target_sizes": [2, 2]},
                 "learning": {"epsilon_decay_rate": 0.0}},
}

GOLDEN = {
    "small": {
        "full-rl_42_rounds.csv": "d95bfde686819690c9dd095fe297594f8e4c30a6a0d691f008e07832324b0cdc",
        "full-gt_42_rounds.csv": "1804e2e53f207c3b32cb1ec1618ece19829bfe6a6a71f61ef79704bc55c02518",
        "gt-rl_42_rounds.csv": "129cbf357d414ee257634225a1dd633216dd953870c9061771a1d76dedb2ae82",
        "rl-gt_42_rounds.csv": "51d8c58df46d7eacf9c058b327b968091cb922a6bee3e6423527ab2a49a92db1",
        "baseline_42_rounds.csv": "7e1697562a2b9af1141d2c45d527b4380ddd417922361074810a241dcbac1399",
        "full-rl_42_summary.json": "0b550742e8c33e64c75ded59bbebb61b5910728872e9954db92709e429af87a2",
        "full-gt_42_summary.json": "f106ea53ad23c8ca8b85a32afc9ed92abccb6726424c63316ffd8aa7c0411856",
        "gt-rl_42_summary.json": "41feea829b2e5481545238fdd534a52834ccb246a3c868d271160e3308afb8b4",
        "rl-gt_42_summary.json": "f824dc3b7de0b347228783cf9fd3d83b73d5fadda1bb600f1b3e8a32ee7516ef",
        "baseline_42_summary.json": "71608d30196efea18666638eee74670ae4bacc5d4e1da10f51cf54e61d970587",
        "comparison.csv": "104e7431cadc2e597efa21b3b1a5545cca8493cc4386af5283fbed4859ce4ea4",
        "figdata_active_sensors.csv": "58051e03b98c25b94d9176326e8e99edae46628e739d7cebc15d56dedb230116",
        "figdata_avg_energy.csv": "6e11d847246da1f8722e2f99bcc3aaf284bb3a6b85fc81b91200fddd7e9a9eed",
        "figdata_convergence.csv": "e64ccf51a27ce5b9d8aa2ba57c50b01ff38d6e1cd7e02a692abd278f16f5ffed",
        "figdata_cumulative_reward.csv": "01bd41e9af9027d3506e27b4af729300292bf0aa01ffab6566db32bad08d746d",
        "figdata_energy_variance.csv": "f981d5705a8ce84941a3f4186f2ec7f10c25ecbb4a8281016fc552c260343bb2",
        "figdata_success_rate.csv": "43a466b22531ca1385ca0daa419f9dc181f5f871c83c9bb885b0a21b2b4c0e72",
    },
    "depleted": {
        "full-rl_42_rounds.csv": "5d54155d5c559855e2c2998ec415ecd07b94ac32e598f6ce65b1150aef1b457c",
        "full-gt_42_rounds.csv": "5e711d95742e35fd0a3498a247e43c5d5214c974a9b0def2bf41014f4a0eadc5",
        "gt-rl_42_rounds.csv": "3a663291d92c76f09e35bebcd88c5eb2ed5893ac32a4cb7402fa69372990df76",
        "rl-gt_42_rounds.csv": "6a9cff1c53cd9d8048563422689d60993bc41e0bf88f76f3025c2b350e7a2250",
        "baseline_42_rounds.csv": "e8f2fe820b26e51e76b4c37b2fd3b4b18a8df9d7e60ce5540bf68f77ae862bef",
        "full-rl_42_summary.json": "7b03d962a694080aad3bdddca1bdd81a9b354f9a4be07c35f48490fba2b8a1e1",
        "full-gt_42_summary.json": "3a3ecefcab0239c6abb7f1c8361032a04767efa973310623e56e003ae7917457",
        "gt-rl_42_summary.json": "8101671f3d9f743066e82a427fa5abd3a1d0deac31cce2251e467b47110e83bc",
        "rl-gt_42_summary.json": "18f08b2e3b74be25fb150d78a4e84dd02eaebf1aed30244b20c2c6c96c76b612",
        "baseline_42_summary.json": "7e49208983aef807e46463b6e3ab1110f2bf5e9d5cb2fdc7724f8b65b4fe7cc7",
        "comparison.csv": "cd331aaf2e723926e399e8656a2516b0207cb65a18c0a488512b45b95aa6e620",
        "figdata_active_sensors.csv": "71cf352d01ef542627b4a8f226c0f68dc4f86e0e203d03f71344c393b836e2da",
        "figdata_avg_energy.csv": "9fcf2345431c3f32326f66f3cf45bd34a9f800423e002496db0e0209dde6ae52",
        "figdata_convergence.csv": "601ebacb75d1b99583d221dbc979d6160f8bda7c99658a499d932a35ac7599c6",
        "figdata_cumulative_reward.csv": "4690ff0de80e2756bcab8153365c32b912661699d144b80e73e898fd40bb5b13",
        "figdata_energy_variance.csv": "e775e7f8811c02c2f53a94fdb9da1aaa70a26b4625eec01d79c2967310290e7e",
        "figdata_success_rate.csv": "36a8611e604a40c866b0bffb8e9efec321699507cf22f6208bfcbf45e8046bb9",
    },
    "wide": {
        "full-rl_42_rounds.csv": "40c200d2a0907ceb97ca51b5de38f4623348af3e0187c1ea3d539b82b8bd7303",
        "full-gt_42_rounds.csv": "dcf8f27c7c3f7f8dfffb9b29bdc0b4b32d71094a8993982715972b5ed81325da",
        "gt-rl_42_rounds.csv": "37370170c3c13dc7e980d30d6a7ad7adf2aeceafccbd39bde387ac37f3fcc891",
        "rl-gt_42_rounds.csv": "ccd8d6307782248d3c07d014e128f792235ff28a68da172f22ea2a344b5bed4c",
        "baseline_42_rounds.csv": "6f300cf819a224c510c1f45bf708a94f2210da59c820f0a642952019573931a8",
        "full-rl_42_summary.json": "0a1913eabc3547b1047a864451665d00821fa559731267ef40edd9d8432b1b8e",
        "full-gt_42_summary.json": "4e1c65a492b10a3231e7b65fd3692043bd58ce1e15f20480415e1311c65083a2",
        "gt-rl_42_summary.json": "5077f6bec4b96ed364c353c13a9e5e7d2691aa6211e3d213f6553b928fda87fa",
        "rl-gt_42_summary.json": "935337c27b5b5bbef4d4a53a9f87a989eff7a1e75f4197e5aaf5068396c2765f",
        "baseline_42_summary.json": "899f8d24d827bf9d6b775854c4f8ad4afb956634211a8a60df15bca664320163",
        "comparison.csv": "637906be6e173a3278cba47b98b8d2c83dc1ec541f3a379811fabe3386a2feb5",
        "figdata_active_sensors.csv": "7e916639524f6db4f7a0af2a05b90cf687dcc8b285101384194396a1255c87ed",
        "figdata_avg_energy.csv": "f19cf33b83d98a11e0b5d935135680ff97d88a614fc8480c322ce91906d3a3b7",
        "figdata_convergence.csv": "6e2ad2a8972db143e85cb91236cd69ab415f9f69df296d7cc6e2f8ed8ff0c3ab",
        "figdata_cumulative_reward.csv": "61cc379966c3352895947fc1cd85b5b79290f7f37347e7754b15ae5eb3166b02",
        "figdata_energy_variance.csv": "5ad97100be22c6bb7fad4c4243e5edde19c0297ae930371841fd2af6b1cd490c",
        "figdata_success_rate.csv": "2cc40686dab81a9cd350da891a75ac8b409aa8502331ac9f491f91b9efd73575",
    },
    "pruned": {
        "full-rl_42_rounds.csv": "8c08d1b7d6293a623b61ef5ad467cb0fb7f2e950a9eb6bb40eeb1f0f44ffdc9e",
        "full-gt_42_rounds.csv": "1a6481ee62cb60f6d76f3e024d9798f51799c59f67ac540165373318af4f46e4",
        "gt-rl_42_rounds.csv": "3b6cac7a6c3e59ce991b6045813dac9b3e7ba21ab726c7229c0d6f73a8492c36",
        "rl-gt_42_rounds.csv": "1b319f850beaaaf11c1882f5b1438914bd841b6d29dd965a62a110658ad00158",
        "baseline_42_rounds.csv": "69af219d377d72a5140ac2826f7c86b2c20ee6c90829b9856d5fc73c0ae8807c",
        "full-rl_42_summary.json": "54a02a3215d371d8fd642fdb0c08a04104c7a928828d3d904ade55bda330f034",
        "full-gt_42_summary.json": "f1a73a1b3ddac72f5a76c1f4011f1db1bba0e2a3d534ae39b2f537e3a1ad9652",
        "gt-rl_42_summary.json": "4bc6f4b98c903161d1d6c0416b7a865974228e0e955fcb32889c12e9b7650d4d",
        "rl-gt_42_summary.json": "e07e002fab638221142ec255e88888d903ea5e2f07a37ec2f7254a752f37e7db",
        "baseline_42_summary.json": "f4fb4216601da120b85e271ccb096ae14cc1cd253878b36e481c50cba6b3e693",
        "comparison.csv": "c0d55740bd40a873098d1b75c2a9942b91b93da1cf3eb8870975c2e9a623fe7e",
        "figdata_active_sensors.csv": "cc773e8530c2d29a91beced88bbc2f523f77332b9c7bf708674aabec3df78ade",
        "figdata_avg_energy.csv": "88ed2cea7b32abe096f74595a3db687d7a543a43a82e3c213ec6c2bddd1ff221",
        "figdata_convergence.csv": "5981d343d49ce3a143efd1abb93fb1b31c3bb06d295ce755db18fbe37bc7a872",
        "figdata_cumulative_reward.csv": "221382c507f766e662eb0b02cdf36a43bad6ba95c7a0ed85840bc3ae6a133f8c",
        "figdata_energy_variance.csv": "f9e3948fe787f4b90858a4dc7c582f1dab02aa91ea62edb4162051743f3891dc",
        "figdata_success_rate.csv": "a7de69d9f70830e70c15125c012c7b9e9eb406e2af39dd5c36b7e6e04b75bb9f",
    },
    "sampled": {
        "full-rl_42_rounds.csv": "0b181f6a4a3f011faf0e7adb89ffce82457d2478814bcfa9c63de22341f4eeb7",
        "full-gt_42_rounds.csv": "1a6481ee62cb60f6d76f3e024d9798f51799c59f67ac540165373318af4f46e4",
        "gt-rl_42_rounds.csv": "f1bec96340beb56b2d7090a01d2def8b758035d55e5b133d72eca82d815b3be6",
        "rl-gt_42_rounds.csv": "b73ab25ee66bfa016acc9597e68651cbdda4f19ea4a80f308d287da26c349129",
        "baseline_42_rounds.csv": "69af219d377d72a5140ac2826f7c86b2c20ee6c90829b9856d5fc73c0ae8807c",
        "full-rl_42_summary.json": "665dd030a9b8f2731fd7305c49ef325a0d00d88dd7a86d3d315f262987388e5e",
        "full-gt_42_summary.json": "f1a73a1b3ddac72f5a76c1f4011f1db1bba0e2a3d534ae39b2f537e3a1ad9652",
        "gt-rl_42_summary.json": "e17c8d826d0fa7d0b0e303262c1fa03ab30db4757b2b4d2f05ab82f5034d4bf9",
        "rl-gt_42_summary.json": "90f03059232e4119d4e88e20188548ef4ad608ba7f484a5d12d4a4be425e454e",
        "baseline_42_summary.json": "f4fb4216601da120b85e271ccb096ae14cc1cd253878b36e481c50cba6b3e693",
        "comparison.csv": "3f4030323b4c5a6d581584cfed994b14994cfbdea90320242ba492c24c44dd8b",
        "figdata_active_sensors.csv": "cc773e8530c2d29a91beced88bbc2f523f77332b9c7bf708674aabec3df78ade",
        "figdata_avg_energy.csv": "61b85bd62b2b9f88d6420da01f211f241875aa1fbec2ccaaa55ef78fe8371acf",
        "figdata_convergence.csv": "59329164683f968873287d65f46f665cda1fc560b38d69e6d96e770da82d2f87",
        "figdata_cumulative_reward.csv": "24cce67b5f09258187cc591fbd8a0841a05244765b86f4ba0c0dc8effebf8b48",
        "figdata_energy_variance.csv": "298fd0fdb90e0e1d9805bccaa286331125bbad7657bd2664255cfcf77afd2c54",
        "figdata_success_rate.csv": "aafe87251bbb5b27011028b7d82171325d83091ea2f41cddf190adfabe59bba6",
    },
    "fallback": {
        "full-rl_42_rounds.csv": "4f85ad246f226a5dcaf10d57d445fa47162581b41d11a2d9ed8e83549958f2f4",
        "full-gt_42_rounds.csv": "2dc8683e0f26ada9627d102ba48e4c750d426cfdddec4124a41762fe8cfe3f86",
        "gt-rl_42_rounds.csv": "182996150cb04cd2c856e75d5b3607bc3fc675cca86e44f0a3587a2eae318e37",
        "rl-gt_42_rounds.csv": "b166f6ca017b4b8114301ad592a46fb20daec91e7b06cf5d44416e918565b8c2",
        "baseline_42_rounds.csv": "a5cdeb4f7f7c0ea185a0b178b9a79c08d9019affbd5788c032688cc4997f9a36",
        "full-rl_42_summary.json": "5ba606a7fb7c3d1008fd074eb0a6e011fb95216aced6c0ddf87342e9fc828676",
        "full-gt_42_summary.json": "4fc1a48345745a0cfe65d20a62d369579cd63638576244fa1e56f908457d2a9a",
        "gt-rl_42_summary.json": "722c5875820121a5b4d11d299746abe7e3e892b348a26e3b94ae487910217637",
        "rl-gt_42_summary.json": "7f0e75a0c7754ad529330f732065198dc68cec365311cb43a6bdb7fca46ea217",
        "baseline_42_summary.json": "10a44d353f9afbd80119c00591aa8822e767b8aedaf6433aebb61abdd786e81a",
        "comparison.csv": "2ab466c075031f83aee978af242780befad07303be5a20f0749459f051af31dd",
        "figdata_active_sensors.csv": "b7f0bb7fbea49e85929b62075c2819ceedb44b42544a39a8aabdec38f1843b56",
        "figdata_avg_energy.csv": "f713d04a5615af2ea3a735abcfe71df8b1828b661da3efa08c92cb5384af8ec7",
        "figdata_convergence.csv": "61193a95df6af300972b7994f2afe05e93d918a91edfd52aa97976a52d3d6f80",
        "figdata_cumulative_reward.csv": "4c1ad8fd6a0d05a1ec9297916276d3552a2d288026f4a0c6ecace59e011bda7d",
        "figdata_energy_variance.csv": "9ccb7150809c81da92f421ae9c1706e0808d7c4d0ccb83c281601d123a0538e9",
        "figdata_success_rate.csv": "2ce86c7f6ce9d142c01efc6dffdfa49f8e11b85f8e00b3ab6f7dc188c262baec",
    },
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_run_artifacts_match_golden_digests(name, tmp_path):
    spec = parse_scenario(dict(SCENARIOS[name], seeds=[42],
                               output_dir=str(tmp_path)))
    summaries, failures = run_scenario(spec, jobs=1)
    assert failures == []
    assert len(summaries) == 5
    written = sorted(tmp_path.glob("*.csv")) + sorted(tmp_path.glob("*.json"))
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in written}
    assert got == GOLDEN[name]
