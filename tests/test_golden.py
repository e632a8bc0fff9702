"""Golden digests: fixed-seed artifacts must stay byte-identical across changes.

The constants below are the sha256 of every per-run file that two small
scenarios write with seed 42. A change that moves any of them changes what
the simulator computes; regenerate them only together with a note saying why.
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
    },
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_run_artifacts_match_golden_digests(name, tmp_path):
    spec = parse_scenario(dict(SCENARIOS[name], seeds=[42],
                               output_dir=str(tmp_path)))
    summaries, failures = run_scenario(spec, jobs=1)
    assert failures == []
    assert len(summaries) == 5
    written = sorted(tmp_path.glob("*_rounds.csv")) + \
        sorted(tmp_path.glob("*_summary.json"))
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in written}
    assert got == GOLDEN[name]
