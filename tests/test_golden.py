"""Byte-level regression gate for `permlab gen`.

The digests below were recorded from the generator before any refactor of
the construction path; a change that alters a single edge, tag, edge order or
stream position in any of these artifacts fails here. Re-record them only
when the output format is changed on purpose.
"""

import hashlib

import pytest

from permlab.cli import main

# (sigma, p, seed, shuffle_seed) -> sha256 of graph.json, stream.txt, manifest.json
GOLDEN = {
    ("id", 1, 0, None): (
        "354e181eedd1d36f11ea96ee34226242e15f342142ea43f965b3ec06e9ef6ae0",
        "fb2480ad5f6d3480a3f8340986a6e2f49fc962f7905b0ec38895e9645fb39e2c",
        "520035dde00017236b8078774ec536700da22e2cf68c2df5e72b167f6d1b3d98",
    ),
    ("cross", 1, 1, 5): (
        "646afc93c379cff517526cbfd2af03f4cafc0bef00be2270cf81187192b51fe4",
        "cc6d1021e4dcff63dd00672ac1dc32214e4b607b5059e2b54007e3245ec8d029",
        "18375157036d16deee9d61a298c95fd8bb4164fbcbce7a2adf045688b0ad6d44",
    ),
    ("random:7", 1, 2, 9): (
        "d94e2bce17f39ded62914bd2947667caaec44a1b1c0ffce3ce59a84db06d9e22",
        "98e0a0da1696d8ff9e6bf65870c1f82ded6664ce3a3170eb064b3558ad678fbe",
        "b6e4d307601de7025428b06c2d82c0c48acfe9c6087c7ffc136c4308ed134ccb",
    ),
    ("id", 2, 3, 11): (
        "3794cbc4431662cd16080714db6821566a31b3b06eb3c1d13df286b525510960",
        "3fb18a41a11b068e3bdcb26fc26a293dca4b0df4f21ec05b7faa23288314de05",
        "76856769e72bf2eaad6fabf374f34c487299d3901214c588dcee0653a0a06f69",
    ),
    ("cross", 2, 4, None): (
        "1d27a146da6006eb16137a47761ecf098a94e806451a68250286298d6272c9eb",
        "78bb229b488235742779b3ba5fb488b394d95b60291945c067917dac2b62b926",
        "d91d8660caf9627e98d7faebe09bb4703d9f9a9a34d547482ef174dafc78d3c5",
    ),
    ("random:7", 2, 5, None): (
        "c140d5dbbff918dfae8c8db729cb33a818e1b01143e10224db468d03140724e6",
        "86990287524f0ec53dc3035d88579f3df450ffd190d1b0a9c3ac7e1df44eb580",
        "3c1c16eaa24ee797ca3b916fbe88c28673af8c36a604455c5e4f9a38cb2f140b",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN, key=repr), ids=repr)
def test_gen_artifacts_match_golden_digests(case, tmp_path, capsys):
    sigma, p, seed, shuffle_seed = case
    argv = ["gen", sigma, "--m", "8", "--b", "2", "--p", str(p),
            "--seed", str(seed), "--out", str(tmp_path)]
    if shuffle_seed is not None:
        argv += ["--shuffle-seed", str(shuffle_seed)]
    assert main(argv) == 0
    capsys.readouterr()
    got = tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("graph.json", "stream.txt", "manifest.json")
    )
    assert got == GOLDEN[case]


# Points off m=8 b=2 k=2 whose decompositions have non-Lex pieces: `gen`
# arguments -> sha256 of graph.json, stream.txt, manifest.json
GOLDEN_WIDER = {
    "random:3 --m 12 --b 3 --k 1 --p 2 --seed 6 --shuffle-seed 2": (
        "13c8bb5fc54880c559768b356aca2296f0910573282b1a081a3caeebc56e78a6",
        "79edc136fdd8135e327ff22ddc4cf72817de897af840c98e3125074a465b3a69",
        "8cd629c977ab75578e6b58aefcb2434f726d011767d4f1e9daf4823a2a385df2",
    ),
    "id --m 16 --b 4 --k 3 --p 1 --seed 7": (
        "816adaa39eb12a97549170948af81736d39c66f99f4088acad05ee4d3baba2a8",
        "b860741f8607c43413c970e8efaf14e95cdddd139a31302f04846e3a760fcf40",
        "e73e13338614dbf13a19df288dd21270ac3d17f01b8519224642c331fe5df2ed",
    ),
    "cross --m 8 --b 2 --k 1 --p 2 --seed 8 --shuffle-seed 3": (
        "eec7c4308007c80ab22f5035d4fd54be5af8606709d38624b47025e5576812bb",
        "0b92349faa9a61dcdcc407b290084b8bed6ce7a7043a055c24bd0bf587a6c3db",
        "3f6cdb5526ce2d3892f90ff3b2db5ce9d1c6b5397e19f0c445e5b0fd9ee39363",
    ),
}


@pytest.mark.parametrize("args", sorted(GOLDEN_WIDER))
def test_gen_artifacts_match_golden_digests_off_m8(args, tmp_path, capsys):
    assert main(["gen", *args.split(), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    got = tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("graph.json", "stream.txt", "manifest.json")
    )
    assert got == GOLDEN_WIDER[args]
