"""Golden reports: sha256 of the structured and the text report for fixed configs.

A change that is meant to leave every report as it is (a refactor, a
speed-up) must keep these digests.  The text digest is taken with the
per-check timing suffixes removed, since wall time is the only part of a
report that is not reproducible.
"""

import hashlib
import re

import pytest

from nodal_kit import cli

TIMING = re.compile(r"  \[\d+\.\d{3}s\]$", re.MULTILINE)

README_SERIES = '[[2,0,"1"],[0,2,"-1"],[3,0,"1"]]'

# name -> (RunConfig keyword arguments, sha256 of to_json(), sha256 of to_text())
GOLDEN = {
    "check-all-q-3-2": (
        dict(subcommand="check-all", ring="q", gamma="3", delta="2"),
        "792069c712fae0442e9a33c5e60a6b0a500f780aa245c7e8bcb76d8928574fc8",
        "9924cf870452ec966ae8bbecf223dbaded6a17c4e077a4665cb5d6aae085f4eb",
    ),
    "check-all-q-0-m1": (
        dict(subcommand="check-all", ring="q", gamma="0", delta="-1"),
        "0ded1823f6cc42ab12243ef1943f5bc7c19f8c8333cb875738a8250394240ba9",
        "7f969e2b00841a4ec5b5751ba754942a80ac62fd5d31c623cfd4d1ff4671baaa",
    ),
    "check-all-fp5-1-0": (
        dict(subcommand="check-all", ring="fp:5", gamma="1", delta="0"),
        "871efacf5d4fcccaaee60c7840de2fdc06b89a7fe1ee7bcfcacbda3403f36a4f",
        "fcb4ea82ad4ba6cc66c98f28274a3f68580ef7bef168a43efce8e26dc02e2783",
    ),
    "check-all-fp7-3-2-s1-t4": (
        dict(subcommand="check-all", ring="fp:7", gamma="3", delta="2", s="1", t="4"),
        "45c5339e2b111d8fcab7bcab65c6c9d598a856350868a23ef8f62650aaf44274",
        "942992be923193077cdf563f2b8629397f01fecfa1a488c8ec97088a35033164",
    ),
    "check-all-loc-fp7": (
        dict(subcommand="check-all", ring="loc:fp:7:s,t:3", s="s", t="t"),
        "6a1d062b96d951d5cff4dccc4dd5cde731a1ca131f05018c356784f9f5449b8c",
        "2cd735feb7ec0ed66733a4b5d4fe622cfdf9e70ad970b20fd52cbbf8bb703f6a",
    ),
    "check-all-dual-q": (
        dict(subcommand="check-all", ring="dual:q", delta="2+eps", s="1/2", t="eps"),
        "1f184608b0e5751216b451288c9b7af1ecb1f67c184d06e097df301cd85c8f42",
        "c9a547bcffeb4b62a919dbced07737eeca29334fc9c08b9be09a41363d3635a8",
    ),
    "check-all-dual-loc-q-p5": (
        dict(
            subcommand="check-all", ring="dual:loc:q:s,t:2", precision=5,
            gamma="3", delta="1", s="s", t="t",
        ),
        "4c024c4832322ea39c3fee09073e2c80596de7d71c68d7316953b0003290d294",
        "056096ee15929129371a53c4c52898570c692216805dba4278cd6cc4d46ae8e0",
    ),
    "check-all-loc-q-p5": (
        dict(
            subcommand="check-all", ring="loc:q:s,t:3", precision=5,
            gamma="3", delta="2", s="s", t="t",
        ),
        "a029e587a57837d180baf982e4eb573b2f703eac516ca05cb687900ed0b052bb",
        "b53710e49c0eb431c8d40c75af3625617500697498a5150c3ceaf6f4dc7306e3",
    ),
    "dual-loc-q": (
        dict(subcommand="dual", ring="loc:q:s,t:3", gamma="3", delta="2", s="s", t="t"),
        "c4ae61a54989e4d3def99bb72971a846c6457acfd73e2bfbded84d6a02092bae",
        "4d803c9d141623731c3a53a6b427d5adf02909469554d7d1ce8d48f8488f4b69",
    ),
    "exactness-loc-q": (
        dict(subcommand="exactness", ring="loc:q:s,t:3", gamma="3", delta="2", s="s", t="t"),
        "7384a99261391567d229dc4b07607213a5e9dab766e827a3057256d431673f36",
        "21b2d60a847c61ba83f501e07f8e29077919159094d603ae9e2d33db06f90222",
    ),
    "normal-form-readme": (
        dict(subcommand="normal-form", ring="q", gamma="0", delta="-1", series=README_SERIES),
        "c77d4b218146dc782056a113c498a506b5d3f8573fe53fb4064d724c46bb7533",
        "5bc49c7e05773602877d7fab7d5531ebb00bf93ce5cbb9e1d0f6ca0ef00fb398",
    ),
    "division-fp7": (
        dict(subcommand="division", ring="fp:7", gamma="3", delta="2"),
        "bf76ee502d48b72b5ab2fc7adb6001cc7e2a0c234d416a6307e429560afb54c0",
        "60d1b2b8cc2d29535640c102f3edb53c0495d396b611c213ebea1b1f3ca6803a",
    ),
    "factorize-fp5": (
        dict(subcommand="factorize", ring="fp:5", gamma="1", delta="0"),
        "158ec0f18486050d1f2ebc1e6a554e776789d45df928c43986196aba4e1abc43",
        "ab8acd6df7cd955f4ac54670df843ee37a3af798a5bc5bb9368f56f526dd79c2",
    ),
    "charts-q": (
        dict(subcommand="charts", ring="q", gamma="3", delta="2", s="1/2", t="4"),
        "7be5833cb327fcb2b1f794299ed8435f1d0150e5decd363d38afe8c60c9111d8",
        "7a439079e7cfd74cde4d93ea8e0de7f0ee0a7eb976da4bcff2e6e5e9264093dd",
    ),
    "fiber-q": (
        dict(subcommand="fiber", ring="q", gamma="3", delta="2"),
        "702a963ac72c125e876352909dc15bea6044d629d11261f67f1123d5eb830db6",
        "b7335677a64e001ada276852113bbb9b93fa83e73cf6b2564e8f4bd773aeb80d",
    ),
    "exactness-fp101-30-3-2": (
        dict(
            subcommand="exactness", ring="fp:101", degree_bound=30,
            gamma="3", delta="2", s="1/2", t="4",
        ),
        "c771cb396e876a2d4d81b651e207bea241bd2c7482065b956057151b654a0713",
        "cd0ef8cdb1cfead291477e199bfdfa32d12fe1a55f7679e3edf5c2ca43c4086f",
    ),
    "dual-fp101-30": (
        dict(subcommand="dual", ring="fp:101", degree_bound=30),
        "90c4730ba73fb75c8bc8b659635019804f4632e372f15205dc12cad195d189fe",
        "e3fb15808586f9e8ab7060f3b2219a3a93cd3e570134178ed99557ea9e141154",
    ),
    "dual-q-30-3-2": (
        dict(
            subcommand="dual", ring="q", degree_bound=30,
            gamma="3", delta="2", s="1/2", t="4",
        ),
        "d083c10a8b4e1702fdc34d9650434af050df5732f3bd4dbf11f20c5e7d30d6c3",
        "a42977fb02f19713aecd8312a818e4f22fb2d83d4e39d9e8883b0d90d9db194b",
    ),
    "dual-fp101-28-37-5": (
        dict(
            subcommand="dual", ring="fp:101", degree_bound=28,
            gamma="37", delta="5", s="17", t="88",
        ),
        "5b5c9680f4c67ea5f9fdfe4c390a2372b7d0b81c6083012f0f005e8708efd506",
        "fc94930f768dc4af0477d83209d06cd9118748b0797aa4898a6e16356d8a9148",
    ),
    "dual-q-20-3-2": (
        dict(
            subcommand="dual", ring="q", degree_bound=20,
            gamma="3", delta="2", s="1/2", t="4",
        ),
        "e99d60f9eda417fcd2095ad64e324b66ea6c1ef9d16b6a63fb7bff0db02831ed",
        "a00face66b1a3d61a361583b52582922b391c0a6896c01d64bdca8a90bab3725",
    ),
    "exactness-fp101-20-c5-37-5": (
        dict(
            subcommand="exactness", ring="fp:101", degree_bound=20, cushion=5,
            gamma="37", delta="5", s="17", t="88",
        ),
        "1064302503a98632e2f1e28b7c6751f0753a03bcb90778d813d1afe1a9d63dd0",
        "ef5c34e3e05de49ec4a9c0b30c5b08ff17d70fd8ade1c589e26c8ee90a85e0da",
    ),
    "exactness-fp101-26-37-5": (
        dict(
            subcommand="exactness", ring="fp:101", degree_bound=26,
            gamma="37", delta="5", s="17", t="88",
        ),
        "8cb61603e9f6e36ec217e6548ebd3e4750747a0a7a330b65f47276ef2be84248",
        "d8a550939b4cd7f842634be77a38f7a0c3888f81d47f469e9bda398198d3932b",
    ),
    "exactness-q-20-c5-3-2": (
        dict(
            subcommand="exactness", ring="q", degree_bound=20, cushion=5,
            gamma="3", delta="2", s="1/2", t="4",
        ),
        "4bd566b89f3ca0f7c437a0dfecbda6fe0f835b47f1514c15c7327742215e450e",
        "ef5c34e3e05de49ec4a9c0b30c5b08ff17d70fd8ade1c589e26c8ee90a85e0da",
    ),
    "exactness-q-26-3-2": (
        dict(
            subcommand="exactness", ring="q", degree_bound=26,
            gamma="3", delta="2", s="1/2", t="4",
        ),
        "163de06e93872ddf3cd244aa9fe672e408e24987707d10c9248072cc67ce8145",
        "d8a550939b4cd7f842634be77a38f7a0c3888f81d47f469e9bda398198d3932b",
    ),
    "exactness-q-96-3-2": (
        dict(
            subcommand="exactness", ring="q", degree_bound=96,
            gamma="3", delta="2", s="1/2", t="4",
        ),
        "e68473e2cc6723001d4a177c2929cb150520185a586f9c423de4a2bd0d5b67a5",
        "757857bdff8beda03aa2153b816b42e2ca8ffdee6f03c1a59d4910575362024b",
    ),
    "exactness-q-96-c16-3-2": (
        dict(
            subcommand="exactness", ring="q", degree_bound=96, cushion=16,
            gamma="3", delta="2", s="1/2", t="4",
        ),
        "bbfcdd456f91d5350999218c6ba5d1a7585a1cf0a87b669f636cd7313f7b4216",
        "757857bdff8beda03aa2153b816b42e2ca8ffdee6f03c1a59d4910575362024b",
    ),
    "exactness-fp101-96-c16-37-5": (
        dict(
            subcommand="exactness", ring="fp:101", degree_bound=96, cushion=16,
            gamma="37", delta="5", s="17", t="88",
        ),
        "08955f1cc3b0883ff094a1ed3e0de0a5afc26f9df196b13f1e4c51aa5bcaee83",
        "757857bdff8beda03aa2153b816b42e2ca8ffdee6f03c1a59d4910575362024b",
    ),
    "dual-q-96-3-2": (
        dict(
            subcommand="dual", ring="q", degree_bound=96,
            gamma="3", delta="2", s="1/2", t="4",
        ),
        "867976fccb01a4bc2158e318777aa52dd5a877df98f788e3a25c50899bdd4321",
        "6cb034a169fca6a241418b4a354f79f4ecab224a224c074e3d5dc12cf9b6231d",
    ),
    "dual-fp101-96-37-5": (
        dict(
            subcommand="dual", ring="fp:101", degree_bound=96,
            gamma="37", delta="5", s="17", t="88",
        ),
        "cc91e87323691cb6aecd6419089c34a62f04c35dc44b6bf70cc77a4b43ed858e",
        "6cb034a169fca6a241418b4a354f79f4ecab224a224c074e3d5dc12cf9b6231d",
    ),
    "exactness-fp2-24-1-1": (
        dict(subcommand="exactness", ring="fp:2", degree_bound=24, gamma="1", delta="1"),
        "62289955267df8085c29c5ca9b3af045004b6dd8865a2499fb0abbdaaf3f755f",
        "d547547f77467b7470ba4cc441ec65d01b1c4ee1c6c922adccf181fd4c318251",
    ),
    "exactness-fp3-24-1-0-s1-t2": (
        dict(
            subcommand="exactness", ring="fp:3", degree_bound=24,
            gamma="1", delta="0", s="1", t="2",
        ),
        "363581f0d45ef426869b7f4f3dbbaa76a924ae874850d9df5480da25874a07b7",
        "4480b0be558889299e25687a8ddd518f8ea7cdd3352685e09da4ba86752bf172",
    ),
    "normal-form-fp2-64-1-1": (
        dict(subcommand="normal-form", ring="fp:2", gamma="1", delta="1", precision=64),
        "3ddccbfc4ac302d1baa252044aef1c25ece593e902655f842d55992303ed82c3",
        "559edcbad150f7fd35c9c1a424afa467bebdd70a7a7a53dc82a4f84aef9cb5d2",
    ),
    "normal-form-q-40-3/7-5/11": (
        dict(subcommand="normal-form", ring="q", gamma="3/7", delta="5/11", precision=40),
        "bd06d5442dc60066f1cb00598e229cccb88361e6885bad0856732ee58d5d78ab",
        "372cfbbdbde2e36afd7639a0f5f12d7f160ccaff255df50b3f7a1b56819305e8",
    ),
}


def report_digests(config):
    report = cli.run(cli.RunConfig(**config))
    structured = hashlib.sha256(report.to_json().encode()).hexdigest()
    text = hashlib.sha256(TIMING.sub("", report.to_text()).encode()).hexdigest()
    return structured, text


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_digest(name):
    config, structured, text = GOLDEN[name]
    assert report_digests(config) == (structured, text)
