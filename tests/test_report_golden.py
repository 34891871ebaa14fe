"""Pinned report digests: run and validate reports must stay byte-identical.

Each digest is the SHA-256 of `json.dumps(report, sort_keys=True)` with the
wall-clock "timing" section dropped and a run's records array written as its
`tolist()`.  The circuits cover the shipped files,
random circuits over all nine gate kinds with mid-circuit measurements, and
one circuit with more measurements than `born_distribution` enumerates, so
validate's sampled-reference branch is pinned too.

Regenerate with `PYTHONPATH=src python tests/test_report_golden.py` only when
a change is meant to alter reports, and say so in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from bladesim import parse, random_clifford_circuit, run, validate
from bladesim.backends import BACKENDS, BORN_ENUMERATION_LIMIT

ALL_KINDS = ("h", "s", "sdg", "x", "y", "z", "cnot", "cz", "swap")
SEEDS = range(4)
RUN_SHOTS = 64
VALIDATE_SHOTS = 256
CIRCUIT_DIR = Path(__file__).resolve().parent.parent / "circuits"


def _circuits() -> dict:
    out = {p.stem: parse(p.read_text(encoding="utf-8")) for p in sorted(CIRCUIT_DIR.glob("*.qc"))}
    for s in range(3):
        out[f"random{s}"] = random_clifford_circuit(4, 24, seed=100 + s, gate_kinds=ALL_KINDS, measure_prob=0.2)
    body = "h 0\ncnot 0 1\nmeasure 0\nmeasure 1\nh 1\n" * 9
    out["many_measures"] = parse("qubits 2\n" + body)
    assert out["many_measures"].measure_count > BORN_ENUMERATION_LIMIT
    return out


CIRCUITS = _circuits()


def _digest(report: dict) -> str:
    report = {k: v for k, v in report.items() if k != "timing"}
    return hashlib.sha256(json.dumps(report, sort_keys=True, default=np.ndarray.tolist).encode()).hexdigest()


def _digests(circuit) -> dict[str, list[str]]:
    out = {b: [_digest(run(circuit, b, shots=RUN_SHOTS, seed=s)) for s in SEEDS] for b in BACKENDS}
    out["validate"] = [_digest(validate(circuit, shots=VALIDATE_SHOTS, seed=s)) for s in SEEDS]
    return out


GOLDEN = {
    "bell": {
        "dense-clifford": [
            "221b8865535752546c1b62684dc18013fdefdc4a5bb86b069d15a8d275ae9f44",
            "9eca9dd1e6963e3ffd9c09c9e60e17d522fbfd7e77731fcf75566e58e71abc99",
            "88cdb9bf4f33d74fe9d2c3ee037facc89969f5780a437f6f14b801b2338d51fc",
            "e1c4d8be242310867fb2ddbac5d563f48c8e5106f3b92c3c95e955bd426ae5d0",
        ],
        "stabilizer": [
            "746e256750be70f99f241dcc347a0b09ce17f9da8f0011f14938b8c95736e552",
            "1067f942badb4fbd556efc68a3e9625d6a93c95c00bdcb23e1f57e6ed7a33235",
            "0b62b6499cb8008df9a7198077ee26d3b3102f62daccf7e48f361d03f1eb3f6c",
            "6612c0c950ba720be63b7cd38da31cb2b1c057a4a3da6f175274e1a6038f1d8b",
        ],
        "statevector": [
            "c0f283991c7432c2cab6fbffb35be86ae7b9f281b8b13c1d5b203d496593ac76",
            "27e20fc71817a20b36c9df12c2adf96c2193a62d2b30d7390e7032ed22ed37e3",
            "d338e9809590963710831c1b106b4b067ec95200fce36695d46cb319681874d4",
            "c2e2aa3f6781f04c1456731392cd0e067a5b3948c20db8a9e2692468f702271f",
        ],
        "validate": [
            "8dd35332c741e17fec7ccd3ea497766243c3c74cce106810036d77020ded7c21",
            "4463663ce6d9b41f33712aa725615b4ddb0dd7d6edb564945ea9c9f0b035c4d7",
            "91726ada0370fef9ea55e2875daf9c2d79496e055a7fbe3c64543063faa8285f",
            "9951d61c18914193b68547a2a757c27a870638f48c8699dfbc31adf7cafd1d9a",
        ],
    },
    "ghz3": {
        "dense-clifford": [
            "3a36c6f54638a4e14ee20c72ee5906f24d9d06628d4fa207912e778364633c23",
            "0f18efb386b7f7f0bb5a1b89f79d7715e0cac052eeb39d6cfe35b38b8750e84b",
            "c6ba90da92fdf3fa424379382f3c35cbfd576577b91fa23bd843592448189298",
            "38299967d7fcff580211877e7e24974d1191a79aae92ae2dbecb330103493b10",
        ],
        "stabilizer": [
            "93ce783f0e2f9849c6fe61b62ce2afd2253229bd883a330247e773dbca771adb",
            "8fdefb6d641b6f0ad4030a2269eca27e7e23b082f27f21346b59530f32332246",
            "e07e979cdf20be8e9caa026e80d4c10e69da950be0201f80239bc36c0aefcded",
            "e502fc5003b1ed8d4df118dc41abac589c0315272dc20764d1284a2fbec684a4",
        ],
        "statevector": [
            "09002d49a9d0d937771e575096cdecdc7c23c2e4d50154061f7fa4d8ce988bca",
            "594c7d3a2b977f5c89a599ab79410bda95bec0d490b6a125dca1dd5f0a692e95",
            "003bc95a12725605d6094ff34020a471da5ed6554b89ccd0be4fabd6581928a6",
            "74fc6a7b05056fbf6eba6e936f0ed1f901e3a4e1b8cde85e4cbc04d0e2ceff16",
        ],
        "validate": [
            "76d171297f479dd7e7806f7e63fdb09661962efa911d247b9d8a47b602c7eaae",
            "655c659faa92f0e7534041dee6f2629617943ed3dc574bd41bacf3520820735c",
            "559e3685bcd04b66f7eaa611b7146da80d4837b34a630835b72ce45714ba31f7",
            "923ab1d99aba345b3ee4884fb44ca0d1baf28bd51383c9cf640d0581883e219b",
        ],
    },
    "many_measures": {
        "dense-clifford": [
            "7e4c0f2ccd7c1ead2397520f8614a1f3740a3ecb5ab71b9e4a968f39579c78ab",
            "9f622e7e36616a56d8b2be64f9dafff83e375b2cdaedb5502fd96b9000982bbd",
            "e144f5526bd507c7bbec01f8ace32fe3fe895ecacbd802f1d53c17e2d6d43755",
            "b59888de84967831fe33a062df9b6c971f802937fa7a003f77ade632861ce27c",
        ],
        "stabilizer": [
            "77c3858d3b2da8186fb20b3f9c22ba49ee27f1b131c6edde17755d5cad7afeda",
            "ee3f40d225f0a8de0d22993195f67c105c72415c2b60c074d1d2dd88fef2609b",
            "7e2dab56f2234ea6c4702901eb45d9f9fd49209edb1966d7f7256b70ea7e64e6",
            "8d8110976088b79c072e30198bd1026704b6d1e4ba21fce665278d84a03c85f1",
        ],
        "statevector": [
            "9f1e4b1fc3ec5228075ddc47ab684b50ddc4e3d97466f849075e1565dffcabd4",
            "1e048b2eac4ff78b0bef878669575e47d4af2e776fe8ef06d2371040d101b6be",
            "5f1fa07168d220ab7c63574ac9f076c760cc320b5959e45da5ba68a896fa4975",
            "4ea30ce716ae46ab3000ac209ccc63599fb9f6d44b8dba91fc6aa33e526125a6",
        ],
        "validate": [
            "bc3fb59da5b2b27b857e6cb8a31b9eae8d6f378922991c65cadb9df81199c6e6",
            "8d7b3bc32d4024efe30b15af73bfaae90a277d429d81e591f854ef4eb832a85a",
            "845ddf960bb5971f67088d94268953ab78bd7a6c9268d452ce2333f769008f9a",
            "e30972b7b9e5949d6ef4bff0181165525cd2f910b563be0e97907e793eb75b19",
        ],
    },
    "random0": {
        "dense-clifford": [
            "c215e32307c17c7926b0c3f9a1816db2be10ed5a4ede0bbdb04795c40f9e033c",
            "12f8456330d5008a3425a4d6857b0eaccef92eecc2d768f1093e79331f16c96f",
            "29ca5b7b8155eb1322472aca1871ef76508d47115ba65d1297fdda17a1e71c61",
            "a7193ee08f9faacb431d80dbfa738b51098f48d70adc6bb3f7c04ff720b68973",
        ],
        "stabilizer": [
            "cb6db3bb13c66927c19994003447a9e1ad52e166d56a23c237e9f733cf81f939",
            "da92ba94d00c9f6272bc0ce6dd7a820070a595c92d043829b5546512594bf1c8",
            "6b1f64ff137fe967b30dc0f4d82fd5b407856a07c27f94429c54ad01154e4309",
            "795f7668abdbe001264e89e61badef52f889bda5aca386514ffbd0a655e5e568",
        ],
        "statevector": [
            "7a6e6ca4623e1926b6c2b6776205e1d36e0ae6aa952bf53ef83a01351af58163",
            "0de1c3de8a07b525482b1b0ff242e20068f8cffead31fb60d0aa673d142833d4",
            "24ab8d35b43a96c50f7f3bd4cbbaeea711c14a43716167f0145ef54aee1933d8",
            "097e1038fee1bb680e40c35fd939872a922440e29e5de88c07021d493088cccb",
        ],
        "validate": [
            "45c373d79133a62c75cc2832d0e85e15b914dc7ac06032cb86442b2a7a490410",
            "8c7e4fa9abb2bf5e9fd95c5b9851da42b28417648276c6bec255341cf035b0f7",
            "0c14dde2a060ab977121710ef8630b266d61b6727806e4153baf0d1074526145",
            "7902d7d2676608d3e889628ad9b0c818e1f6df7a782d4d436665dae109e76804",
        ],
    },
    "random1": {
        "dense-clifford": [
            "52bc3e2399ede98d6ae2427b226f04a8028b351e7df2cd69adeafb34dca5a142",
            "4225256e811fb4aaa9fcc1407702e088797c37bbc4c3660902b6cd3f7ff1ab7c",
            "65fd7bcb5d7a2f8113e8f29ec1583500e370042149a08b0246ef563da1439b3e",
            "b1e4897d9bbca60512942fe7d28c229d1fb63d847d2cbf09c73d82623f57ed0e",
        ],
        "stabilizer": [
            "a2196975df5c4e9470f322762215f61830e1c2c1c216d1f20a79c259bda0ae84",
            "31f555d28a6059234718d758ebf2ab229afedf45b170aaed1d4dc1e7c78228de",
            "2d0ce8b623824b5803c3650017679e8e124ab849f8726a1f1559c169166058bd",
            "167f52052044a4db8b5068d8aea6d16abdb6a4ac8a5e1350cfd90947fddcb324",
        ],
        "statevector": [
            "542205bc3adcf006098f15c63e64f75c98344634e5237fc281520fc95889fe7f",
            "c02b193b5a2bac271f4948d363e9d430bda4ec833a6f0f3cb3551f41bf7dd165",
            "02c57743c63930120f38de4829f6ec7e981aa4b81f4d3c89dac50287a5213d1a",
            "436d3ae4f36d1f3d457b678fab33473f8e8989d0d432cb784f625a48624a02d4",
        ],
        "validate": [
            "2ba663718d7da0a47bad2cdbd128153ad12b91832b305451e461e53917bd5216",
            "fc53e45d2f0be2d8a60966c75a329099f2e2856e8a6f82602660e937e8c40786",
            "b80da59d6623898cde1424196bcb5f6511593d0fbdb0f8f4563001d4f4f9834b",
            "8861910816a1543099ff27389efe2582a634a5b45f5d196b786f7c0e2468fcfe",
        ],
    },
    "random2": {
        "dense-clifford": [
            "a26836a8408b7e6b8c3812f6a85bd39a3364fa6d66ef744a1768e33708695e15",
            "e0d04c28e2ee5b2007e53014e32b9cffd5a5c9e8d2947ded4384fff75456dbf4",
            "b8342327b94699547eebf28fb7000c6ceefd3f3eef70e489ba2cdf5deba21df4",
            "00b95a09cdee33cf292518fdd7f9617650db6e6f6ea6e39ad4ae9bba5f0c5127",
        ],
        "stabilizer": [
            "c935a6db84b2aea6e18bf7282807e478e6ea466767fdb18780bfc7a99d563751",
            "462f9cd53e90313be33b19304bc5581f3fba38bf7992c8c3ccf3583f8a816407",
            "086a1aa7b5ce8dc8e8cf5f25eef6e442312df5d292dd063c8c7d002253cf81b4",
            "2c8e0e677b28038f61d15e1d11d1f9f888dd2f3f8ca20975493f045953ddaba9",
        ],
        "statevector": [
            "a8b79fd636f5aa6a5a603e194a3edf8d14dd48140e8f1fa1c81d2d365db673a4",
            "ae3226961b593b1f2c3fd39a546054029ef6dc396255231fe4961d3df429c0f7",
            "37f296efd8c5db7c7cf93cb7a21d284c7455c85cd13607a1facf45beb3285429",
            "956f3df0468e155f64d93e45554bf22ea622d37d5cb0cf5ab69934e370a9dea8",
        ],
        "validate": [
            "321b4ad07fd4eaa331d2299416a7f27e7e898fd0a2a6e69b86ed6223ff358b2b",
            "bb587dcc0327fda6bca303d28a5595d2aa06998ea2f1951abc03f80bc50c2cc6",
            "4415d9074e161dff2bb4576db5ccca16e4ab07f0497dd05570a34541b68af0c0",
            "1369d195f0d1d7a0de06dd69065f39a990ebca027ae8eb0d7fe21b1980d66c62",
        ],
    },
    "teleport_like": {
        "dense-clifford": [
            "a2205eaf34cd65753784fda94cd75405eef38e5ba661b9b82d215e87365c4aad",
            "043d2dccbe4f37fa86d3b1867e90bbe6053f6a9ab7f32ba136a6e13729501206",
            "63a93beebcbb1b7a210dccd48b76f282014ac60f075072298a0e573bf4bd273f",
            "1318ebbe3079b85ce8ac5400b42833c46245a774a9fcb8d54b12dff8b48c912b",
        ],
        "stabilizer": [
            "f1f9312525c4d1759bae358de3b2c2ccf8d9af83ba41256198c41acc6282c30a",
            "0bdf8a183fb573512225e6bfc1eacb411914489f747351a621684fde953dd577",
            "ab78e15b621eca71e61ba396460ad0ceec71d12e35d9bf7930de0ff4469bbc0e",
            "b95a0a1dfb2b21cb1064c75045ec30fca5a4c07b8cf7fd1e8b9aebf3cbc7f78c",
        ],
        "statevector": [
            "4462c92c14c514a55c255a6d663c92c650307f4e02496f260713ec0972d1cbe1",
            "2398480f3136961c42a1a185f55225ebc50be4d5c65ef69af3831559f1d66cb8",
            "a6b3742d46cd3531a09f35d25a140c1b4e5c2f4bc8ce0226b78e6893a02af6ea",
            "76843f6f44a4b3c5cab0df1b1862b08a717e3dc9cbba7c5713fc90742ff97b48",
        ],
        "validate": [
            "8b7f9e2f35fd3af4c1cf949c908441065267fe16b0800feb8ebd0e903bb40cde",
            "50b2ee5ec6aadff11f488949bf7bce3ae5f05d7f6e94148c80f06878cabb28f8",
            "f403ebd62124c225b5373478b36a62caf15dc408101e675f2d66d8c0265aa448",
            "08af627ee298e68e454d5061fce416ff1864df92fca67b3f2a03f207a2bda395",
        ],
    },
}


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_reports_match_pinned_digests(name):
    assert _digests(CIRCUITS[name]) == GOLDEN[name]


if __name__ == "__main__":
    print(json.dumps({name: _digests(c) for name, c in CIRCUITS.items()}, indent=4, sort_keys=True))
