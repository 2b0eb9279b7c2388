"""Byte-level golden table for the command line.

Each entry maps one argv to the exit code and the sha256 of everything the
CLI prints on stdout.  The digests pin the exact bytes: a refactor that
keeps every value within tolerance but moves a float in its last printed
digit still fails here.  A change that moves a digest on purpose names the
digest and the reason in CHANGES.md and updates the table; the failure
message prints the new digest to paste in.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

import pytest

from holeshift.cli import main

PO3 = ("-b", "3", "-m", "2", "--schedule", "po:seed=012")
EXTINCT = ("-b", "2", "-m", "1", "--schedule", "multi:(periodic:0);(periodic:1)")

# (argv, exit code, sha256 of stdout)
GOLDEN = [
    # roots, in every format
    (("roots", "-b", "3", "-m", "3"), 0, "e22b5c0c8b4e8dbf903be02f7e5bd01c15277a6d55e74409bc68cc68de3910a2"),
    (("roots", "-b", "3", "-m", "3", "--json"), 0, "752461c777d744a3e7f2fcf88fdc5c4fca02216525019957d492f714aebfa498"),
    (("roots", "-b", "3", "-m", "2", "--csv"), 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # exact counts
    (("count", *PO3, "-k", "40"), 0, "2ea7c0b3bf53115b22c0a006dc34f7e8fc0076879558f7e423407d82e9b74d80"),
    (("count", *PO3, "-k", "40", "--json"), 0, "201c44de20461d37d8f3de8b4c55963dea14ec979b6d2446ceb9a4f40859ad9a"),
    (("count", *PO3, "-k", "12", "--prefix", "10"), 0, "c9af1048392b20c12bcb8f90e54719c55447a6961a0248ac466d1c6c3ba8dc97"),
    (("count", *PO3, "-k", "12", "--prefix", "10", "--json"), 0, "659186930fa38089b1c8c21424dc258f5f1caa300c80c0c780f562bf5cb58466"),
    (("count", "-b", "3", "-m", "3", "--schedule", "td:seed=rng:5", "-k", "60", "--series"), 0, "ac55f165133a73c08dcf92e2ff06763ee48be5cbea4916f29b1296ee11f38bbe"),
    (("count", "-b", "3", "-m", "3", "--schedule", "td:seed=rng:5", "-k", "60", "--series", "--csv"), 0, "b68b03c9ddd23f5b72ace26e618cd2e88afc7d71f2a3ec914d4300f21ad60095"),
    (("count", "-b", "3", "-m", "3", "--schedule", "mixed:seed=01", "-k", "30", "--series", "--json"), 0, "e72bffe9c60987dc5fdb998b204bba99b754f6987b3c233614087e8d01ee9db1"),
    (("count", "-b", "3", "-m", "2", "--schedule", "multi:(po:seed=0);(periodic:11)", "-k", "50", "--series", "--csv"), 0, "f6e3ece35aa6c8aefbe50f3b37a5e112e11b19f5d1e55283a7bacf855c557242"),
    # log counts: single value, and series at 1, 3, 9, 27, 64, 128 and 243 states
    (("count", *PO3, "-k", "700", "--log"), 0, "7405370c7912696c4519c059fa60e9fcc84dd59dd82096318b7dbf934d2ce725"),
    (("count", *PO3, "-k", "700", "--log", "--json"), 0, "28f99c17a0ec9b8d1990ef28c9edd10235ceddec8f04bf255144711272705522"),
    (("count", "-b", "2", "-m", "1", "--schedule", "periodic:0", "-k", "300", "--series", "--log", "--csv"), 0, "6287fe10b21cea88fd7ef141435c5c2254316908f0cfe2c94a9e1c5c5e79df5f"),
    # 98 survivors per step: 98 * (1/98) rounds below 1.0
    (("count", "-b", "99", "-m", "1", "--schedule", "periodic:0", "-k", "400", "--series", "--log", "--csv"), 0, "86783c35a7493e9b4536aded83354098d9f634822a3a3073d55d1199e2ea3a38"),
    (("count", *PO3, "-k", "3000", "--series", "--log", "--csv"), 0, "67d757f9c33825e93b8630a1f77e6878e0411015807717456c728a5ea1376f63"),
    (("count", "-b", "3", "-m", "3", "--schedule", "td:seed=rng:5", "-k", "3000", "--series", "--log", "--csv"), 0, "b222b20631dba004cef8d185a2dce846d6931c04dbbcf96c1ff30b507b0aac94"),
    (("count", "-b", "3", "-m", "4", "--schedule", "mixed:seed=01", "-k", "3000", "--series", "--log", "--csv"), 0, "cce7f914c58ed2a2a81f6f14f019cbea04b0f9addf166a83f063eb81edacde55"),
    (("count", "-b", "4", "-m", "4", "--schedule", "po:seed=rng:3", "-k", "2000", "--series", "--log", "--csv"), 0, "48772f830a89213a2dec44198631532f8fdfcd720e686bed6de0a284a07f28b7"),
    (("count", "-b", "2", "-m", "8", "--schedule", "po:seed=01101", "-k", "2000", "--series", "--log", "--csv"), 0, "054de4658ed69cb10ea6cf05437702911d7ecd585afd25a70fa57c502f3c184e"),
    (("count", "-b", "3", "-m", "6", "--schedule", "td:seed=rng:9", "-k", "1000", "--series", "--log", "--csv"), 0, "72515ba82a396e29260eece39906b3338ec6bcb94e60c652c61c0adcc07dcb69"),
    (("count", "-b", "3", "-m", "2", "--schedule", "family:s=1/4,t=1/2,p1=1,seed=0", "-k", "400", "--series", "--log"), 0, "8be44ef28a64c6cf0a050ca58588f7cbaae7e7f456a11d017c4d6fcf741567ab"),
    (("count", "-b", "3", "-m", "2", "--schedule", "lpq:p=2,q=1,seed=0", "-k", "300", "--series", "--log", "--json"), 0, "065358cd3db3e623789b1ddb0991e934212bb461339815737ebfa964916c67ae"),
    # extinction at b=2, m=1
    (("count", *EXTINCT, "-k", "5"), 0, "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    (("count", *EXTINCT, "-k", "8", "--series", "--log", "--csv"), 0, "17baef09a93f73a6e12cee7670535e7cfef9809380493e28b9418bafa19f3dd7"),
    (("dim", *EXTINCT, "--k-max", "20"), 0, "7a64cfbcb3d4e10530ee46e60641261a10209a21b97c609dc97cb941c07c1463"),
    (("regularity", *EXTINCT, "--k-max", "20", "--beta", "1.5"), 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # classify
    (("classify", "-b", "3", "-m", "3", "--schedule", "mixed:seed=01", "-k", "1", "--to", "8"), 0, "d9f634c1b92abc3e9573e195c6119493c8b92fdcebb03990f72d8e7692b9b02c"),
    (("classify", "-b", "3", "-m", "2", "--schedule", "lpq:p=1,q=2,seed=0", "-k", "1", "--to", "9", "--json"), 0, "5990351e826fa398a2f2b2afb8cdb4d20fd374f6a8fad224020d18d22f141943"),
    (("classify", "-b", "3", "-m", "2", "--schedule", "family:p=1,q=1,seed=0", "-k", "1", "--to", "9", "--csv"), 0, "cd4b6441141f27bd8044400890c5991f4abe9d4abe47e9595d7806b4386dc5d4"),
    # dim on both sides of k_max = 10_000, and at 128 states below it
    (("dim", "-b", "3", "-m", "2", "--schedule", "po:seed=0", "--k-max", "2000", "--predict"), 0, "b456539b96dd8cf7f1d134a69df6047179dd21175d4c099109c464efc6567e85"),
    (("dim", "-b", "3", "-m", "3", "--schedule", "td:seed=rng:1", "--k-max", "12000", "--predict"), 0, "39d1fee14246813d56b1f9ba08b61160f11096545c286a521157dd768a706cc0"),
    (("dim", "-b", "3", "-m", "2", "--schedule", "family:s=1/4,t=1/2,p1=1,seed=0", "--k-max", "10000", "--predict"), 0, "b1cc65a3f6810cdbefdbdcf7e003fb7654ce6c8ab05491fbd8050853bba9d28e"),
    (("dim", "-b", "2", "-m", "8", "--schedule", "po:seed=01101", "--k-max", "1500"), 0, "22753802625227a39fe348bce4f9dac1341160ed449fb4ad30184c8840cc1999"),
    (("dim", "-b", "3", "-m", "2", "--schedule", "po:seed=0", "--k-max", "200", "--csv"), 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # regularity on both sides of k_max = 10_000
    (("regularity", "-b", "3", "-m", "2", "--schedule", "lpq:p=1,q=1,seed=0", "--k-max", "3000"), 0, "b4c9dd0082a7366073be4ede994129729bd2d089103a5c915007e79e125afa5e"),
    (("regularity", "-b", "3", "-m", "3", "--schedule", "mixed:seed=0", "--k-max", "9999", "--json"), 0, "f2227638a1789728788d10dcf33f8ef6b13edfa7e31a6bfb185915c7a0e16367"),
    (("regularity", "-b", "3", "-m", "2", "--schedule", "po:seed=rng:4", "--k-max", "10000", "--json"), 0, "16ba70d28c867d2fc63f0cd449df386091641ab21b3bf73b81866eb30a433a6d"),
    # jsr
    (("jsr", "-b", "3", "-m", "2", "-n", "5"), 0, "be02237b0261443af115477ecff951a6b57a82293b8db3280896788908793771"),
    (("jsr", "-b", "2", "-m", "3", "-n", "4", "--json", "--check-periodic", "001|011"), 0, "486666f1b421da507962263f344999ea946e3e4fcddc62eab2bc499ca8ac67ce"),
    (("jsr", "-b", "3", "-m", "2", "-n", "4", "--csv"), 0, "6ea64d0c310aa8a54d90dc581c7576527b844050e90f1d38e76f04136d9d79ea"),
    # build-pq
    (("build-pq", "-m", "2", "--s", "1/4", "--t", "1/2", "--cycles", "6"), 0, "63cd080ffb6d6dcf5dddfed0ad065600a0d01802cb14109d1a588ee099871f70"),
    (("build-pq", "-m", "3", "--p", "2", "--q", "1", "--gap", "none", "--json"), 0, "ae4b62faae9c030b7638e9a8aab20bd7396cf64b2903ed2327eaf585efc40f08"),
    (("build-pq", "-m", "2", "--s", "1/3", "--t", "1/3", "--cycles", "8", "--csv"), 0, "310a48b35a5b9ce776a06166ea081cf61ec9a2e7f611b15e6fa050036ef136f9"),
]


def run_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=[" ".join(a) for a, _, _ in GOLDEN])
def test_cli_bytes(argv, code, digest):
    got_code, got_digest = run_cli(argv)
    assert (got_code, got_digest) == (code, digest), (
        f"argv {' '.join(argv)!r}: exit {got_code}, sha256 {got_digest}"
    )
