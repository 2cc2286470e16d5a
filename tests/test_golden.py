"""Byte-identity of machine output: the sha256 of ``homrec verify <suite>
--json`` for all eight suites at default scale, for the seeded suites at
the cut-down scale of the benchmark's suites workload, and for claws at
n = 4 and n = 6; and of ``homrec analyze --json`` on a fixed set of
fixtures in every mode.  A change that alters any byte of a suite's JSON
or of an analysis report fails here."""

import hashlib

import pytest

from homrec.cli import main

DEFAULT_SCALE = {
    "alpha": "eb410a713ed891ebdb897b6c77656ca3b3c972c7647e11dacc5c555a8a836eed",
    "claws": "f6ec85658406529b30dee90df014a1228313abe0530995e0ae58db311fd6b929",
    "connectivity": "ab6ec53469f158e785db69fcd24b2d73e7fc28551663ed27c82c427fdcd8a8c4",
    "oracle": "b63596dc1ecb568dde1f8c4f5ba8604252e8369f7ee5f002ef944f403e718188",
    "parity": "98c0add28b7af4c7650eb75e8e2b72b150fc7001b05ddb2bf8a45492e2d305ea",
    "partition-theorem": "669944baf8775f917bd5638d4f1983d48e51fd150755770f2a8efcf0aaabf896",
    "r-sweep": "8d1c1dce8a05233f57cc8dbd77e818a49f286e03a90efc081a1eb09052b2febb",
    "theorem63": "7af52e8c1edd2ab8694469ded617d7fc125e55f03aa2ca21b28313f918b10ea0",
}

# the seeded suites as the benchmark's suites workload runs them; the other
# four run there at default scale
CUT_SCALE = {
    "oracle": ("2000", "3d474edf347a5b477b72f5400d59a95664761a2e52db2137940a015be15a9f14"),
    "r-sweep": ("200", "437074d7e5b9fcde0c3d81cc49daef707fc9464ae01479cb8b0f0d1cc82c795a"),
    "connectivity": ("200", "188322227c2fc03e44a2135757c65a81095eeb1983b893876401fb227ee4b73d"),
    "theorem63": ("4", "4d74c14be640e5d2bf56856f77454ecb6b8d2d2fed271c3e23fcb717a9481fb0"),
}

# claws below and above its default n; at n = 6 this is the exhaustive
# agreement of the pair-class search with the brute-force sweep
CLAWS_N = {
    "4": "f9b3e91b687807bcd1c8c685e987654116be542a58881cab6d755464984b9f9d",
    "6": "e016cc1d3d2e30ebd2c1563afc5f4fe7c06c0fc2240eefa5a5d3bc733f4eff13",
}

CASES = (
    [(["verify", suite, "--json"], digest) for suite, digest in DEFAULT_SCALE.items()]
    + [
        (["verify", suite, "--json", "--samples", samples, "--seed", "4242"], digest)
        for suite, (samples, digest) in CUT_SCALE.items()
    ]
    + [(["verify", "claws", "--json", "--n", n], digest) for n, digest in CLAWS_N.items()]
)


@pytest.mark.parametrize("argv, digest", CASES, ids=[" ".join(argv[1:]) for argv, _ in CASES])
def test_suite_json_is_byte_identical(argv, digest, capsys):
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# analyze on a generated fixture.  Auto mode is exhaustive when the pair
# classes fit the search: every coloring through n = 8, alpha(9) (11
# classes), alpha(16) (18) and random(20,0.5,3) (2).  alpha(17) has 19 and
# is structural.  The last three pins force structural mode, which reads r
# from the search wherever no critical pair gives r = 1 and the classes
# fit: fig-no-critical-pair(6) has only a critical cycle (r = 4, complete)
# and random(6,0.5,12) neither a pair nor a cycle (r = 7, complete).
ANALYZE = {
    ("partition(7)",): "14aaff2b0c84a0749fbb941c1db74e5ddff394cb613fdd72abc5c4a6f0d94cd0",
    ("alpha(7,0)",): "03296f30b758df5bab95f0d6ce35573decace1ece87f9d38e00e1ce2c99f92bf",
    ("fig-no-critical-pair(6)",): (
        "a4f7f23c3268aee3be65ea7e3c16b12fc4a9dcbdd99b1e19ca49f1d6c6e2fbb4"
    ),
    ("random(7,0.5,1)",): "6f735edc023831bb2882e38bd7e45e8669938a0f1d476f5528a0e4e7405917cf",
    ("random(8,0.5,2)",): "e29839e48e978973354cc0100fdd4ebe7f8a7ea9c2f4e9ad804eb90083c99df8",
    ("alpha(9)",): "4fc66a957f629d4f99d477e966ba493aad1733558003dc9bcaa6dfca9c93a236",
    ("alpha(16)",): "69a252891f0983caf168e87a1b905a0b95f070f7c0c1e389b6ae4cfc479208a1",
    ("alpha(17)",): "57c5d1c33784447f3c916e25d4d87eb9deb20cd95943c1f01808fb6e86b3f44d",
    ("random(20,0.5,3)",): "cea64f4a41d82909a8fe6bf2cfaaf47ee7ade65aea86188ec4e39c3663480f1e",
    ("random(20,0.5,3)", "--mode", "structural"): (
        "4df7891f331445e4f635915d0df8b02d16c36adfff23b2b0eff83b0140fd1150"
    ),
    ("fig-no-critical-pair(6)", "--mode", "structural"): (
        "e91f87f7cf33ff144986fe1469871aef0b85b7b084a56f00d41dcfe75460c6f1"
    ),
    ("random(6,0.5,12)", "--mode", "structural"): (
        "2f90c05ec4c24d825b00a8b44f4f6420bdb7d36556e6d0357c4a7a31efc0ea49"
    ),
}


@pytest.mark.parametrize("args, digest", ANALYZE.items(), ids=[" ".join(a) for a in ANALYZE])
def test_analyze_json_is_byte_identical(args, digest, tmp_path, capsys):
    fixture, *flags = args
    path = tmp_path / "coloring.json"
    assert main(["generate", fixture, "--out", str(path)]) == 0
    assert main(["analyze", str(path), "--json", *flags]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
