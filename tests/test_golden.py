"""Byte-for-byte pins of CLI reports.

Each entry is the sha256 of the stdout of one fixed command, so any change
to the bytes of a report (row set, order, details, TSV layout) fails here.
"""

import hashlib

import pytest

from ariki_koike.cli import main

SPLIT = ["--n", "2", "--r", "2", "--s", "1"]
GOLDEN = {
    "verify-all-Q": (
        ["verify", "--suite", "all", *SPLIT, "--q", "2", "--Q", "1,5"],
        "dae950ff656e10abdc446ce7028fbe5bb1057df01943950f0d502627365910f3",
    ),
    "verify-all-GF5": (
        ["verify", "--suite", "all", *SPLIT, "--field", "GF(5)", "--q", "2", "--Q", "1,4"],
        "94bd3ffbb99e908153f7d9d6244b73977e2853354cefd9c1c791c4c7a8dbacd2",
    ),
    "verify-morita-b1": (
        ["verify", "--suite", "morita", *SPLIT, "--q", "2", "--Q", "1,5", "--b", "1"],
        "f628ccf82cb0cba17e6427a49245778510d1729aa410583f41d2eebb1b1e1e5b",
    ),
    "verify-morita-r3-s1": (
        ["verify", "--suite", "morita", "--n", "2", "--r", "3", "--s", "1", "--q", "2", "--Q", "1,5,7"],
        "94a8e88d830460dfc3981f59cec32db69dbd8187a378afab603a292d2abd7721",
    ),
    "verify-morita-r3-s2": (
        ["verify", "--suite", "morita", "--n", "2", "--r", "3", "--s", "2", "--q", "3", "--Q", "1,5,7"],
        "26fe50cc17a722f3cd9b1fca5c706d2724b1a5ee57f77e39de81fe97d5a2a8aa",
    ),
    "verify-morita-n3-b1": (
        ["verify", "--suite", "morita", "--n", "3", "--r", "2", "--s", "1", "--q", "2", "--Q", "1,5",
         "--b", "1"],
        "5a7a4e6a80a1fd2fb09d01710bb6ee00ea21d887f33f5c2e6315bd00ff5963bf",
    ),
    "decomp-GF5": (
        ["decomp", "--n", "3", "--r", "2", "--field", "GF(5)", "--q", "2", "--Q", "1,2"],
        "131d4d7bddf78540e6af07126b90feba6566b80775360e2d2261f09c0361d616",
    ),
    "gram-Q": (
        ["gram", "--n", "2", "--r", "2", "--Q", "1,5"],
        "e09577791ff941cac4f9561a4d9d807effbf514ef252800150b0e68b41270092",
    ),
    # fractional q and Q: the product engine works over denominators other than powers of q
    "verify-all-Q-fractional": (
        ["verify", "--suite", "all", *SPLIT, "--q", "3/2", "--Q", "1/3,5/2"],
        "b003ba59dfbfcebb6e2e1b5108011d25808689ce2cfaf92677c9c9e7951bae83",
    ),
    "gram-Q-fractional": (
        ["gram", "--n", "2", "--r", "2", "--q", "2/3", "--Q", "1/3,5/2"],
        "f4c298572be7de896d130de57955c24659501dc6ecccb888139f2f339f99a0de",
    ),
    # suites no benchmark workload runs
    "verify-cellular-n3": (
        ["verify", "--suite", "cellular", "--n", "3", "--r", "2", "--q", "2", "--Q", "1,5"],
        "3a3a6cbb52075d4e923001bce955234c4329d5d26e3881a943224704319e95fb",
    ),
    "verify-specht-n3-GF5": (  # q-connected: Q_2 = q Q_1
        ["verify", "--suite", "specht", "--n", "3", "--r", "2", "--field", "GF(5)", "--q", "2",
         "--Q", "1,2"],
        "88a4d9fb9e6e28a9a980fd9471a036276e2ef2ff499feb8113f9f63625bba54f",
    ),
    # Specht actions and Gram matrices whose int-form rows carry denominators
    "verify-specht-n3-Q-fractional": (
        ["verify", "--suite", "specht", "--n", "3", "--r", "2", "--q", "3/2", "--Q", "1/3,5/2"],
        "6e84f3f0dcafebd7bfbf7bc27f8f90867fdadcd923047158c68beeda30ee0d59",
    ),
    "gram-n3-Q-fractional": (
        ["gram", "--n", "3", "--r", "2", "--q", "3/2", "--Q", "1/3,5/2"],
        "0a2c4e324a38926c1926f9734b1bdd4e2d4c44b48b560519774b8796cbc52cca",
    ),
    # the Schur battery beyond n=2 r=2, and the Morita battery over GF(p)
    "verify-schur-r3": (
        ["verify", "--suite", "schur", "--n", "2", "--r", "3", "--s", "1", "--q", "2", "--Q", "1,5,7"],
        "b4e773386520daf96c80fc1f40b58b20e90bbf979000b5e552297fd167961f9e",
    ),
    "verify-morita-r3-GF7": (
        ["verify", "--suite", "morita", "--n", "2", "--r", "3", "--s", "1", "--field", "GF(7)", "--q", "3",
         "--Q", "1,2,4"],
        "f53067270016f124eaa9b3a64ddb384d61b1224cc33ad293b0e641ddc5e80d19",
    ),
    # the product engine's heaviest default relations instance
    "verify-relations-n3-r3-GF97": (
        ["verify", "--suite", "relations", "--n", "3", "--r", "3", "--field", "GF(97)", "--q", "5",
         "--Q", "1,2,3"],
        "858482a7c13e444f7b7733297664ed24511bcbe3d2c28c9bdc6514614c5fd8f2",
    ),
    # q = 1: q - 1 = 0 drops a term from every local move and Hecke step
    "verify-all-q1-Q": (
        ["verify", "--suite", "all", *SPLIT, "--q", "1", "--Q", "1,2"],
        "226d731ad8b254204cf99bc7033038b47a9381f8040ca8e66633e5bcb66c1165",
    ),
    "verify-all-q1-GF5": (
        ["verify", "--suite", "all", *SPLIT, "--field", "GF(5)", "--q", "1", "--Q", "1,2"],
        "3291fdd40efec5d9cd6e60122cf824fd0fe3c2a7a23bf3725c3858232ccf7c30",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_bytes(name, capsys):
    argv, digest = GOLDEN[name]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
