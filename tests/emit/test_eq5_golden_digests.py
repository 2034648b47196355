"""Golden digests: the Eq. (5) chain's output is pinned for every spec.

The SHA-256 of the ``qasm2`` text of each spec × target the
``eq5-cold`` benchmark compiles (``perfbench/workloads.py``: the CORE
pool plus the heavy hwb6), captured before the pass layer was made
linear.  ``tests/emit/golden/`` holds the full text for hwb4 only; these
digests extend the byte-identity guard to hwb5/6, the adder, gray,
rotate and random specs, so a pass rewrite that moves a single gate on
any of them fails here.  The ``state_token`` literal pins the content
digest the pass cache keys on: if it moved, every disk cache entry
written before would miss.
"""

import hashlib

import pytest

import repro
from repro.pipeline import state_token

#: (revgen spec, target, sha256 of the emitted qasm2 text)
EQ5_DIGESTS = [
    ({'hwb': 4}, "clifford_t",
     "f692a9c27f6dece8a4a7d99c0c68664dc835c18d559ff215371d423e60006f93"),
    ({'hwb': 4}, "qsharp",
     "7c754fc3238317d3b8fefa089accd0799e81d35aca5f73b7712891ab15b1b8a6"),
    ({'hwb': 4}, "ibm_qe5",
     "7f9967849d8cf550b15dd3e0ba97de91f087eb6bd9ad98d0582aecfea49bdc9b"),
    ({'hwb': 5}, "clifford_t",
     "a5c6db5f191d58a8e57a5c33a4fe68af7ee2340e832332e6d937991344c0b486"),
    ({'hwb': 5}, "qsharp",
     "ce9313c2db22850740ab51444639bd40a02be345380132a9e3b2a7dc8a84bd16"),
    ({'hwb': 6}, "clifford_t",
     "1e2493caafd2d9e4fde0e1ae1b9dd2731f66e5c3657983ced433e82b51ba2151"),
    ({'hwb': 6}, "qsharp",
     "e998e57102edac09b92e713d464bb7ee719de15aec80893aa07ae2dd1a5dfe7d"),
    ({'adder': 5, 'const': 11}, "clifford_t",
     "7cb2baa3bd1a7a814a20218ff060998b3b32e4e1fc902017e04ccfa64ec4e22a"),
    ({'adder': 5, 'const': 11}, "qsharp",
     "74bf63a6a7293e2064f06710095bb6420cb632932ca1cfe11714efb37d034199"),
    ({'gray': 5}, "clifford_t",
     "dc86e5bff7d1b2c9240df3e4af57452040d7e2c79e3aa2726a3a4a30a384d7d6"),
    ({'gray': 5}, "qsharp",
     "22000d5cf26e89f8e2bccf45a0633749e663f8ade1b498f9d95de0648902c68e"),
    ({'amount': 2, 'rotate': 5}, "clifford_t",
     "28922cffa9891908b587917adeffe216dd9edd3991b66c99f0f6eb9e918b5ba6"),
    ({'amount': 2, 'rotate': 5}, "qsharp",
     "c61eed4b1d4c48137eadfc74ca945f60ac8f6032529790b1b30c3808374186db"),
    ({'random': 4, 'seed': 2018}, "clifford_t",
     "5e2b9d471d6a7e8605bd182ebfccdd474e18b4585ba0d013d4a632ad7d3b927b"),
    ({'random': 4, 'seed': 2018}, "qsharp",
     "95d1fc41c035afd642ea8f15448846c8e7ba0e6b5f7767680b12025a1511eea1"),
    ({'random': 4, 'seed': 2018}, "ibm_qe5",
     "76d23b43be1b840fb47356d636767116aa339f2ed812bfb04b5b38125227d0e7"),
    ({'random': 5, 'seed': 2018}, "clifford_t",
     "00899e78b492353c48fc09175c78e71fda7b6df065d84d6f60c939a1c0dcaf94"),
    ({'random': 5, 'seed': 2018}, "qsharp",
     "94604003fb85e6e8e1c3add5721dba4084eb722eb7eb2734309da4ea3c5878f8"),
]

#: content digest of the hwb4 -> clifford_t final circuit
HWB4_CLIFFORD_T_TOKEN = (
    "ab6ffddc6164a47cef574bb3babf56d931dbf13eb28055610aa468e0e33fc6e1"
)


@pytest.mark.parametrize(
    "spec, target, digest",
    EQ5_DIGESTS,
    ids=[
        "-".join(f"{key}{value}" for key, value in spec.items()) + "-" + target
        for spec, target, _ in EQ5_DIGESTS
    ],
)
def test_eq5_qasm2_digest(spec, target, digest):
    result = repro.compile(spec, target=target, cache=None, verify="off")
    text = result.emit("qasm2")
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_hwb4_clifford_t_state_token():
    result = repro.compile({"hwb": 4}, target="clifford_t", cache=None)
    assert state_token(result.circuit) == HWB4_CLIFFORD_T_TOKEN
