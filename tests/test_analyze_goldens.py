"""Race and predict reports are pinned by content hash.

For every check scenario × {no mutation, the five seeded bugs} these
goldens fix:

* the text of ``run_race_detection(...).report`` — every race, its
  vector times and call sites, and the shared-access count;
* ``predict(...).describe()`` (the output directory normalised) plus
  the name and bytes of every witness trace it persisted.

Call sites are labelled ``path:LINE (function)``; every digest hashes
the text with each ``:LINE (`` written as `` (``, so a golden pins
behaviour and moving code within a file leaves it unchanged.

The hashes were computed with the live vector-clock detector that the
post-run pass over the captured trace replaced.  The one intended
difference is ``lock_order_inversion`` on the three scenarios where a
lock cycle closes: the wait-for monitor now watches every analysis run,
so the race run ends at the fatal request with
``PredictedDeadlockError`` (still 0 races) instead of wedging.
"""

from __future__ import annotations

import hashlib
import re

import pytest

from repro.analyze.predict import predict
from repro.analyze.runner import run_race_detection
from repro.check.mutations import MUTATIONS
from repro.check.scenarios import SCENARIOS


_LINE = re.compile(r":\d+ \(")


def _unlined(text):
    """``text`` with every call site's ``:LINE (`` written as `` (``."""
    return _LINE.sub(" (", text)


def _race_digest(target, mutation):
    res = run_race_detection(target, mutation=mutation)
    return hashlib.sha256(_unlined(res.report).encode()).hexdigest()


def _predict_digest(target, mutation, out_dir):
    report = predict(target, mutation=mutation, out_dir=out_dir)
    text = report.describe().replace(str(out_dir), "<out>")
    h = hashlib.sha256(_unlined(text).encode())
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode())
        h.update(_unlined(path.read_text()).encode())
    return h.hexdigest()


#: (target, mutation) -> (race report digest, predict digest); a race
#: digest of None marks a run that now ends at the wait-for monitor.
GOLDENS = {
    ("graph", "fence_elision"): (
        "3e732222721f0b31aa0d8cd809df7d5091c68fe257c558b394789e743157841f",
        "d4a33972b0822907a49b9484d202517c32bc8f7f5fb90528b3a4dfb5e902ea07",
    ),
    ("graph", "late_dirty_mark"): (
        "d72abd1aa2931eb705651fd5790796c6fd3a3e00ce844db6b9fe59461cb52fec",
        "110fe725993d3ca4843b7dcbb7594d23aa51d2a6744fdc2db91da50c42e0a5f2",
    ),
    ("graph", "lock_order_inversion"): (
        None,  # ends at the wait-for monitor
        "d3e747166c4eb0afd8b16cfb7a7cdb2fae406cf50703a3a110c89f8f89332624",
    ),
    ("graph", "no_dirty_mark"): (
        "d72abd1aa2931eb705651fd5790796c6fd3a3e00ce844db6b9fe59461cb52fec",
        "f1f204b15152410b72ce6ea8a146e1cae03bb770b0550567c054fb8f6875f023",
    ),
    ("graph", "none"): (
        "d72abd1aa2931eb705651fd5790796c6fd3a3e00ce844db6b9fe59461cb52fec",
        "329477822959ff27089ab24aaa7fc113dce14ff13c68ad4d17ada09d625bd8b4",
    ),
    ("graph", "unlocked_split"): (
        "fa8ec43db02596a1491fd9d4fd533239d9b66252a067aff740ddc3fd8488c6df",
        "ae2feb3dd71b827f0bc72bc29c7941addf2cc721d76464051f1be36ba4e76f1d",
    ),
    ("queue", "fence_elision"): (
        "4288ae13c15701d1bbaba4cd274fc38f6c8099713da72853b64c03e1d347cdde",
        "8ddc5daea08ed474704bb5621afc00be44d0b1deda4cbda8babda36996dd6172",
    ),
    ("queue", "late_dirty_mark"): (
        "4288ae13c15701d1bbaba4cd274fc38f6c8099713da72853b64c03e1d347cdde",
        "929c9c52238f860ddc0ff27c86f8011ba6a6e53d65dbdd6f90b276406fdbb832",
    ),
    ("queue", "lock_order_inversion"): (
        "4288ae13c15701d1bbaba4cd274fc38f6c8099713da72853b64c03e1d347cdde",
        "1eeda9e36717027bf1910d19c83e7aedaa1ebe8658a1dc9de835d252bb497a75",
    ),
    ("queue", "no_dirty_mark"): (
        "4288ae13c15701d1bbaba4cd274fc38f6c8099713da72853b64c03e1d347cdde",
        "34974417961497c5d9f51b0941c017256c5e235b2d2e180cb8b3ed4f2ad72a25",
    ),
    ("queue", "none"): (
        "4288ae13c15701d1bbaba4cd274fc38f6c8099713da72853b64c03e1d347cdde",
        "4be91c5db0df659a1fe39b5b7d06ec040b2bc48a5e5ce80149e08975dbb50130",
    ),
    ("queue", "unlocked_split"): (
        "b67eb17823ec1f82e9a57e442082c525f7e276c52bd0273700f8e10abf5e862f",
        "90c14abb7832183034917591a83a0dbed76b6ffb9e30b8c203c23a3edc0627e6",
    ),
    ("queue-wf", "fence_elision"): (
        "8e4278a2b9981e70df49adf9f43cde304195c2590775a795768926d1bd75eacc",
        "ec1bda44aa800a498e17b682feb6c9a5d3817faa1a53af3b3b66ae1145350a0f",
    ),
    ("queue-wf", "late_dirty_mark"): (
        "8e4278a2b9981e70df49adf9f43cde304195c2590775a795768926d1bd75eacc",
        "cda28ba7a0b1d89f650ccc799108b028c445cea578747e8c14c3e919c86fd45e",
    ),
    ("queue-wf", "lock_order_inversion"): (
        "8e4278a2b9981e70df49adf9f43cde304195c2590775a795768926d1bd75eacc",
        "64c48cee7591dda77b61ac201d356e61a77a79518361a999adcf61ee74125337",
    ),
    ("queue-wf", "no_dirty_mark"): (
        "8e4278a2b9981e70df49adf9f43cde304195c2590775a795768926d1bd75eacc",
        "1def7e3160995a466133e71f927ca49e4fc057c24fe9305c1f5c4c14450d6f3d",
    ),
    ("queue-wf", "none"): (
        "8e4278a2b9981e70df49adf9f43cde304195c2590775a795768926d1bd75eacc",
        "64085d14f957a09a0b364691f718fb4d4a49a8e1b1ed338b2079920f7b255238",
    ),
    ("queue-wf", "unlocked_split"): (
        "ed952cd7a105eb8b72cc5aac276ad645fa2d811b17bff554c376667a53140263",
        "b6290ebb2afb4cdcb64f2182e811f361280f093736f77fab168a444d4938aabb",
    ),
    ("steals", "fence_elision"): (
        "2d9717beb5003a2abe61a2d11ca55444fb3061f4c5725e4bfed8bb1a934f33b9",
        "a2372fcdec82db54c8e6505c719543349c98eea6fad3ead168cefc8ddbdad717",
    ),
    ("steals", "late_dirty_mark"): (
        "2d9717beb5003a2abe61a2d11ca55444fb3061f4c5725e4bfed8bb1a934f33b9",
        "123881c721e5165b13153fdb32e27880ab75e82bd371365e08eaa621d3ed3305",
    ),
    ("steals", "lock_order_inversion"): (
        None,  # ends at the wait-for monitor
        "a0dda8a449f7dba9040d904bf9bc91da83b18ec9957002b7783dfca39185154e",
    ),
    ("steals", "no_dirty_mark"): (
        "2d9717beb5003a2abe61a2d11ca55444fb3061f4c5725e4bfed8bb1a934f33b9",
        "f12e61149f5401ec2831c8b802254df80a8ea5dc0ea1972f6a13130f368df7a5",
    ),
    ("steals", "none"): (
        "2d9717beb5003a2abe61a2d11ca55444fb3061f4c5725e4bfed8bb1a934f33b9",
        "2fbafb5e5f7c1cf0b4992d8d3ef64d37267970c0505602c97cda2708e7e8aaed",
    ),
    ("steals", "unlocked_split"): (
        "7f0277f3bb259b02947216ad5542ccdaf4435b6d456df15f9bb64986d6a643e3",
        "2ab7a0ec4e02af43e6058919eaae44b34eba9c9cfc5fa055c2fbc777a3f45e62",
    ),
    ("termination", "fence_elision"): (
        "dd6ba8ad32e91f1a6c5b7f6984af67d0f71336982684c991711f3aa7e64981e3",
        "97d8d1264d8906c9f0053c36725969e47a2f27516c8bb191249a4c3a165d1ada",
    ),
    ("termination", "late_dirty_mark"): (
        "dd6ba8ad32e91f1a6c5b7f6984af67d0f71336982684c991711f3aa7e64981e3",
        "9b2e0b1a9a9f062c7b64e4d1ead47aec1dd566e1a7b355e1dcb0dd0ecd401c89",
    ),
    ("termination", "lock_order_inversion"): (
        None,  # ends at the wait-for monitor
        "529a000b088699469848d70e1876df10b7ca28e1097852aa1e185407696990a3",
    ),
    ("termination", "no_dirty_mark"): (
        "dd6ba8ad32e91f1a6c5b7f6984af67d0f71336982684c991711f3aa7e64981e3",
        "1ceee4e82d8fd4050d86277067865c22fb3ee1e498d2ab8172384b6923025d2b",
    ),
    ("termination", "none"): (
        "dd6ba8ad32e91f1a6c5b7f6984af67d0f71336982684c991711f3aa7e64981e3",
        "2c70e31c7af732ecd0b1f99bc24164fdff53c396b4b58d35e6c2545bab6df7dd",
    ),
    ("termination", "unlocked_split"): (
        "f5192e32fe621b1cb5d4b5dadf1c3960637626d79837b44eba28745995a88d92",
        "54e653b18bd407be00f53ed20775fb5ce57ecc67f312884016537ae4e056c546",
    ),
    ("waitfree", "fence_elision"): (
        "abf52766b8caa730fd5064c40fe82345d87a403afaa3b3e75642ddf508c5bb35",
        "0eb147cc3e6dca7165388ab2789352f52ea7d82330172ee9b91c508e0d19c8a6",
    ),
    ("waitfree", "late_dirty_mark"): (
        "abf52766b8caa730fd5064c40fe82345d87a403afaa3b3e75642ddf508c5bb35",
        "287f342bd4a21a6f512dd4929b7d9aaa4a79df7a3625b9e521bfaa743e509100",
    ),
    ("waitfree", "lock_order_inversion"): (
        "abf52766b8caa730fd5064c40fe82345d87a403afaa3b3e75642ddf508c5bb35",
        "ab1c46f64f543c5998925699f2f40f01fa57f3471c69d8d3de6bd2e25dc0b030",
    ),
    ("waitfree", "no_dirty_mark"): (
        "abf52766b8caa730fd5064c40fe82345d87a403afaa3b3e75642ddf508c5bb35",
        "3e0e6d7f7983ec879885f3616461c7fdfa1222487aa7b26fac5de9905b1eabab",
    ),
    ("waitfree", "none"): (
        "abf52766b8caa730fd5064c40fe82345d87a403afaa3b3e75642ddf508c5bb35",
        "676d39a94e48bb916f80348b2c8d036633caaa734b69e0f5f0f0b8d30e06f7b1",
    ),
    ("waitfree", "unlocked_split"): (
        "d480f97ca090f439a4526afe53b38ddc52b5d5b65d1e046a67c3193fbf24ca2a",
        "ff1fa27cdc37414a29b9a0f6db6de3559ad60f025ca37ce3d91d5be4693d97e4",
    ),
}

CELLS = [(t, m) for t in sorted(SCENARIOS) for m in sorted(MUTATIONS)]


@pytest.mark.parametrize("target,mutation", CELLS)
def test_race_report_matches_golden(target, mutation):
    golden = GOLDENS[target, mutation][0]
    if golden is None:
        res = run_race_detection(target, mutation=mutation)
        assert res.races == []
        assert res.error.startswith("PredictedDeadlockError: lock-order cycle closed")
    else:
        assert _race_digest(target, mutation) == golden


@pytest.mark.parametrize("target,mutation", CELLS)
def test_predict_report_matches_golden(tmp_path, target, mutation):
    assert _predict_digest(target, mutation, tmp_path) == GOLDENS[target, mutation][1]
