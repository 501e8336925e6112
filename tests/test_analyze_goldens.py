"""Race and predict reports are pinned by content hash.

For every check scenario × {no mutation, the five seeded bugs} these
goldens fix:

* the text of ``run_race_detection(...).report`` — every race, its
  vector times and call sites, and the shared-access count;
* ``predict(...).describe()`` (the output directory normalised) plus
  the name and bytes of every witness trace it persisted.

The hashes were computed with the live vector-clock detector that the
post-run pass over the captured trace replaced.  The one intended
difference is ``lock_order_inversion`` on the three scenarios where a
lock cycle closes: the wait-for monitor now watches every analysis run,
so the race run ends at the fatal request with
``PredictedDeadlockError`` (still 0 races) instead of wedging.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.analyze.predict import predict
from repro.analyze.runner import run_race_detection
from repro.check.mutations import MUTATIONS
from repro.check.scenarios import SCENARIOS


def _race_digest(target, mutation):
    res = run_race_detection(target, mutation=mutation)
    return hashlib.sha256(res.report.encode()).hexdigest()


def _predict_digest(target, mutation, out_dir):
    report = predict(target, mutation=mutation, out_dir=out_dir)
    h = hashlib.sha256(report.describe().replace(str(out_dir), "<out>").encode())
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


#: (target, mutation) -> (race report digest, predict digest); a race
#: digest of None marks a run that now ends at the wait-for monitor.
GOLDENS = {
    ("graph", "fence_elision"): (
        "1cb2ac1c0a86cbaf3cbf644be421080ceaf9d2a04b974e9df5a9330df5c929aa",
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
        "dd22a337fa3269c6ae218e8af0383c5ccb17d933e9e5b6babb5b2f2e168e2cab",
        "317903a869b7ba2ac1174069b1e6620040dce0d5187b8562eff5a22af4d26007",
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
        "47b4925fbefc92d4d85151f86df441b76dcdac81068128c868cbb03e8f2a468d",
        "18fc707ceef4933366d48c859f751add127dc04c9c521665b49bf44a1fc842b8",
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
        "698a4e940cb41891658cdd353da9475fc825461f40d9b47825cf437e07d459dd",
        "2c8a4811e40c6538362343abde82201931357858c14bcec916438fc96eb6c67e",
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
        "5be2e852ddfc212e70a78030f343a9d6752af2c9d1ea6496b83553b77120b1ad",
        "490b8c28b253dac4f86c7d6678b03f78a4375e11da250b0bc3d616689ff10cdf",
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
        "02bedcd488b6a0c3cbbaa1022a4395020b2aaea11d508e5eb49e996dcb0c959b",
        "240ddac708ab0a8bca57508e4776cf4351c01673c19c7d8a7ec2ec2e54132c0f",
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
        "cf2be42e451c1df17f3f66de1513849b72bdf014457701ebf66839e562e25350",
        "6b4ecac3b7c2c0686a0e222ec5f7ce64fde6324f7351b923d3f1c8f06aab13f7",
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
