import hashlib

import pytest

from spdmeans import suites

# Row count and sha256 of the columns suite..status (margins left out: their
# trailing digits move across BLAS builds) of each suite's rows in
# ``spdmeans verify --all --seed 42``, in report order.
SEED_42_ROW_SETS = {
    "golden": (9, "301f318eed4e7f75d399d04c95f13a435c4c8148be7cf77ec41044b96b111b57"),
    "means": (375, "2fa6bbd4829cbabd4935d271bcdcd379b57f5b643b48c9f389fe9d4684f4d11c"),
    "logmaj": (50, "be52788efb842a351cec2ff918f95cbd0f340a4b55258552d8e8c997dd0592a0"),
    "compound": (150, "393f3e5b9d4ad9738b821a3b709d604d19085f12e623febd7b632eeaaf9f32b3"),
    "chain": (65, "5960bda826b9871a74cbe5dbc99d9f62f2eb24ec7c4874bf738bd1ffb724c27a"),
    "orbit": (24, "05e8352bf20432e790610f34719b7668ed4c346f1d3e0ccb71e53fe65cedd426"),
    "kostant": (77, "5fb4b4277477bc7f08e79df9f1d65015f982c645df231bb04bca452e5a2a863a"),
    "gradcheck": (25, "eb488ae500be72848a3f2438dba21b8a8212466255a56c53efcab88453754bf2"),
    "loewner": (25, "856d014f33d965fb58c373fd23711c12ab18de59de9f29c5d40b363039dc66af"),
    "realization": (72, "5870a5be84e0b3fd20c73438e23d6b140fe6c8c123ba6c032343bc4c479e6ab4"),
}


def test_pins_cover_every_suite_in_order():
    assert tuple(SEED_42_ROW_SETS) == suites.ALL_SUITES


@pytest.mark.parametrize("name", list(SEED_42_ROW_SETS))
def test_verify_all_seed_42_row_set(name):
    result = suites.run_suite(name, seed=42, trials=25)
    cells = "".join(
        ",".join(row.as_csv().split(",")[:7]) + "\n" for row in result.rows
    )
    digest = hashlib.sha256(cells.encode()).hexdigest()
    assert (len(result.rows), digest) == SEED_42_ROW_SETS[name]
