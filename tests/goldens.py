"""Published reference tables for n = 4, shared across test modules.

Entries are given as "num" or "num/den" strings exactly as printed; keys are
in the canonical row/column orders.
"""

from fractions import Fraction

from combinv.framework import IndexedMatrix

COMPS4 = [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 3), (1, 2, 1), (1, 1, 2), (1, 1, 1, 1)]
PARTS4 = [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def matrix(rows, cols, table):
    entries = [[Fraction(cell) for cell in line.split()] for line in table]
    return IndexedMatrix(rows, cols, entries)


KOSTKA_A4 = matrix(PARTS4, COMPS4, [
    "1 1 1 1 1 1 1 1",
    "0 1 1 2 1 2 2 3",
    "0 0 1 1 0 1 1 2",
    "0 0 0 1 0 1 1 3",
    "0 0 0 0 0 0 0 1",
])

KOSTKA_B4 = matrix(COMPS4, PARTS4, [
    "1 -1 0 1 -1",
    "0 1 0 -1 1",
    "0 0 1 -1 1",
    "0 0 0 1 -1",
    "0 0 -1 0 1",
    "0 0 0 0 -1",
    "0 0 0 0 -1",
    "0 0 0 0 1",
])

RIMHOOK_A4 = matrix(PARTS4, COMPS4, [
    "1 1 1 1 1 1 1 1",
    "-1 0 -1 1 0 1 1 3",
    "0 -1 2 0 -1 0 0 2",
    "1 0 -1 -1 0 -1 -1 3",
    "-1 1 1 -1 1 -1 -1 1",
])

RIMHOOK_B4 = matrix(COMPS4, PARTS4, [
    "1/4 -1/4 0 1/4 -1/4",
    "1/12 0 -1/12 0 1/12",
    "1/8 -1/8 2/8 -1/8 1/8",
    "1/24 1/24 0 -1/24 -1/24",
    "1/4 0 -1/4 0 1/4",
    "1/12 1/12 0 -1/12 -1/12",
    "1/8 1/8 0 -1/8 -1/8",
    "1/24 3/24 2/24 3/24 1/24",
])

REFINE_A4 = matrix(COMPS4, COMPS4, [
    "1 0 0 0 0 0 0 0",
    "1 1 0 0 0 0 0 0",
    "1 0 1 0 0 0 0 0",
    "1 1 1 1 0 0 0 0",
    "1 0 0 0 1 0 0 0",
    "1 1 0 0 1 1 0 0",
    "1 0 1 0 1 0 1 0",
    "1 1 1 1 1 1 1 1",
])

REFINE_B4 = matrix(COMPS4, COMPS4, [
    "1 0 0 0 0 0 0 0",
    "-1 1 0 0 0 0 0 0",
    "-1 0 1 0 0 0 0 0",
    "1 -1 -1 1 0 0 0 0",
    "-1 0 0 0 1 0 0 0",
    "1 -1 0 0 -1 1 0 0",
    "1 0 -1 0 -1 0 1 0",
    "-1 1 1 -1 1 -1 -1 1",
])

BRICK_A4 = matrix(PARTS4, COMPS4, [
    "1 1 1 1 1 1 1 1",
    "0 1 0 2 1 2 2 4",
    "0 0 2 2 0 2 2 6",
    "0 0 0 2 0 2 2 12",
    "0 0 0 0 0 0 0 24",
])

BRICK_B4 = matrix(COMPS4, PARTS4, [
    "1 -1 -1/2 1 -1/4",
    "0 1/4 0 -1/4 1/12",
    "0 0 1/2 -1/2 1/8",
    "0 0 0 1/12 -1/24",
    "0 3/4 0 -3/4 1/4",
    "0 0 0 1/6 -1/12",
    "0 0 0 1/4 -1/8",
    "0 0 0 0 1/24",
])

BRICK_A4_SQUARE = matrix(PARTS4, PARTS4, [
    "1 1 1 1 1",
    "0 1 0 2 4",
    "0 0 2 2 6",
    "0 0 0 2 12",
    "0 0 0 0 24",
])

BRICK_B4_SQUARE = matrix(PARTS4, PARTS4, [
    "1 -1 -1/2 1 -1/4",
    "0 1 0 -1 1/3",
    "0 0 1/2 -1/2 1/8",
    "0 0 0 1/2 -1/4",
    "0 0 0 0 1/24",
])

# sha256 of TestEnumerateCommand::test_golden_digest's lines per kind: the
# `combinv enumerate` objects of every shape and content with n <= 5
ENUMERATE_SHA256 = {
    "cbt": "a3262c71dc4f4b793f5148e1394611efe1010ca9a11e375e81957e4a6cc2d520",
    "obt": "35e7d227db38210d5a3b04d5de0d99d2ec75cc3fbf5d9358f065fa58d26ea68f",
    "rht": "2ca788a80aa1f94b5c9518874ae171d2590231e45e631a0b4309398d5bda35c2",
    "srht": "92235253ab0896c1ae828b21834cc18815babf0cb63738b423f9f4eb21d5d23e",
    "ssyt": "47bd29937a1678e0d457029983bcc429bbd8bcaeba9ca167918ba75511b7a75b",
}

# sha256 of TestMatrixCommand::test_golden_digest's lines per app: the argv,
# exit code, stdout and stderr of `combinv matrix` on every side and format
# with -1 <= n <= 6
MATRIX_SHA256 = {
    "brick": "cb2d2100c877a701834dfa35c51789ce362ab1a41e12722186294e2681f06235",
    "kostka": "a025ace6b6117d5f55732490f1fa9ba14c022bb4a03ae2b3fe3203b8b2094bd0",
    "refine": "ae66ee8cd8f1f40bb02062ca2b5567459eaaeace2e8dc5e239725445c107da7d",
    "refine-weighted": "43dca35d665b30e2cda97e4edc534381cb9a49b1ea27eef10ecb50ff9f0a8b28",
    "rimhook": "8e93bd4ea0ae02b155692a1d4fd7c11ed5c4857f3b190f320d793891d922e394",
}

# sha256 of the stdout of `combinv matrix --n 12 --format json` per
# (app, side), as `matrix` printed it when it encoded a dict with json.dumps
MATRIX_JSON_N12_SHA256 = {
    ("refine", "A"): "514af4d144a9b54c1db783cd17346fee94853825e7a509f902b5d0d669553264",
    ("refine", "B"): "0053d208092d2a6fffbce77ac784e92d01525167ff074125b067045e7a76d00e",
    ("refine-weighted", "A"): "326dbc9da187c7bec3893fdce1101a22706b4381e96f53a10d79ebd03933be00",
    ("refine-weighted", "B"): "dd0eb708662070558fd21f7763139b20fd78c0018a9d7aab085e86df98de4e0c",
}

# sha256 of TestAuditOnePass::test_golden_digest's lines per app: the fields
# of verify_pairing's report, as a JSON list, for every shape pair with
# n <= 7 (kostka) or n <= 5 (rimhook), n = 0 included
AUDIT_REPORT_SHA256 = {
    "kostka": "95a1d09ffb18cfb16eff12a1414cad8ca512556636c7fc6816a0e739b92a70d5",
    "rimhook": "fb5487e6dbb5113a697af162e49627bcb23338d0889076bb4b126e0512ccbed0",
}

# sha256 of TestConstruction::test_golden_image_digest's lines per app: each
# object of the pair set of every shape pair with n <= 5 (kostka) or n <= 4
# (rimhook), n = 0 included, and its image, as the JSON list [object, image]
# with a null image at a fixed point
INVOLUTION_IMAGE_SHA256 = {
    "kostka": "9c1da27e2f73e3b6a47c4587c2c5ca4599dca5999d991f7f29d798c20c586991",
    "rimhook": "d99601175c812e6a40206269628c67c00747c5a4310289d1ffdb5f35dfb0fdd7",
}

# sha256 of test_removal_tables.py::test_golden_digest's lines per function:
# "lam L result" for every partition lam with n <= 12 and every L in 0..n+1
SUCCESSOR_SHA256 = {
    "strip_removals": "e114f1de1e77cb540b53df29a1eda26240f4ad611ec27971645b15d2dbb9ad7a",
    "srh_successors": "ecb1eee176729d4f11fcce308a178777533172d40a82d92bc5a4e8c3ad9fc2a0",
    "hook_successors": "1139ba54e0652e21c8c05c679010b7eb3d1d467157755f32091e9873d18d758e",
    "part_decrements": "f310433db0eb3fba5fdd57776763519c6f59fba7586b3a127075a14cc7c23921",
    "sub_multisets_of_size": "f9acc1626a490436c27886a41b626a01af804c7ec26de5c462ae0824f50205c0",
}
