"""`byte_columns` writes every float cell as `sweep_report._format_number`
does: over 10^7 generator coordinates and the doubles at the edges of
its shortest-digits path."""

import hashlib

import numpy as np

from wpsn_coverage import byte_columns
from wpsn_coverage.kernels import points_block
from wpsn_coverage.sweep_report import _format_number

FIELDS = ((400.0, 400.0), (200.0, 200.0), (1e-3, 1e5), (7.3, 123456.7))
POINTS_PER_FIELD = 1_250_000  # x and y on four fields: 10^7 coordinates
BLOCK = 1 << 16

# sha256 of `_format_number(v) + "\n"` over every cell of `_columns()`, in
# order. Writing it per cell takes ~12 s on a 2-core host, too long for
# every run, so `test_every_cell_matches_the_recorded_per_cell_text`
# compares with this record and `test_sampled_cells_match_the_per_cell_writer`
# calls `_format_number` on a tenth of the coordinates and every edge.
PER_CELL_SHA256 = "dbb3d29f5e3e7e003343daa52dd2d86e6974f6cfd0a75cf7d10727060922691e"


def _edge_doubles():
    """Powers of 2 and 10 and their neighbours (among them the 1e-4, 2**53
    and 1e16 bounds of the fast path), subnormals, integral values around
    2**53 and 1e16, and values half way between two 16-digit decimals;
    then all of them negated."""
    powers = np.concatenate(
        [np.ldexp(1.0, np.arange(-1074, 1024)), [float(f"1e{e}") for e in range(-323, 309)]]
    )
    subnormals = np.random.default_rng(0).integers(1, 2**52, 1000, dtype=np.uint64)
    edges = np.concatenate([
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        subnormals.view(np.float64),
        2.0**53 + np.arange(-1000.0, 1000.0), 1e16 + np.arange(-40.0, 40.0, 2.0),
        2.0**50 + 0.25 * np.arange(1, 4000, 2),  # x 10 ends in .5: ties between 16 digits
        [0.0, np.inf, np.nan],
    ])
    return np.concatenate([edges, -edges])


def _columns():
    for seed, (width, height) in enumerate(FIELDS):
        yield from points_block(seed, 0, POINTS_PER_FIELD, width, height)
    yield _edge_doubles()


def _written(values):
    return b"".join(
        byte_columns.rows_bytes([values[lo : lo + BLOCK]]) for lo in range(0, len(values), BLOCK)
    )


def _per_cell(values):
    return "".join(_format_number(v) + "\n" for v in values.tolist()).encode()


def test_sampled_cells_match_the_per_cell_writer():
    for values in _columns():
        if len(values) == POINTS_PER_FIELD:
            values = values[::10]
        assert _written(values) == _per_cell(values)


def test_every_cell_matches_the_recorded_per_cell_text():
    digest = hashlib.sha256()
    cells = 0
    for values in _columns():
        digest.update(_written(values))
        cells += len(values)
    assert cells >= 10**7
    assert digest.hexdigest() == PER_CELL_SHA256


def test_fast_path_proves_nearly_every_coordinate(monkeypatch):
    fallbacks = []
    monkeypatch.setattr(byte_columns, "_format_number", lambda v: fallbacks.append(v) or "")
    for values in points_block(0, 0, 500_000, *FIELDS[0]):
        for lo in range(0, len(values), BLOCK):
            byte_columns.column_matrix(values[lo : lo + BLOCK])
    assert len(fallbacks) < 0.1 * 10**6


def test_bytes_and_masked_columns_match_the_per_cell_writer():
    """Bytes cells are written as they are, masked cells as nothing: with
    masks at every block's first and last row and one block masked whole."""
    rng = np.random.default_rng(2)
    edges = _edge_doubles()
    n = 4 * BLOCK
    floats = np.concatenate([edges, points_block(5, 0, n, *FIELDS[1])[0]])[rng.permutation(n)]
    texts = np.array([b"", b"pair", b"node", b"x"])[rng.integers(0, 4, n)]
    ints = rng.integers(-(2**63), 2**63, n)
    ints[::3] = rng.integers(-1000, 1000, len(ints[::3]))
    mask = rng.random(n) < 0.3
    mask[::BLOCK] = mask[BLOCK - 1 :: BLOCK] = True
    mask[BLOCK : 2 * BLOCK] = True
    mask[3 * BLOCK + 1 : 4 * BLOCK - 1] = False
    columns = (texts, np.ma.array(ints, mask=mask), np.ma.array(floats, mask=mask[::-1]), texts)
    written = b"".join(
        byte_columns.rows_bytes([c[lo : lo + BLOCK] for c in columns])
        for lo in range(0, n, BLOCK)
    )

    def cells(column):
        if column.dtype.kind == "S":
            return [t.decode() for t in column.tolist()]
        return ["" if m else _format_number(v)
                for v, m in zip(column.data.tolist(), np.ma.getmaskarray(column).tolist())]

    expected = "".join(",".join(row) + "\n" for row in zip(*map(cells, columns))).encode()
    assert written == expected
