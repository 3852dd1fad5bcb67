import numpy as np
import pytest

from gskit.svgplot import SvgCanvas, _fmt


def _points(element: str) -> str:
    return element.split('points="', 1)[1].split('"', 1)[0]


@pytest.mark.parametrize("xs, ys, shows", [
    # pixels just below 0 that print as -0, on both axes
    ([-1e-9, 0.3], [0.2, 0.65 + 1e-9], ["-0,", ",-0"]),
    # outside the window on every side
    ([-0.4, 2.0, 0.5, 0.5], [0.3, 0.3, -0.2, 1.7], ["-380.9524,", ",-1615.3846"]),
    # pixels at a rounding tie of the text, where the last bit shows: scaled
    # by (x - x0) * (width / (x1 - x0)) they would read 3.1234 and 998.8766
    ([0.0032796225, 0.3], [0.3, 0.0007302424999999942],
     ["3.1235,", ",998.8765"]),
    # a single point
    ([0.123456789], [0.0987654321], ["117.5779,848.0532"]),
    # pixels that overflow to inf, and non-finite samples
    ([1e308, np.inf, np.nan], [0.1, -np.inf, 0.2], ["inf,", ",inf", "nan,"]),
])
def test_polyline_matches_scalar_to_px(xs, ys, shows):
    # the array map to pixels gives the text of the per-point formula, for
    # a numpy array as for a list of floats
    canvas = SvgCanvas(1000, 1000, ((0.0, 0.0), (1.05, 0.65)))
    for data in ((np.array(xs), np.array(ys)), (list(xs), list(ys))):
        with np.errstate(over="ignore"):
            expected = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in
                                (canvas.to_px(x, y) for x, y in zip(*data)))
        canvas.polyline(*data)
        assert _points(canvas.parts[-1]) == expected
    assert all(s in expected for s in shows), expected
