"""Tests of the ASCII field renderer."""
import numpy as np
import pytest

from repro.viz import render_field, render_map


def test_render_field_shape_and_case():
    f = np.zeros((6, 4))
    f[1, 1] = 1.0     # positive -> uppercase at max density
    f[4, 2] = -1.0    # negative -> lowercase/symbol
    out = render_field(f)
    lines = out.splitlines()
    assert len(lines) == 4
    assert all(len(ln) == 6 for ln in lines)
    # flip_y: j=3 is the first row; the positive cell at (1,1) is in
    # row index 2 from the top
    assert lines[2][1] == "@"
    assert lines[1][4] == "@".lower() or lines[1][4] == "@"  # '@' has no case
    # a field with letters in the ramp shows case distinction
    out2 = render_field(f, ramp=" abc")
    assert "C" in out2 and "c" in out2


def test_render_field_zero_field():
    out = render_field(np.zeros((3, 3)))
    assert set(out.replace("\n", "")) == {" "}


def test_render_field_validation():
    with pytest.raises(ValueError):
        render_field(np.zeros(5))


def test_render_map():
    f = np.zeros((4, 3))
    f[2, 0] = 5.0
    out = render_map(f)
    lines = out.splitlines()
    assert lines[-1][2] == "@"  # j=0 is the last row
    with pytest.raises(ValueError):
        render_map(-f - 1.0)
