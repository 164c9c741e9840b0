import numpy as np
import pytest

from qvista import builder
from qvista.builder import (
    ColoredNet,
    adjust_radii,
    build_visual_width0,
    build_visual_width1,
    check_dichotomy,
    color_separated_set,
)
from qvista.covers import verify_visual
from qvista.errors import DoublingUnbounded, ResolutionExceeded
from qvista.fixtures import fixture, grid_space
from qvista.metricspace import FiniteMetricSpace, Net, maximal_separated_net


def integer_grid(m: int) -> FiniteMetricSpace:
    xs = np.arange(float(m))
    return FiniteMetricSpace(dist=np.abs(xs[:, None] - xs[None, :]))


class TestWidth1:
    def test_depth_zero(self, grid101):
        cover = build_visual_width1(grid101, 2.0, 0)
        assert len(cover.levels) == 1
        assert cover.levels[0][0].members == frozenset(range(grid101.n))

    def test_grid_passes(self, grid101):
        cover = build_visual_width1(grid101, 2.0, 5)
        rep = verify_visual(cover)
        assert rep.passed
        assert cover.width == 1

    def test_separation_claim_half(self, cantor):
        space, _ = cantor
        cover = build_visual_width1(space, 3.0, 4)
        rep = verify_visual(cover)
        assert rep.passed
        # dist(X,Y) >= lam^-n / 2 for width-1 separated pairs
        assert rep.condition("visual.separation").constant <= 2.0 + 1e-9

    def test_resolution_guard(self, grid101):
        with pytest.raises(ResolutionExceeded):
            build_visual_width1(grid101, 2.0, 12)


    def test_perfectness_guard_names_the_empty_annulus(self):
        # the twins 0, 0 sit 5 apart from the rest, so at the probe's first
        # radius, 1, the annulus around point 0 holds no point
        xs = np.array([0.0, 0.0, 5.0, 6.0])
        space = FiniteMetricSpace(dist=np.abs(xs[:, None] - xs))
        with pytest.raises(ValueError, match="around point 0 at radius 1.0 is empty"):
            build_visual_width1(space, 2.0, 0)

class TestColoring:
    def test_single_point_net(self, grid101):
        net = Net(delta=0.5, members=(3,))
        colored = color_separated_set(grid101, net)
        assert colored.colors == (1,)

    def test_integer_interval_ten_colors(self):
        space = integer_grid(101)
        net = maximal_separated_net(space, 1.0)
        assert len(net.members) == 101
        colored = color_separated_set(space, net)
        assert colored.n_colors == 10
        # classes are arithmetic progressions of step 10 under greedy order
        cls1 = [m for m, c in zip(net.members, colored.colors) if c == 1]
        assert cls1 == list(range(0, 101, 10))
        # same-color members are 10*delta-separated
        for ci in range(1, colored.n_colors + 1):
            cls = [m for m, c in zip(net.members, colored.colors) if c == ci]
            for a in cls:
                for b in cls:
                    assert a == b or abs(a - b) >= 10

    def test_greedy_matches_reference(self, cantor_small):
        space, _ = cantor_small
        net = maximal_separated_net(space, 3.0 ** -3)
        colored = color_separated_set(space, net)
        # reference simulation of the greedy class extraction
        sep = 10 * net.delta
        remaining = list(net.members)
        expect = {}
        cls = 0
        while remaining:
            cls += 1
            chosen = []
            for m in remaining:
                if all(space.dist[m, c] >= sep for c in chosen):
                    chosen.append(m)
            for m in chosen:
                expect[m] = cls
            remaining = [m for m in remaining if m not in expect]
        assert tuple(expect[m] for m in net.members) == colored.colors


class TestRadii:
    def test_single_member_r_is_one(self, grid101):
        colored = color_separated_set(grid101, Net(delta=0.1, members=(7,)))
        filled = adjust_radii(grid101, colored)
        assert filled.radii == (1.0,)

    def test_two_far_members_separation(self):
        space = integer_grid(30)
        net = Net(delta=1.0, members=(0, 10))
        colored = color_separated_set(space, net)
        assert colored.n_colors == 1
        filled = adjust_radii(space, colored)
        assert filled.radii == (1.0, 1.0)
        ok, witness = check_dichotomy(space, filled)
        assert ok, witness
        # distance between the two balls is at least 8 delta
        b0 = np.flatnonzero(space.dist[0] < 1.0)
        b1 = np.flatnonzero(space.dist[10] < 1.0)
        assert space.dist[np.ix_(b0, b1)].min() >= 8.0

    def test_integer_grid_dichotomy_exhaustive(self):
        space = integer_grid(60)
        net = maximal_separated_net(space, 1.0)
        filled = adjust_radii(space, color_separated_set(space, net))
        ok, witness = check_dichotomy(space, filled)
        assert ok, witness
        assert all(1.0 <= r < 2.0 for r in filled.radii)


class TestWidth0:
    def test_cantor_passes(self, cantor):
        space, _ = cantor
        cover = build_visual_width0(space, 3.0, 3)
        rep = verify_visual(cover)
        assert rep.passed
        assert cover.width == 0

    def test_grid_passes(self, grid101):
        cover = build_visual_width0(grid101, 2.0, 4)
        assert verify_visual(cover).passed

    def test_tree_not_doubling(self, tree, monkeypatch):
        space, _ = tree
        monkeypatch.setattr(builder, "DOUBLING_CAP", 8)
        with pytest.raises(DoublingUnbounded):
            build_visual_width0(space, 2.0, 3)


# -- the loops that adjust_radii, check_dichotomy and the builders replaced --------


def adjust_radii_oracle(space, colored):
    """The widest-gap rule, rebuilding every placed ball for each new member."""
    net, delta, d = colored.net, colored.net.delta, space.dist
    order = sorted(range(len(net.members)), key=lambda i: (colored.colors[i], net.members[i]))
    radii, placed = {}, []
    for i in order:
        if colored.colors[i] > 1:
            x = net.members[i]
            criticals = []
            for j in placed:
                ball_y = np.flatnonzero(d[net.members[j]] < radii[j] * delta)
                dy = float(d[x, ball_y].min()) / delta
                if 1.0 <= dy < 2.0:
                    criticals.append(dy)
            cuts = [1.0] + sorted(criticals) + [2.0]
            k = int(np.argmax(np.diff(cuts)))
            radii[i] = 0.5 * (cuts[k] + cuts[k + 1])
        else:
            radii[i] = 1.0
        placed.append(i)
    return tuple(radii[i] for i in range(len(net.members)))


def check_dichotomy_oracle(space, colored):
    """The pair loop: the first pair (i, j), i < j, of disjoint balls closer than C delta."""
    net, delta, d = colored.net, colored.net.delta, space.dist
    C = colored.separation_constant
    balls = [np.flatnonzero(d[m] < r * delta) for m, r in zip(net.members, colored.radii)]
    for i in range(len(balls)):
        for j in range(i + 1, len(balls)):
            cross = d[np.ix_(balls[i], balls[j])]
            if cross.min() > 0 and not np.intersect1d(balls[i], balls[j]).size:
                if cross.min() < C * delta:
                    return False, {"pair": [int(net.members[i]), int(net.members[j])],
                                   "dist": float(cross.min()), "required": C * delta}
    return True, {}


def net_ball_levels_oracle(space, lam, depth, width):
    """Both builders' level loops, before they shared one."""
    levels = [[tuple(range(space.n))]]
    for n in range(1, depth + 1):
        scale = lam ** (-n)
        net = maximal_separated_net(space, scale)
        if width == 1:
            radii = [2.0] * len(net.members)
        else:
            radii = adjust_radii_oracle(space, color_separated_set(space, net))
        fam, seen = [], set()
        for x, r in zip(net.members, radii):
            members = tuple(int(i) for i in np.flatnonzero(space.dist[x] < r * scale))
            if members not in seen:
                seen.add(members)
                fam.append(members)
        levels.append(fam)
    return levels


def gasket_space():
    return fixture("sierpinski_gasket", depth=1, sample_depth=4)[0]


@pytest.mark.parametrize("space, deltas", [
    (integer_grid(60), [1.0, 2.0, 3.5]),
    (gasket_space(), [2.0 ** -2, 2.0 ** -3, 2.0 ** -4]),
], ids=["integer-grid", "gasket"])
def test_radii_and_dichotomy_match_pair_loops(space, deltas):
    rng = np.random.default_rng(3)
    for delta in deltas:
        colored = color_separated_set(space, maximal_separated_net(space, delta))
        filled = adjust_radii(space, colored)
        assert filled.radii == adjust_radii_oracle(space, colored)
        assert check_dichotomy(space, filled) == check_dichotomy_oracle(space, filled)
        # one class (C = 1/2) and radii drawn at random break the dichotomy
        # on most of these nets: the same first witness
        for _ in range(3):
            drawn = ColoredNet(net=colored.net, colors=(1,) * len(colored.colors),
                               radii=tuple(rng.uniform(1.0, 2.0, len(colored.colors))))
            assert check_dichotomy(space, drawn) == check_dichotomy_oracle(space, drawn)


@pytest.mark.parametrize("width", [0, 1])
@pytest.mark.parametrize("name, lam, depth", [("grid", 2.0, 4), ("cantor", 3.0, 3),
                                              ("gasket", 2.0, 3)])
def test_builders_match_level_loops(request, width, name, lam, depth):
    space = {"grid": lambda: request.getfixturevalue("grid101"),
             "cantor": lambda: request.getfixturevalue("cantor")[0],
             "gasket": gasket_space}[name]()
    build = build_visual_width1 if width == 1 else build_visual_width0
    cover = build(space, lam, depth)
    assert cover.to_dict()["levels"] == [
        [list(t) for t in fam] for fam in net_ball_levels_oracle(space, lam, depth, width)
    ]
