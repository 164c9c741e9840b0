"""Constructing visual approximations from separated nets.

Two constructions are implemented.  The width-1 construction covers each
scale by balls of twice the net separation around a maximal net; a chain
argument then yields separation dist(X,Y) >= L^-n / 2 for width-1-separated
tiles.  The width-0 construction additionally perturbs the ball radii inside
[1,2) x scale, class by class over a coloring of the net, so that any two
balls either intersect or are delta/(2N)-separated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covers import CoverSequence, check_depth, check_lambda
from .errors import DoublingUnbounded, ResolutionExceeded
from .metricspace import (
    FiniteMetricSpace,
    Net,
    greedy_separated_subset,
    maximal_separated_net,
    uniform_perfectness_probe,
)

COLOR_SEPARATION_FACTOR = 10.0  # same-color net points are 10*delta-separated


@dataclass(frozen=True)
class ColoredNet:
    """A net with color classes and ball radii realizing the separation dichotomy.

    Invariants (checked by ``check_dichotomy``): same-color distinct members
    are 10*delta-separated, and for every pair the balls B(x, r_x delta)
    either intersect or are delta/(2N)-separated, where N is the number of
    colors.
    """

    net: Net
    colors: tuple[int, ...]  # member -> class index in 1..N
    radii: tuple[float, ...] | None = None  # member -> r_x in [1, 2)

    @property
    def n_colors(self) -> int:
        return max(self.colors) if self.colors else 0

    @property
    def separation_constant(self) -> float:
        return 1.0 / (2.0 * self.n_colors)


def _open_ball(space: FiniteMetricSpace, center: int, radius: float) -> np.ndarray:
    return np.flatnonzero(space.dist[center] < radius)


def color_separated_set(space: FiniteMetricSpace, net: Net) -> ColoredNet:
    """Split the net into greedy maximal 10*delta-separated classes A_1, A_2, ...

    The number of classes is bounded by the maximal count of net points in
    any ball of radius 10*delta, so it stays bounded on doubling spaces.
    """
    sep = COLOR_SEPARATION_FACTOR * net.delta
    remaining = list(net.members)
    colors = {}
    cls = 0
    while remaining:
        cls += 1
        chosen = greedy_separated_subset(space.dist, remaining, sep)
        for m in chosen:
            colors[m] = cls
        remaining = [m for m in remaining if m not in colors]
    return ColoredNet(net=net, colors=tuple(colors[m] for m in net.members))


def adjust_radii(space: FiniteMetricSpace, colored: ColoredNet) -> ColoredNet:
    """Choose radii r_x in [1,2) class by class via the widest-gap rule.

    For each new member x, the critical relative distances to already-placed
    balls that land in [1,2) are collected; r_x is the midpoint of the widest
    gap they leave (ties resolved to the leftmost gap).  Because the placed
    members near x all lie in distinct earlier classes, at most N-1 critical
    values occur and the widest gap has width >= 1/N, which yields the
    dichotomy with constant 1/(2N).
    """
    net = colored.net
    delta = net.delta
    d = space.dist
    n_colors = colored.n_colors
    order = sorted(range(len(net.members)), key=lambda i: (colored.colors[i], net.members[i]))
    radii = {}
    placed: list[int] = []  # indices into net.members
    for i in order:
        if colored.colors[i] == 1:
            radii[i] = 1.0  # base class: all radii pinned to 1
            placed.append(i)
            continue
        x = net.members[i]
        criticals = []
        for j in placed:
            y = net.members[j]
            ball_y = _open_ball(space, y, radii[j] * delta)
            dy = float(d[x, ball_y].min()) / delta
            if 1.0 <= dy < 2.0:
                criticals.append(dy)
        cuts = [1.0] + sorted(criticals) + [2.0]
        gaps = np.diff(cuts)
        k = int(np.argmax(gaps))
        radii[i] = 0.5 * (cuts[k] + cuts[k + 1])
        placed.append(i)
    return ColoredNet(
        net=net,
        colors=colored.colors,
        radii=tuple(radii[i] for i in range(len(net.members))),
    )


def check_dichotomy(space: FiniteMetricSpace, colored: ColoredNet) -> tuple[bool, dict]:
    """Exhaustive exact check of the ColoredNet invariant over all member pairs."""
    if colored.radii is None:
        raise ValueError("radii not assigned")
    net = colored.net
    delta = net.delta
    C = colored.separation_constant
    balls = [
        _open_ball(space, m, r * delta) for m, r in zip(net.members, colored.radii)
    ]
    d = space.dist
    for i in range(len(net.members)):
        for j in range(i + 1, len(net.members)):
            cross = d[np.ix_(balls[i], balls[j])]
            if cross.min() > 0 and not np.intersect1d(balls[i], balls[j]).size:
                if cross.min() < C * delta:
                    return False, {
                        "pair": [int(net.members[i]), int(net.members[j])],
                        "dist": float(cross.min()),
                        "required": C * delta,
                    }
    return True, {}


def build_visual_width1(
    space: FiniteMetricSpace, lam: float, depth: int
) -> CoverSequence:
    """Cover each scale L^-n by balls B(x, 2 L^-n) over a maximal L^-n-net.

    The result is a visual approximation of width 1 with parameter lam; for
    width-1-separated same-level tiles the separation is at least L^-n / 2.
    """
    check_lambda(lam)
    check_depth(depth)
    if depth > 0 and lam ** (-depth) < 2.0 * space.min_positive_distance():
        raise ResolutionExceeded(
            f"lam^-{depth} = {lam ** (-depth)!r} is below twice the sample resolution"
        )
    if space.n >= 2:
        probe = uniform_perfectness_probe(space)
        if probe.lambda_up <= 0:
            raise ValueError("space fails the uniform perfectness probe")
    levels: list[list[tuple[int, ...]]] = [[tuple(range(space.n))]]
    for n in range(1, depth + 1):
        scale = lam ** (-n)
        net = maximal_separated_net(space, scale)
        fam = []
        seen = set()
        for x in net.members:
            members = tuple(int(i) for i in _open_ball(space, x, 2.0 * scale))
            if members and members not in seen:
                seen.add(members)
                fam.append(members)
        levels.append(fam)
    return CoverSequence(space, levels, width=1, visual_parameter=lam)


def build_visual_width0(
    space: FiniteMetricSpace,
    lam: float,
    depth: int,
    doubling_cap: int = 64,
    closed_balls: bool = False,
) -> CoverSequence:
    """Width-0 construction: adjusted-radius balls B(s, r_s L^-n) over maximal nets.

    Needs the space to behave doubling at sample scale: the greedy coloring of
    each net must use at most ``doubling_cap`` classes, else DoublingUnbounded.
    ``closed_balls`` switches the tiles to closed balls; the separation
    constants are unchanged.
    """
    check_lambda(lam)
    check_depth(depth)
    mesh = float(space.nearest_neighbor_distances().max(initial=0.0))
    if depth > 0 and lam ** (-depth) < 2.0 * mesh:
        raise ResolutionExceeded(
            f"lam^-{depth} = {lam ** (-depth)!r} is below twice the sample resolution"
        )
    if space.n >= 2:
        probe = uniform_perfectness_probe(space)
        if probe.lambda_up <= 0:
            raise ValueError("space fails the uniform perfectness probe")
    d = space.dist
    levels: list[list[tuple[int, ...]]] = [[tuple(range(space.n))]]
    for n in range(1, depth + 1):
        scale = lam ** (-n)
        net = maximal_separated_net(space, scale)
        colored = color_separated_set(space, net)
        if colored.n_colors > doubling_cap:
            raise DoublingUnbounded(
                f"net coloring needs {colored.n_colors} classes at scale {scale!r} "
                f"(cap {doubling_cap}); the space behaves as non-doubling"
            )
        colored = adjust_radii(space, colored)
        fam = []
        seen = set()
        for m, r in zip(net.members, colored.radii):
            if closed_balls:
                members = tuple(int(i) for i in np.flatnonzero(d[m] <= r * scale))
            else:
                members = tuple(int(i) for i in _open_ball(space, m, r * scale))
            if members and members not in seen:
                seen.add(members)
                fam.append(members)
        levels.append(fam)
    return CoverSequence(space, levels, width=0, visual_parameter=lam)
