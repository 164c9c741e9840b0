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

from .covers import CoverSequence, check_depth, check_lambda, tile_pair_reduce
from .errors import DoublingUnbounded, ResolutionExceeded
from .metricspace import (
    FiniteMetricSpace,
    Net,
    greedy_separated_subset,
    maximal_separated_net,
    uniform_perfectness_probe,
)

COLOR_SEPARATION_FACTOR = 10.0  # same-color net points are 10*delta-separated
DOUBLING_CAP = 64  # most color classes a width-0 net may need at any scale


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
    order = sorted(range(len(net.members)), key=lambda i: (colored.colors[i], net.members[i]))
    radii = {}
    placed: list[int] = []  # indices into net.members
    to_ball = np.empty((len(net.members), space.n))  # row i: each point's distance to ball i
    for i in order:
        x = net.members[i]
        if colored.colors[i] == 1:
            radii[i] = 1.0  # base class: all radii pinned to 1
        else:
            rel = to_ball[placed, x] / delta
            cuts = [1.0] + sorted(rel[(rel >= 1.0) & (rel < 2.0)].tolist()) + [2.0]
            k = int(np.argmax(np.diff(cuts)))
            radii[i] = 0.5 * (cuts[k] + cuts[k + 1])
        to_ball[i] = space.dist[_open_ball(space, x, radii[i] * delta)].min(axis=0)
        placed.append(i)
    return ColoredNet(
        net=net,
        colors=colored.colors,
        radii=tuple(radii[i] for i in range(len(net.members))),
    )


def check_dichotomy(space: FiniteMetricSpace, colored: ColoredNet) -> tuple[bool, dict]:
    """Exact check of the ColoredNet invariant over all member pairs.

    A pair fails when its balls are disjoint (set distance above 0) yet
    closer than C * delta; the witness is the first such pair (i, j), i < j,
    in row-major order.
    """
    if colored.radii is None:
        raise ValueError("radii not assigned")
    net = colored.net
    required = colored.separation_constant * net.delta
    balls = [_open_ball(space, m, r * net.delta) for m, r in zip(net.members, colored.radii)]
    gap = tile_pair_reduce(space.dist, balls, np.minimum)
    bad = np.argwhere(np.triu((gap > 0) & (gap < required), 1))
    if not bad.size:
        return True, {}
    i, j = bad[0]
    return False, {
        "pair": [int(net.members[i]), int(net.members[j])],
        "dist": float(gap[i, j]),
        "required": required,
    }


def _net_balls(space: FiniteMetricSpace, lam: float, depth: int, resolution: float,
               balls) -> list[list[tuple[int, ...]]]:
    """The levels of a net-ball cover: the whole space, then per level n the
    balls ``balls(net, scale)`` around a maximal scale-net, scale = L^-n, with
    repeated balls dropped in order.

    ``resolution`` is the sample spacing the deepest scale must stay twice
    above (ResolutionExceeded otherwise), and the space must pass the uniform
    perfectness probe.
    """
    check_lambda(lam)
    check_depth(depth)
    if depth > 0 and lam ** (-depth) < 2.0 * resolution:
        raise ResolutionExceeded(
            f"lam^-{depth} = {lam ** (-depth)!r} is below twice the sample resolution"
        )
    if space.n >= 2 and (probe := uniform_perfectness_probe(space)).lambda_up <= 0:
        center, radius = probe.witness
        raise ValueError(f"space fails the uniform perfectness probe: the annulus around "
                         f"point {center} at radius {radius!r} is empty")
    levels: list[list[tuple[int, ...]]] = [[tuple(range(space.n))]]
    for n in range(1, depth + 1):
        scale = lam ** (-n)
        net = maximal_separated_net(space, scale)
        levels.append(list(dict.fromkeys(tuple(b.tolist()) for b in balls(net, scale))))
    return levels


def build_visual_width1(
    space: FiniteMetricSpace, lam: float, depth: int
) -> CoverSequence:
    """Cover each scale L^-n by balls B(x, 2 L^-n) over a maximal L^-n-net.

    The result is a visual approximation of width 1 with parameter lam; for
    width-1-separated same-level tiles the separation is at least L^-n / 2.
    """
    def balls(net, scale):
        return [_open_ball(space, x, 2.0 * scale) for x in net.members]

    levels = _net_balls(space, lam, depth, space.min_positive_distance(), balls)
    return CoverSequence(space, levels, width=1, visual_parameter=lam)


def build_visual_width0(space: FiniteMetricSpace, lam: float, depth: int) -> CoverSequence:
    """Width-0 construction: adjusted-radius balls B(s, r_s L^-n) over maximal nets.

    Needs the space to behave doubling at sample scale: the greedy coloring of
    each net must use at most ``DOUBLING_CAP`` classes, else DoublingUnbounded.
    """
    def balls(net, scale):
        colored = color_separated_set(space, net)
        if colored.n_colors > DOUBLING_CAP:
            raise DoublingUnbounded(
                f"net coloring needs {colored.n_colors} classes at scale {scale!r} "
                f"(cap {DOUBLING_CAP}); the space behaves as non-doubling"
            )
        colored = adjust_radii(space, colored)
        return [_open_ball(space, m, r * scale) for m, r in zip(net.members, colored.radii)]

    mesh = float(space.nearest_neighbor_distances().max(initial=0.0))
    levels = _net_balls(space, lam, depth, mesh, balls)
    return CoverSequence(space, levels, width=0, visual_parameter=lam)
