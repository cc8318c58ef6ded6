"""Slow reference implementations that the tests compare the library against."""

from socarb.reachability import ActionProbs, SocDistribution
from socarb.thresholds import BatteryParams


def brute_force_distribution(
    params: BatteryParams,
    probs_per_step: list[ActionProbs],
    k_ch: int,
    k_dis: int,
) -> SocDistribution:
    """Enumerate all action sequences path-wise; oracle for :func:`propagate`.

    Applies the same fold-to-idle rule along each path.  Limited to horizons
    of at most 10 (3^T paths).
    """
    horizon = len(probs_per_step)
    if horizon > 10:
        raise ValueError("brute force enumeration limited to horizon <= 10")
    m_lo = -params.max_discharges(params.e0)
    m_hi = params.max_charges(params.e0)
    steps: list[dict] = [{} for _ in range(horizon + 1)]
    steps[0][(0, 0, 0)] = 1.0

    def walk(t, m, c, d, mass):
        if t == horizon:
            return
        ap = probs_per_step[t]
        can_up = m + 1 <= m_hi and c < k_ch
        can_down = m - 1 >= m_lo and d < k_dis
        idle = ap.gamma + (0.0 if can_up else ap.alpha) + (0.0 if can_down else ap.beta)
        branches = []
        if can_up:
            branches.append((m + 1, c + 1, d, ap.alpha))
        if can_down:
            branches.append((m - 1, c, d + 1, ap.beta))
        branches.append((m, c, d, idle))
        for m2, c2, d2, p in branches:
            if p <= 0.0:
                continue
            key = (m2, c2, d2)
            steps[t + 1][key] = steps[t + 1].get(key, 0.0) + mass * p
            walk(t + 1, m2, c2, d2, mass * p)

    walk(0, 0, 0, 0, 1.0)
    return SocDistribution(params, k_ch, k_dis, "augmented", tuple(steps))
