"""The shared criterion checks: each must be able to fail."""

from edgewave import criteria, delta_1d


def test_pole_check_sees_a_wrong_denominator(monkeypatch):
    alphas = (0.5, 0.7, 1.0, 2.0)
    assert criteria.bound_pole_location(alphas, tol=1e-12).ok

    def flipped(alpha, p):
        denom = p + 1j * alpha
        return 1j * alpha / denom, p / denom

    monkeypatch.setattr(delta_1d, "_amplitudes", flipped)
    # |A|^2 + |B|^2 = 1 holds for either sign, so only the residue at
    # p = i*alpha can see the pole in the wrong half-plane
    assert criteria.flux_conservation(alphas, tol=1e-13).ok
    pole = criteria.bound_pole_location(alphas, tol=1e-12)
    assert not pole.ok
    assert pole.value > 0.4
    # a small alpha puts the two candidate poles close together; the
    # contour must still enclose only i*alpha
    small = criteria.bound_pole_location((0.1,), tol=1e-12)
    assert not small.ok
    assert small.value > 0.09
