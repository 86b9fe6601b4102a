import math

import numpy as np
import pytest

import shrinker_lab as sl
from shrinker_lab import DomainError, TauParams, build_quadratic, verify_quadratic
from shrinker_lab.quadratics import admissible_draw, admissible_matrix, random_admissible_matrix

SQRT2 = math.sqrt(2.0)

# sqrt(2) * ln(sqrt(3) + sqrt(2)), the A = 0 constant on the log branch at
# tau = pi/6 (40-digit evaluation of the closed form)
LOG_PI6_CONST = 1.6209939789535075


class TestBuild:
    def test_solution_is_its_field(self):
        # one matrix gives a float constant, a stack a (k,) array of them
        one = build_quadratic(TauParams.harmonic(), np.eye(2))
        stack = build_quadratic(TauParams.harmonic(), np.array([np.eye(2)] * 3))
        assert type(one) is type(stack) is sl.QuadraticField and not hasattr(one, "field")
        assert type(one.c) is float and stack.c.shape == (3,) and (stack.c == one.c).all()

    def test_harm_zero_matrix(self):
        sol = build_quadratic(TauParams.harmonic(), np.zeros((1, 1)))
        assert sol.c == pytest.approx(SQRT2, abs=1e-15)
        assert sol.value(np.array([2.0])) == pytest.approx(SQRT2, abs=1e-15)

    def test_ma_identity(self):
        sol = build_quadratic(TauParams.monge_ampere(), np.eye(3))
        assert sol.c == 0.0

    def test_log_constant_frozen(self):
        sol = build_quadratic(TauParams.log_branch(math.pi / 6), np.zeros((1, 1)))
        assert sol.c == pytest.approx(LOG_PI6_CONST, abs=1e-14)
        sol3 = build_quadratic(TauParams.log_branch(math.pi / 6), np.zeros((3, 3)))
        assert sol3.c == pytest.approx(3 * LOG_PI6_CONST, abs=1e-13)

    def test_neg_identity(self, rng):
        tp = TauParams.neg_branch(a=-2.0)
        assert verify_quadratic(build_quadratic(tp, np.eye(2)), rng.uniform(-3, 3, (50, 2))) <= 1e-10

    def test_inadmissible_rejected(self):
        with pytest.raises(DomainError, match="inadmissible"):
            build_quadratic(TauParams.monge_ampere(), np.diag([1.0, -0.1]))
        with pytest.raises(DomainError, match="inadmissible"):
            build_quadratic(TauParams.neg_branch(a=-2.0), np.diag([1.0, 5.0]))


@pytest.mark.parametrize("n", [0, -1, 2.5, 2.0, "2", None])
def test_sampled_dimension_must_be_an_integer_of_at_least_1(n):
    # 0 drew a (0, 0) matrix, -1 raised numpy's ValueError and 2.5 a TypeError
    rng = np.random.default_rng(0)
    for draw in (lambda: admissible_draw(n, rng), lambda: random_admissible_matrix(TauParams.harmonic(), n, rng)):
        with pytest.raises(sl.InputError, match="integer of at least 1"):
            draw()
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state  # refused before any draw


class TestVerify:
    def test_sweep_all_branches(self, all_branches, rng):
        for name, tp in all_branches.items():
            worst = 0.0
            for _ in range(20):
                n = int(rng.integers(1, 5))
                A = sl.random_admissible_matrix(tp, n, rng)
                pts = rng.uniform(-3.0, 3.0, size=(20, n))
                worst = max(worst, verify_quadratic(build_quadratic(tp, A), pts))
            assert worst <= 1e-10, f"{name}: {worst}"

    def test_cloud_equals_pointwise_loop(self, all_branches, rng):
        for tp in all_branches.values():
            for n in range(1, 5):
                A = sl.random_admissible_matrix(tp, n, rng)
                pts = rng.uniform(-3.0, 3.0, size=(20, n))
                sol = build_quadratic(tp, A)
                loop = max(abs(sl.shrinker_residual(tp, sol, x)) for x in pts)
                assert verify_quadratic(sol, pts) == loop

    def test_lower_cone_sweep(self, rng):
        for tp in (TauParams.harmonic("lower"), TauParams.log_branch(math.pi / 6, "lower")):
            A = sl.random_admissible_matrix(tp, 3, rng)
            assert verify_quadratic(build_quadratic(tp, A), rng.uniform(-3, 3, (30, 3))) <= 1e-10

    def test_constant_invariant_under_conjugation(self, all_branches, rng):
        for name, tp in all_branches.items():
            lams = np.sort(np.diag(sl.random_admissible_matrix(tp, 1, rng)))  # one eigenvalue
            A = np.diag(np.full(3, lams[0]))
            B = admissible_matrix(np.full(3, lams[0]), rng.standard_normal((3, 3)))
            ca = build_quadratic(tp, A).c
            cb = build_quadratic(tp, B).c
            assert abs(ca - cb) < 1e-10

    def test_spectral_dependence_only(self, rng):
        tp = TauParams.special_lagrangian()
        lams = rng.uniform(-1.0, 2.0, 4)
        B = admissible_matrix(lams, rng.standard_normal((4, 4)))
        assert build_quadratic(tp, np.diag(lams)).c == pytest.approx(build_quadratic(tp, B).c, abs=1e-10)
