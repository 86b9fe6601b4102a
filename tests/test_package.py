import importlib
import math
import pkgutil

import numpy as np
import pytest

import shrinker_lab as sl
from shrinker_lab.numerics import InputError

MODULES = [
    info.name
    for info in pkgutil.iter_modules(sl.__path__)
    if hasattr(importlib.import_module(f"shrinker_lab.{info.name}"), "__all__")
]


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    # a name left in __all__ or in the package's re-exports after its
    # definition is deleted fails here, not at a caller's import
    mod = importlib.import_module(f"shrinker_lab.{name}")
    for export in mod.__all__:
        assert hasattr(mod, export), f"{name}.__all__ names missing {export!r}"
        if export in vars(sl):
            assert getattr(sl, export) is getattr(mod, export), f"shrinker_lab.{export} is not {name}.{export}"


def _legendre_check(t0, t1, grid_step=1e-2):
    tp = sl.TauParams.harmonic()
    w = sl.transforms.convexify_shift(tp, sl.build_quadratic(tp, np.array([[0.8]])))
    return sl.transforms.legendre_dual_residual(w, t0, t1, grid_step=grid_step)


NEG = sl.TauParams.neg_branch(a=-2.0)


@pytest.mark.parametrize("call, reason", [
    (lambda: sl.constructor.profile_grid(10.0, 0.0), "grid step must be finite and positive"),
    (lambda: sl.constructor.profile_grid(10.0, -0.01), "grid step must be finite and positive"),
    (lambda: sl.constructor.profile_grid(10.0, math.inf), "grid step must be finite and positive"),
    (lambda: _legendre_check(-math.inf, math.inf), "need a finite interval"),
    (lambda: _legendre_check(math.nan, 2.0), "need a finite interval"),
    # 4e9 + 1 nodes, refused before any is formed
    (lambda: _legendre_check(-2.0, 2.0, grid_step=1e-9), "puts more than 1000000 points"),
    (lambda: sl.shoot_radial(sl.TauParams.special_lagrangian(), 2, -1.0, r_max=5.0, rel_tol=math.inf),
     "tolerances must be finite and positive"),
    (lambda: sl.build_counterexample(NEG, 0.3, 0.7, 2, rel_tol=math.inf), "tolerances must be finite and positive"),
    (lambda: sl.build_mss_counterexample(1.2, 0.1, rel_tol=math.inf), "tolerances must be finite and positive"),
    (lambda: sl.build_counterexample(NEG, 0.3, 0.7, 2, seed=-1), "seed must be an integer of at least 0"),
    (lambda: sl.build_counterexample(NEG, 0.3, 0.7, 2, seed=1.5), "seed must be an integer of at least 0"),
    (lambda: sl.build_counterexample(NEG, 0.3, 0.7, 2, seed="3"), "seed must be an integer of at least 0"),
], ids=["grid-step-0", "grid-step-negative", "grid-step-inf", "legendre-infinite", "legendre-nan",
        "legendre-too-many-nodes", "shoot-tol-inf", "build-tol-inf", "mss-tol-inf", "build-seed-negative",
        "build-seed-fractional", "build-seed-string"])
def test_library_refuses_what_the_cli_refuses(call, reason):
    # each value the CLI refuses with exit 65 is an InputError at the library entry point too
    with pytest.raises(InputError, match=reason):
        call()


SLAG = sl.TauParams.special_lagrangian()


def _line():
    return sl.QuadraticField(np.eye(1))


def _convex():
    return sl.transforms.convexify_shift(sl.TauParams.harmonic(), _line())


def _phase():
    return sl.constructor.solve_phase_ode(0.3, 0.7, 4.0, rel_tol=1e-6)


def _table(nodes):
    ts = np.array(nodes)
    return ts, ts**2 / 2, ts, np.ones_like(ts)


@pytest.mark.parametrize("call, reason", [
    (lambda: sl.build_counterexample(NEG, 0.3, 0.7, 2.5), "dimension must be an integer of at least 1"),
    (lambda: sl.build_counterexample(NEG, 0.3, 0.7, "2"), "dimension must be an integer of at least 1"),
    (lambda: sl.shoot_radial(SLAG, 2.5, -1.0, r_max=5.0), "dimension must be an integer of at least 1"),
    (lambda: sl.shoot_radial(SLAG, 2, -1.0, r_max=5.0, dps=20.5), "dps must be an integer of at least 11"),
    (lambda: sl.shoot_radial(SLAG, 2, -1.0, r_max=5.0, n_samples=0), "n_samples must be an integer of at least 2"),
    (lambda: sl.shoot_radial(SLAG, 2, -1.0, r_max=5.0, n_samples=-1), "n_samples must be an integer of at least 2"),
    (lambda: sl.shoot_radial(SLAG, 2, -1.0, r_max=5.0, n_samples=2.5), "n_samples must be an integer of at least 2"),
    (lambda: sl.shoot_radial(SLAG, 2, -1.0, r_max=5.0, n_samples=401.0), "n_samples must be an integer of at least 2"),
    (lambda: sl.radial_quadratic_reference(SLAG, 2, 0.5, r_max=-1.0), "r_max must be finite and positive"),
    (lambda: sl.radial_quadratic_reference(SLAG, 2, 0.5, r_max=math.nan), "r_max must be finite and positive"),
    (lambda: sl.radial_quadratic_reference(SLAG, 0, 0.5), "dimension must be an integer of at least 1"),
    (lambda: sl.radial_quadratic_reference(SLAG, 2, 0.5, n_samples=1), "n_samples must be an integer of at least 2"),
    # the step rule refuses this shot's initial state, which came before the tolerance was read
    (lambda: sl.shoot_radial(NEG, 2, 2e10, r_max=1.0, rel_tol=-1.0), "tolerances must be finite and positive"),
    (lambda: sl.shoot_radial(NEG, 2, 2e10, r_max=1.0, rel_tol=math.nan), "tolerances must be finite and positive"),
    (lambda: sl.fields.SeparableExtensionField(_line(), 2.5), "dimension must be an integer of at least 1"),
    (lambda: sl.fields.SeparableExtensionField(_line(), "2"), "dimension must be an integer of at least 1"),
    (lambda: sl.transforms.legendre_1d(_convex(), -1.0, math.inf, num=10),
     "need a finite interval"),
    (lambda: sl.transforms.legendre_1d(_convex(), -1.0, 1.0, num=-1),
     "num must be an integer of at least 1"),
    (lambda: sl.constructor.assemble_w1(_phase(), span=-1.0), "profile half-span must be finite and positive"),
    (lambda: sl.fields.Table1DField(*_table([0.0, 1.0, 1.0, 2.0])), "nodes must be finite and strictly increasing"),
    (lambda: sl.fields.Table1DField(*_table([0.0, 1.0, math.nan, 2.0])),
     "nodes must be finite and strictly increasing"),
], ids=["build-n-fraction", "build-n-string", "shoot-n-fraction", "shoot-dps-fraction", "shoot-samples-0",
        "shoot-samples-negative", "shoot-samples-fraction", "shoot-samples-float", "reference-rmax-negative",
        "reference-rmax-nan", "reference-n-0", "reference-samples-1", "shoot-refused-start-tol-negative",
        "shoot-refused-start-tol-nan", "extension-n-fraction", "extension-n-string", "legendre-1d-infinite",
        "legendre-1d-num-negative", "w1-span-negative", "table-nodes-repeated", "table-nodes-nan"])
def test_library_refuses_a_count_span_or_tolerance_it_cannot_use(call, reason):
    # a count is an integer, never rounded down or read from a string, and a
    # span or tolerance is checked before any work
    with pytest.raises(InputError, match=reason):
        call()
