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
    w = sl.transforms.convexify_shift(tp, sl.build_quadratic(tp, np.array([[0.8]])).field)
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
    (lambda: sl.build_counterexample(NEG, 0.3, 0.7, 2, seed=-1), "seed must be at least 0"),
], ids=["grid-step-0", "grid-step-negative", "grid-step-inf", "legendre-infinite", "legendre-nan",
        "legendre-too-many-nodes", "shoot-tol-inf", "build-tol-inf", "mss-tol-inf", "build-seed-negative"])
def test_library_refuses_what_the_cli_refuses(call, reason):
    # each value the CLI refuses with exit 65 is an InputError at the library entry point too
    with pytest.raises(InputError, match=reason):
        call()
