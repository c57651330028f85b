import os
import subprocess
import sys
from pathlib import Path

import sincfilters
from sincfilters import disk, errors, filters, oracle, scaled, series

MODULES = (errors, series, filters, scaled, disk, oracle)

# The package's public names before it re-exported each module's __all__, plus PARITIES.
PUBLIC = {
    "DEFAULT_OPTIONS", "DiskPoint", "EvalOptions", "FilterRangeError", "HarmonicCoefficients",
    "InnerAnalytic", "InsufficientOrderError", "KernelSpec", "NonConvergenceError",
    "OracleConfig", "PARITIES", "SampledSignal", "ScaledKernelParams", "VARIANTS",
    "apply_filter_coeffs", "apply_scaled_filter", "complex_filter_coeffs", "complex_filter_eval",
    "complex_filter_order_n", "complex_kernel_eval", "effective_range", "eval_inner",
    "eval_series", "filter_direct", "filter_multiplier", "invariant_points", "kernel_eval",
    "kernel_grid", "kernel_integral", "load_coefficients", "load_inner", "load_signal",
    "log_derivative", "log_primitive", "make_waveform", "oracle_iterated_filter",
    "oracle_moving_average", "oracle_series_value", "render_signal", "save_coefficients",
    "save_inner", "save_signal", "scaled_coefficient", "scaled_kernel_derivative",
    "scaled_kernel_eval", "segment_filter", "sinc", "stage_range", "theta_grid", "total_range",
    "zero_derivative_points",
}


def test_package_exports_each_module_all_once():
    names = sincfilters.__all__
    assert names == sorted(set(names))
    assert set(names) == {name for m in MODULES for name in m.__all__}
    assert sum(len(m.__all__) for m in MODULES) == len(names)  # no name in two modules
    for m in MODULES:
        for name in m.__all__:
            assert getattr(sincfilters, name) is getattr(m, name), name  # the tracer patches both
    assert set(names) == PUBLIC
    src = str(Path(sincfilters.__file__).parents[1])
    probe = "import sys, sincfilters; print('sincfilters.cli' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out == "False\n"
