"""Continuous-variable EPR beam simulator.

Models a pair of OPO squeezers combined on a balanced beam splitter as
stationary Gaussian processes, runs the beams through a homodyne detection
chain, and measures temporal-mode quadrature correlations.  Every Monte
Carlo estimate has an analytic counterpart computed from the same spectra
(in closed form for the Lorentzian OPO spectra), so simulated and expected
values can be compared directly.
"""

from .analysis import (CalibrationError, Diagram, EprReport, ModeValues,
                       PsdEstimate, combine_reports, combo_series,
                       correlation_diagram, epr_report, extract_modes,
                       trace_excerpt, welch_psd)
from .config import ConfigError, RunConfig, config_fingerprint, load_config, parse_config
from .detection import DetectionChain, detect, expected_mode_variance
from .modeopt import (ModeFamily, NonUnimodalError, OptResult, brute_force,
                      mode_duan, optimize)
from .modes import TemporalMode
from .recordio import (load_series_bin, load_series_csv, save_series_bin,
                       save_series_csv)
from .spectra import (EprSpectra, OpoParams, QuadPsd, QuadratureError, beam_spectra,
                      calibrate_pump_param, duan_sum, epr_spectra, filtered_variance,
                      flat_psd, opo_spectrum, square_variances, to_db)
from .synth import TimeSeries, TwoModeRecord, epr_record, synthesize_colored, vacuum_record

__version__ = "1.0.0"

__all__ = [
    "CalibrationError",
    "ConfigError",
    "DetectionChain",
    "Diagram",
    "EprReport",
    "EprSpectra",
    "ModeFamily",
    "ModeValues",
    "NonUnimodalError",
    "OpoParams",
    "OptResult",
    "PsdEstimate",
    "QuadPsd",
    "QuadratureError",
    "RunConfig",
    "TemporalMode",
    "TimeSeries",
    "TwoModeRecord",
    "beam_spectra",
    "brute_force",
    "calibrate_pump_param",
    "combine_reports",
    "combo_series",
    "config_fingerprint",
    "correlation_diagram",
    "detect",
    "duan_sum",
    "epr_record",
    "epr_report",
    "epr_spectra",
    "expected_mode_variance",
    "extract_modes",
    "filtered_variance",
    "flat_psd",
    "load_config",
    "load_series_bin",
    "load_series_csv",
    "mode_duan",
    "opo_spectrum",
    "optimize",
    "parse_config",
    "save_series_bin",
    "save_series_csv",
    "square_variances",
    "synthesize_colored",
    "to_db",
    "trace_excerpt",
    "vacuum_record",
    "welch_psd",
    "__version__",
]
