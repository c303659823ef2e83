"""The package namespace: one list of public names per module."""

import sddelab
from sddelab import convergence, fbm, grids, integrate, norms, presets, solver

MODULES = (grids, norms, fbm, integrate, solver, presets, convergence)

#: the names the package exported while it kept its own hand-written list
EARLIER_SURFACE = """
__version__ DelayAlignmentError GridError GridMismatchError InitialSegment SamplePath
TimeGrid main_segment make_grid read_path_csv shift_by_delay write_path_csv NormReport
compute_norm_report delta_r estimate_holder_exponent lambda_alpha norm_1ma_infty_T
norm_alpha_1 norm_alpha_infty norm_alpha_lambda norm_holder weyl_derivative FbmConfig
fbm_covariance fgn_autocovariance generate_fbm keyed_generator sample_fbm_batch
BoundCertificate IntegralResult NrBoundsReport PathWindow SigmaIncrementReport
check_nr_bounds check_sigma_increment_bound drift_integral left_point_accumulate
young_integral APrioriRecord CoefficientSet DivergenceError FittedBound HypothesisReport
RegimeReport SolutionBundle SolverConfig a_priori_bound_report a_priori_record
contraction_lambda eta_norm_alpha phi_gamma_alpha regime_report solve solve_euler
solve_picard stopping_lambda validate_hypotheses COEFFICIENT_PRESETS ETA_PRESETS
coefficient_preset eta_preset ConvergenceReport FerniqueRecord GateReport RateFit
default_delays evaluate_convergence_gates fernique_statistics lp_convergence_study
pathwise_convergence_study rate_fit
""".split()


def test_the_package_exports_each_module_list_once():
    names = sddelab.__all__
    assert len(names) == len(set(names))
    assert names == ["__version__"] + [name for mod in MODULES for name in mod.__all__]
    seen = set()
    for mod in MODULES:  # pairwise disjoint, so no star import shadows another
        assert not seen & set(mod.__all__), mod.__name__
        seen |= set(mod.__all__)
        for name in mod.__all__:
            obj = getattr(mod, name)
            assert getattr(sddelab, name) is obj, name
            assert getattr(obj, "__module__", mod.__name__) == mod.__name__, name
    assert set(EARLIER_SURFACE) <= set(names)
    assert len(EARLIER_SURFACE) == 72
