"""The package root re-exports the whole working surface."""
import fbreg


def test_all_names_resolve():
    missing = [name for name in fbreg.__all__ if not hasattr(fbreg, name)]
    assert missing == []


def test_layers_reachable_from_root():
    for name in (
        "pmf", "pmf_bruteforce", "to_constrained",       # distribution
        "load_csv", "ColumnSpec",                        # data
        "total_loglik", "loglik_and_score", "coef_dim",  # likelihoods
        "fit", "FitConfig", "wald_inference",            # fitting
        "aic", "vuong_test", "comparison_report",        # comparison
        "SimSpec", "run_study",                          # simulation
    ):
        assert name in fbreg.__all__
        assert callable(getattr(fbreg, name))
