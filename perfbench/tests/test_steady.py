from steady import same_seed_problems


def result(ratio, err, setup):
    return {
        "metrics": {
            "stored_ratio": {"value": ratio, "unit": "1"},
            "mean_rel_err_pct": {"value": err, "unit": "%"},
            "setup_s": {"value": setup, "unit": "s"},
        }
    }


def test_same_seed_check_ignores_timings_and_fires_on_any_other_difference():
    first = result(0.18, 0.57, 1.3)
    assert same_seed_problems(first, result(0.18, 0.57, 1.4)) == []
    problems = same_seed_problems(first, result(0.18, 0.5700000001, 1.3))
    assert len(problems) == 1 and problems[0].startswith("mean_rel_err_pct")


def test_same_seed_check_skips_per_layer_results():
    traced = {"metrics": {"ref.op_ms": {"value": 90.0, "unit": "ms"}}}
    assert same_seed_problems(traced, traced) == []
