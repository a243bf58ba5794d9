"""The paper's Section VIII future-work items, made measurable.

* **Pruned space vs SURF on the full space** — Section VI compares SURF
  against the earlier work's brute-force search of a smaller space and
  finds SURF "comparable to and sometimes better".  We regenerate that
  comparison: enumerate the [25]-style pruned space exhaustively, run SURF
  on the full space, compare champions and costs.
* **Joint tuning of Lg3 + Lg3t** — merge the two programs (the Nekbone
  ``ax`` body) and tune the six kernels together in one search, against
  tuning the two halves separately.
"""

from repro.autotune import Autotuner
from repro.autotune.joint import concatenate_programs
from repro.gpusim.arch import GTX980, K20
from repro.gpusim.perfmodel import GPUPerformanceModel
from repro.surf import ConfigurationEvaluator, ExhaustiveSearch
from repro.tcr.pruning import decide_pruned_search_space
from repro.tcr.space import TuningSpace
from repro.workloads.spectral import lg3, lg3t


def test_surf_vs_pruned_brute_force(benchmark, bench_budgets):
    """SURF (full space, nmax evals) vs brute force ([25]-style space)."""
    wl = lg3t()
    program = wl.program
    model = GPUPerformanceModel(GTX980)

    def run():
        pruned = TuningSpace([decide_pruned_search_space(program)])
        ev = ConfigurationEvaluator([program], model, seed=1)
        brute = ExhaustiveSearch(batch_size=50).search(
            list(pruned.enumerate_all()), ev.evaluate_batch,
            wall_seconds=lambda: ev.simulated_wall_seconds,
        )
        tuner = Autotuner(
            GTX980,
            max_evaluations=bench_budgets["evals"],
            pool_size=bench_budgets["pool"],
            seed=bench_budgets["seed"],
        )
        surf = tuner.tune_program(program)
        return {
            "pruned_space": pruned.size(),
            "brute_best": brute.best_objective,
            "brute_evals": brute.evaluations,
            "surf_best": surf.search.best_objective,
            "surf_evals": surf.search.evaluations,
        }

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"\npruned space: {out['pruned_space']} points, brute best "
        f"{out['brute_best'] * 1e3:.3f} ms in {out['brute_evals']} evals; "
        f"SURF best {out['surf_best'] * 1e3:.3f} ms in {out['surf_evals']} evals"
    )
    # "comparable to and sometimes better than the prior brute force"
    assert out["surf_best"] <= out["brute_best"] * 1.3
    assert out["surf_evals"] < out["brute_evals"]


def test_joint_lg3_lg3t_tuning(benchmark, bench_budgets):
    """Jointly tuned Nekbone ax body vs separately tuned halves."""
    n, elements = 12, 256
    p3 = lg3(n, elements).program
    p3t = lg3t(n, elements, output_name="w").program

    def run():
        tuner = Autotuner(
            K20,
            max_evaluations=bench_budgets["evals"],
            pool_size=bench_budgets["pool"],
            seed=bench_budgets["seed"],
        )
        joint = tuner.tune_program(concatenate_programs("nekbone_ax", [p3, p3t]))
        sep3 = tuner.tune_program(p3)
        sep3t = tuner.tune_program(p3t)
        separate_total = sep3.timing.total_s + sep3t.timing.total_s
        return joint.timing.total_s, separate_total

    joint_s, separate_s = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"\njoint ax: {joint_s * 1e3:.2f} ms vs separate: "
        f"{separate_s * 1e3:.2f} ms ({separate_s / joint_s:.2f}x)"
    )
    # Keeping ur/us/ut device-resident must win end to end.
    assert joint_s < separate_s
