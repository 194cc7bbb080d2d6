"""Integration tests: whole-library workflows spanning multiple modules.

The heavyweight check here is the experiment smoke test — every harness
experiment must run in quick mode and report a SHAPE MATCH verdict.  That
single test exercises graphs + dynamics + duals + baselines + analysis +
harness together.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.harness.registry import all_experiment_ids, run_experiment

FAST_IDS = ["E3", "E4", "E5", "E6", "E7", "E10", "E12", "E13", "E14", "E15", "E16"]
SLOW_IDS = [eid for eid in all_experiment_ids() if eid not in FAST_IDS]


@pytest.mark.parametrize("eid", FAST_IDS)
def test_fast_experiments_pass(eid):
    res = run_experiment(eid, quick=True, seed=0)
    assert res.passed, f"{eid}: {res.verdict}\n" + "\n".join(res.summary)
    assert res.rows, f"{eid} produced no table rows"
    assert res.table_markdown()


@pytest.mark.parametrize("eid", SLOW_IDS)
def test_slow_experiments_pass(eid):
    res = run_experiment(eid, quick=True, seed=0)
    assert res.passed, f"{eid}: {res.verdict}\n" + "\n".join(res.summary)


class TestPublicApiWorkflow:
    def test_readme_quickstart(self):
        """The README quickstart snippet works verbatim."""
        from repro import CompleteGraph, best_of_three, random_opinions

        g = CompleteGraph(1000)
        result = best_of_three(g).run(
            random_opinions(1000, delta=0.1, rng=1), seed=2
        )
        assert result.red_wins

    def test_theorem_pipeline(self):
        """check -> predict -> verify on one instance, end to end."""
        from repro import check_hypotheses, verify_theorem1
        from repro.graphs import RookGraph

        g = RookGraph(40)
        cert = check_hypotheses(g, 0.15)
        assert cert.density_ok
        verdict = verify_theorem1(g, 0.15, trials=5, seed=3)
        assert verdict.red_wins == 5
        assert verdict.max_steps <= 3 * cert.predicted_rounds

    def test_dag_sprinkle_ternary_pipeline(self):
        """Voting-DAG -> sprinkle -> Lemma 6 transform, all consistent."""
        from repro import CompleteGraph, VotingDAG, sprinkle
        from repro.core.ternary import dag_to_ternary_leaves, evaluate_ternary_root

        g = CompleteGraph(64)
        dag = VotingDAG.sample(g, root=0, T=3, rng=4)
        col = dag.color_leaves_iid(0.1, rng=5)
        sp = sprinkle(dag)
        col_sp = sp.color(col.opinions[0])
        assert all(
            (a <= b).all() for a, b in zip(col.opinions, col_sp.opinions)
        )
        res = dag_to_ternary_leaves(dag, col.opinions[0])
        assert res.root_opinion == col.root_opinion
        assert evaluate_ternary_root(res.leaves) == col.root_opinion

    def test_cross_host_consistency(self):
        """The same dynamics law on implicit vs materialised hosts gives
        statistically identical one-round drift."""
        from repro.core.dynamics import step_best_of_k
        from repro.core.opinions import exact_count_opinions
        from repro.graphs.implicit import CompleteGraph

        n = 2000
        implicit = CompleteGraph(n)
        explicit = CompleteGraph(n).to_csr()
        init = exact_count_opinions(n, 800, rng=6)
        reps = 40
        means_i, means_e = [], []
        gen = np.random.default_rng(7)
        for _ in range(reps):
            means_i.append(step_best_of_k(implicit, init, 3, gen).mean())
            means_e.append(step_best_of_k(explicit, init, 3, gen).mean())
        # Same drift within Monte-Carlo error.
        se = np.std(means_i + means_e) / np.sqrt(reps)
        assert abs(np.mean(means_i) - np.mean(means_e)) <= 4 * se + 1e-3

    def test_version_exposed(self):
        import repro

        assert repro.__version__ == "1.9.0"
