//! Property-based tests of the closed-form placement evaluator.
//!
//! The provisioning service's score cache is sound only because the
//! evaluator is a pure function of its inputs: identical (spec,
//! platform, workloads) must produce **bit-identical** results, at any
//! call count, from a fresh or a reused evaluator. These properties pin that
//! invariant across randomly generated ensemble shapes and placements.

use runtime::{SimRunConfig, WorkloadMap};
use scheduler::{enumerate_placements, EnsembleShape, FastEvaluator};
use support::prop::prelude::*;

/// Small-but-varied ensemble shapes: 1–3 members, 1–2 analyses each,
/// core counts spanning the paper's co-location regimes.
fn shape_strategy() -> impl Strategy<Value = EnsembleShape> {
    (
        1usize..=3,                               // members
        prop::sample::select(vec![8u32, 16, 24]), // sim cores
        1usize..=2,                               // analyses per member
        prop::sample::select(vec![4u32, 8]),      // analysis cores
    )
        .prop_map(|(n, sim, k, ana)| EnsembleShape::uniform(n, sim, k, ana))
}

fn base_config(spec: ensemble_core::EnsembleSpec) -> SimRunConfig {
    let mut base = SimRunConfig::paper(spec);
    base.workloads = WorkloadMap::small_defaults();
    base
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Repeated one-shot scores of identical inputs are bit-identical
    /// — the determinism the score cache relies on.
    #[test]
    fn fast_score_is_bit_identical_across_calls(
        shape in shape_strategy(),
        max_nodes in 1usize..=4,
        pick in 0usize..64,
        jitter in 0.0f64..0.2,
    ) {
        let placements = enumerate_placements(&shape, max_nodes, 32);
        prop_assume!(!placements.is_empty());
        let spec = shape.materialize(&placements[pick % placements.len()]);
        // Base jitter must not leak into the analytic score: the
        // evaluator pins the predictor to its deterministic fixed point.
        let mut base = base_config(spec.clone());
        base.jitter = jitter;
        let first = FastEvaluator::new(&base).score(&spec).expect("score");
        for _ in 0..3 {
            let again = FastEvaluator::new(&base).score(&spec).expect("score");
            prop_assert_eq!(first.objective.to_bits(), again.objective.to_bits());
            prop_assert_eq!(
                first.ensemble_makespan.to_bits(),
                again.ensemble_makespan.to_bits()
            );
            prop_assert_eq!(first.nodes_used, again.nodes_used);
            prop_assert_eq!(first.eq4_satisfied, again.eq4_satisfied);
        }
    }

    /// The reusable evaluator (the search/service hot path, which avoids
    /// the per-candidate config clone) agrees bit-for-bit with a fresh
    /// evaluator per candidate, even when candidates interleave.
    #[test]
    fn evaluator_matches_one_shot_for_every_candidate(
        shape in shape_strategy(),
        max_nodes in 1usize..=3,
    ) {
        let placements = enumerate_placements(&shape, max_nodes, 32);
        prop_assume!(!placements.is_empty());
        let specs: Vec<_> =
            placements.iter().map(|a| shape.materialize(a)).collect();
        let base = base_config(specs[0].clone());
        let mut evaluator = FastEvaluator::new(&base);
        // Forward then backward: reuse across differing candidates must
        // not leave state behind that changes any score.
        for spec in specs.iter().chain(specs.iter().rev()) {
            let one_shot = FastEvaluator::new(&base).score(spec).expect("one-shot score");
            let reused = evaluator.score(spec).expect("evaluator score");
            prop_assert_eq!(one_shot.objective.to_bits(), reused.objective.to_bits());
            prop_assert_eq!(
                one_shot.ensemble_makespan.to_bits(),
                reused.ensemble_makespan.to_bits()
            );
            prop_assert_eq!(one_shot.nodes_used, reused.nodes_used);
            prop_assert_eq!(one_shot.eq4_satisfied, reused.eq4_satisfied);
        }
    }
}
