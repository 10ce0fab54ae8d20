//! Result metrics (§5.2): runtime `t`, relative core size `Δcore`,
//! relative costs `Δcosts` and cell accuracy `acc`.
//!
//! * `Δcore = |core(E_res)| / |core(E_ref)|` — e.g. 0.8 means the result
//!   aligned 20 % fewer records than the reference.
//! * `Δcosts = c(E_res) / c(E_ref)` — below 1 means the result is *cheaper*
//!   than the reference (possible: the search may align noise records).
//! * `acc` — apply the learned functions to every reference-core record and
//!   compare cell-wise with the correct transformation, ignoring the
//!   artificial primary-key attribute.

use std::time::Duration;

use affidavit_core::explanation::Explanation;
use affidavit_functions::ApplyScratch;

use crate::blueprint::GeneratedInstance;

/// The §5.2 metric tuple.
#[derive(Debug, Clone, Copy)]
pub struct InstanceMetrics {
    /// Search runtime.
    pub runtime: Duration,
    /// Relative core size.
    pub delta_core: f64,
    /// Relative costs.
    pub delta_costs: f64,
    /// Cell accuracy over the reference core (pk excluded).
    pub accuracy: f64,
}

/// Compute all metrics for a search result against the generated instance's
/// reference explanation.
pub fn evaluate(
    result: &Explanation,
    generated: &mut GeneratedInstance,
    runtime: Duration,
) -> InstanceMetrics {
    let arity = generated.instance.arity();
    let ref_core = generated.reference.core_size();
    let delta_core = if ref_core == 0 {
        if result.core_size() == 0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        result.core_size() as f64 / ref_core as f64
    };
    let ref_cost = generated.reference.cost_units(arity);
    let res_cost = result.cost_units(arity);
    let delta_costs = if ref_cost == 0 {
        if res_cost == 0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        res_cost as f64 / ref_cost as f64
    };
    let accuracy = cell_accuracy(result, generated);
    InstanceMetrics {
        runtime,
        delta_core,
        delta_costs,
        accuracy,
    }
}

/// The `acc` metric: fraction of non-pk cells of the reference core that
/// the learned functions translate exactly like the reference functions.
pub fn cell_accuracy(result: &Explanation, generated: &mut GeneratedInstance) -> f64 {
    let arity = generated.instance.arity();
    let pk = generated.pk_attr.index();
    let mut res_memos: Vec<ApplyScratch> = (0..arity).map(|_| ApplyScratch::new()).collect();
    let mut ref_memos: Vec<ApplyScratch> = (0..arity).map(|_| ApplyScratch::new()).collect();
    let mut total = 0u64;
    let mut correct = 0u64;
    for &(sid, _) in generated.reference.core_pairs() {
        for a in 0..arity {
            if a == pk {
                continue;
            }
            let v = generated
                .instance
                .source
                .value(sid, affidavit_table::AttrId(a as u32));
            let pool = &mut generated.instance.pool;
            let want = ref_memos[a].apply(&generated.reference.functions[a], v, pool);
            let got = res_memos[a].apply(&result.functions[a], v, pool);
            total += 1;
            if want == got && want.is_some() {
                correct += 1;
            }
        }
    }
    if total == 0 {
        1.0
    } else {
        correct as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blueprint::{Blueprint, GenConfig};
    use affidavit_datasets::{by_name, generate};
    use affidavit_functions::AttrFunction;

    fn generated(seed: u64) -> GeneratedInstance {
        let spec = by_name("iris").unwrap();
        let (base, pool) = generate(&spec, seed);
        Blueprint::new(base, pool, GenConfig::new(0.3, 0.3, seed)).materialize_full()
    }

    #[test]
    fn reference_scores_perfectly_against_itself() {
        let mut gen = generated(3);
        let reference = gen.reference.clone();
        let m = evaluate(&reference, &mut gen, Duration::from_millis(5));
        assert_eq!(m.delta_core, 1.0);
        assert_eq!(m.delta_costs, 1.0);
        assert_eq!(m.accuracy, 1.0);
    }

    #[test]
    fn trivial_explanation_scores_zero_core() {
        let mut gen = generated(4);
        let trivial = Explanation::trivial(&gen.instance);
        let m = evaluate(&trivial, &mut gen, Duration::ZERO);
        assert_eq!(m.delta_core, 0.0);
        assert!(m.delta_costs > 1.0, "trivial must cost more than reference");
    }

    #[test]
    fn all_identity_accuracy_reflects_unchanged_attrs() {
        // Functions all-id: exactly the unchanged attributes' cells match.
        let mut gen = generated(1);
        let arity = gen.instance.arity();
        let id = Explanation::new(vec![AttrFunction::Identity; arity], vec![], vec![], vec![]);
        let acc = cell_accuracy(&id, &mut gen);
        let unchanged = gen
            .reference
            .functions
            .iter()
            .take(arity - 1) // exclude pk map
            .filter(|f| f.is_identity())
            .count();
        let expected = unchanged as f64 / (arity - 1) as f64;
        // Identity can also coincide on fixed points of the sampled
        // functions, so acc may slightly exceed the expectation.
        assert!(
            acc >= expected - 1e-9,
            "acc {acc} below unchanged fraction {expected}"
        );
        assert!(acc < 1.0, "some attribute must actually be transformed");
    }
}
