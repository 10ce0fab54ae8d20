//! Search-state costs (Def. 4.6) and their relation to explanation costs
//! (Def. 3.10).
//!
//! As printed, Def. 4.6 reads `c(H) = 2α·cf(H) + 2(α−1)·max(ct, cs − Δ)`,
//! which is negative for the record term and swaps the roles of α relative
//! to Def. 3.10. We implement the evidently intended lower bound of the
//! final explanation cost:
//!
//! ```text
//! c(H) = 2α·|A|·max(ct(H), cs(H) − Δ) + 2(1−α)·cf(H)
//! ```
//!
//! * the record term is scaled by `|A|`, matching `L(T^E+) = |A|·|T^E+|`
//!   (Def. 3.8) — each unexplained target record costs `|A|` data values;
//! * α weighs the record term and `(1−α)` the function term, as in
//!   Def. 3.10;
//! * `max(ct, cs − Δ)` is the tighter of the two lower bounds on `|T^E+|`
//!   (§4.5, Corollary 4.5), clamped at 0.
//!
//! With this normalization an *end state's* cost equals the cost of the
//! explanation constructed from it: at an end state the blocking groups
//! records by their full transformed tuples, so `ct` counts exactly the
//! target records that no core record can produce (`|T^E+|`), and `cf`
//! equals `L(F^E)` (verified by `search::tests::end_state_cost_matches_
//! explanation_cost`).

use affidavit_blocking::Blocking;

use crate::state::Assignment;

/// `cf(H) = Σ ψ(h_i)` over concretely assigned attributes.
pub fn cf(assignments: &[Assignment]) -> u64 {
    assignments
        .iter()
        .map(|a| match a {
            Assignment::Assigned(f) => f.psi(),
            _ => 0,
        })
        .sum()
}

/// The `max(ct, cs − Δ)` lower bound on `|T^E+|`, clamped at 0, from a
/// blocking's `(ct, cs)` surplus sums.
pub fn record_bound((ct, cs): (u64, u64), delta: i64) -> u64 {
    (ct as i64).max(cs as i64 - delta).max(0) as u64
}

/// Cost of the child that extends `parent` by assigning a function with
/// description length `func_psi` to a previously *open* attribute, from
/// the `(ct, cs)` `bound` of the child's blocking. Computed incrementally
/// from the parent's assignments (`cf(child) = cf(parent) + ψ(f)` since an
/// open attribute contributes no ψ) — avoids cloning the assignment vector
/// on the extension hot path.
pub fn child_state_cost(
    parent: &[Assignment],
    func_psi: u64,
    bound: (u64, u64),
    delta: i64,
    alpha: f64,
    arity: usize,
) -> f64 {
    let records = record_bound(bound, delta) as f64;
    let funcs = (cf(parent) + func_psi) as f64;
    2.0 * alpha * (arity as f64) * records + 2.0 * (1.0 - alpha) * funcs
}

/// Full state cost `c(H)`.
pub fn state_cost(
    assignments: &[Assignment],
    blocking: &Blocking,
    delta: i64,
    alpha: f64,
    arity: usize,
) -> f64 {
    let records = record_bound((blocking.ct(), blocking.cs()), delta) as f64;
    let funcs = cf(assignments) as f64;
    2.0 * alpha * (arity as f64) * records + 2.0 * (1.0 - alpha) * funcs
}

#[cfg(test)]
mod tests {
    use super::*;
    use affidavit_blocking::Block;
    use affidavit_functions::AttrFunction;
    use affidavit_table::RecordId;

    /// Blocks of these `(src, tgt)` sizes; a one-sided one settles.
    fn blocking(shape: &[(usize, usize)]) -> Blocking {
        let ids = vec![RecordId(0); shape.iter().map(|&(ns, nt)| ns.max(nt)).max().unwrap_or(0)];
        Blocking::from_blocks(shape.iter().map(|&(ns, nt)| Block {
            src: &ids[..ns],
            tgt: &ids[..nt],
        }))
    }

    #[test]
    fn cf_sums_assigned_only() {
        let a = vec![
            Assignment::Assigned(AttrFunction::Identity), // ψ 0
            Assignment::Undecided,
            Assignment::MapMarked,
            Assignment::Assigned(AttrFunction::FrontCharTrim('0')), // ψ 1
        ];
        assert_eq!(cf(&a), 1);
    }

    #[test]
    fn record_bound_uses_tighter_side() {
        // Block shapes: (src, tgt). ct = 2 (surplus targets), cs = 3.
        let b = blocking(&[(0, 2), (4, 1)]);
        assert_eq!(b.ct(), 2);
        assert_eq!(b.cs(), 3);
        // Δ = 0: |T^E+| = |S^E−| − Δ = cs ⇒ bound = max(2, 3) = 3.
        assert_eq!(record_bound((b.ct(), b.cs()), 0), 3);
        // Δ = 3 (S three records larger): bound = max(2, 0) = 2.
        assert_eq!(record_bound((b.ct(), b.cs()), 3), 2);
        // Δ = −5: cs − Δ = 8.
        assert_eq!(record_bound((b.ct(), b.cs()), -5), 8);
    }

    #[test]
    fn dead_sources_tighten_cs() {
        // Two sources settled out of the blocks, as dead sources are.
        let b = blocking(&[(1, 1), (2, 0)]);
        assert_eq!(record_bound((b.ct(), b.cs()), 0), 2);
    }

    #[test]
    fn alpha_weights() {
        let b = blocking(&[(0, 1)]); // one unmatched target
        let a = vec![Assignment::Assigned(AttrFunction::FrontCharTrim('0'))];
        // α=0.5, |A|=3: cost = 3·1 + 1 = 4.
        assert_eq!(state_cost(&a, &b, 0, 0.5, 3), 4.0);
        // α=1: only records count: 2·3·1 = 6.
        assert_eq!(state_cost(&a, &b, 0, 1.0, 3), 6.0);
        // α=0: only functions count: 2·1 = 2.
        assert_eq!(state_cost(&a, &b, 0, 0.0, 3), 2.0);
    }
}
