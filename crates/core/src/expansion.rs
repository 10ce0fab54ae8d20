//! The portable expansion seam: phase-1 frontier expansions as plain
//! data, computable by any process that holds the same frozen instance.
//!
//! The speculation driver ([`Affidavit`](crate::search::Affidavit)) polls
//! up to K frontier states per iteration and expands them against the
//! frozen search context. That phase is *pure*:
//! given the instance (snapshots + pool prefix), the configuration, the
//! state and its pre-drawn alignment, the expansion is a deterministic
//! value — the per-attribute RNG self-seeds from
//! `mix3(seed, state_id, attr)` and never touches shared search state.
//! This module names that value ([`PortableExpansion`]) and the function
//! that computes it ([`expand_portable`]), so phase 1 can run on a local
//! thread pool, a worker process on another machine, or both stealing
//! from one queue — the driver's serial-replay reconciliation consumes
//! whichever expansions arrive and cannot tell the difference.
//!
//! [`ExpansionExecutor`] is the pluggable transport: the driver hands it
//! the frozen instance and the speculated batch; the executor returns the
//! expansions in batch order, or `None` to decline (the driver then falls
//! back to its local path). `affidavit-dist` implements it over the
//! work-stealing broker (`dist::expansion`).

use std::sync::Arc;

use affidavit_table::RecordId;

use crate::config::AffidavitConfig;
use crate::extend::expand_state_portable;
use crate::instance::ProblemInstance;
use crate::state::SearchState;

/// One speculated frontier expansion to compute: the polled state and the
/// alignment the driver pre-drew for it (the only driver-RNG input of
/// phase 1 — shipping the drawn pairs instead of RNG internals keeps the
/// wire format engine-version independent).
#[derive(Debug, Clone)]
pub struct ExpansionRequest {
    /// The frontier state to expand. Its assigned functions and blocking
    /// are symbol-/record-indexed against the instance the driver passes
    /// alongside the batch.
    pub state: SearchState,
    /// The pre-drawn random alignment for the greedy-map benchmark, in
    /// draw order.
    pub alignment: Vec<(RecordId, RecordId)>,
}

/// One candidate child inside a [`PortableExpansion`]: the induced
/// function (symbols below the part's `base_len` reference the shipped
/// pool; symbols at or above it index into `new_strings`), the refined
/// blocking (record ids — globally valid) and the child cost.
#[derive(Debug, Clone)]
pub struct PortableChild {
    /// The candidate function, in job symbol coordinates.
    pub func: affidavit_functions::AttrFunction,
    /// The blocking refined under `func`.
    pub blocking: affidavit_blocking::Blocking,
    /// The child's cost (Def. 4.6).
    pub cost: f64,
    /// Whether the candidate beat its greedy-map benchmark (only kept
    /// children enter the frontier; the rest still get trace nodes).
    pub kept: bool,
}

/// Everything phase 1 produced for one attribute of one state.
#[derive(Debug, Clone)]
pub struct PortableAttrExpansion {
    /// The expanded attribute index.
    pub attr: usize,
    /// Pool length the expansion was frozen at: symbols below it are the
    /// shipped pool's, symbols at `base_len + i` mean `new_strings[i]`.
    pub base_len: usize,
    /// Strings interned past `base_len`, in interning order. The driver
    /// absorbs the *whole* list (consumed by a child or not) — pool
    /// growth order is part of the byte-identity contract.
    pub new_strings: Vec<Arc<str>>,
    /// The greedy-map benchmark child `Hд` (registered for trace parity,
    /// never kept).
    pub greedy: PortableChild,
    /// All ranked candidates, in rank order (kept and rejected).
    pub ranked: Vec<PortableChild>,
}

/// Everything phase 1 produced for one state: per-attribute expansions in
/// processed order. Pure worker output — nothing in here has touched
/// shared search state, so an expansion computed for a state whose poll
/// turn never comes is dropped without a trace.
#[derive(Debug, Clone)]
pub struct PortableExpansion {
    /// Per-attribute expansions, in the order the expansion loop
    /// processed them.
    pub parts: Vec<PortableAttrExpansion>,
    /// Whether any ranked candidate beat its greedy benchmark (an empty
    /// result means every expanded attribute is map-suited and the driver
    /// finalizes).
    pub any_kept: bool,
}

/// Compute one frontier expansion from first principles — the remote half
/// of the speculation engine. Equivalent to the driver's own phase 1:
/// byte-for-byte the same [`PortableExpansion`] as a local
/// `expand_state` over the same instance, configuration, state and
/// alignment, at any thread count (each attribute's RNG seeds from
/// `(cfg.seed, state.id, attr)`).
///
/// The caller guarantees `request.state` is not an end state (the driver
/// cuts speculation batches before end states).
pub fn expand_portable(
    instance: &ProblemInstance,
    cfg: &AffidavitConfig,
    request: &ExpansionRequest,
) -> PortableExpansion {
    expand_state_portable(instance, cfg, &request.state, &request.alignment)
}

/// A pluggable phase-1 executor: computes a speculated batch somewhere
/// else — a worker fleet, a broker queue, another machine.
///
/// Contract: return `Some` with exactly one [`PortableExpansion`] per
/// request, in request order, each byte-identical to what
/// [`expand_portable`] computes for it over the same `instance`/`cfg`;
/// or `None` to decline the batch (transport down, fleet saturated), in
/// which case the driver expands locally. Because expansions are pure,
/// an executor may compute redundantly, race local work, or time out and
/// decline — none of it can perturb the search.
pub trait ExpansionExecutor: Send + Sync {
    /// Execute the batch, or decline with `None`.
    fn expand_batch(
        &self,
        instance: &ProblemInstance,
        cfg: &AffidavitConfig,
        batch: &[ExpansionRequest],
    ) -> Option<Vec<PortableExpansion>>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use affidavit_functions::AttrFunction;
    use affidavit_table::{Schema, Table, ValuePool};

    fn instance() -> ProblemInstance {
        let mut pool = ValuePool::new();
        let rows_s: Vec<Vec<String>> = (0..30)
            .map(|i| vec![format!("k{i}"), format!("{}", (i + 1) * 1000), "usd".into()])
            .collect();
        let rows_t: Vec<Vec<String>> = (0..30)
            .map(|i| vec![format!("k{i}"), format!("{}", i + 1), "USD".into()])
            .collect();
        let s = Table::from_rows(Schema::new(["k", "Val", "Unit"]), &mut pool, rows_s);
        let t = Table::from_rows(Schema::new(["k", "Val", "Unit"]), &mut pool, rows_t);
        ProblemInstance::new(s, t, pool).unwrap()
    }

    /// A fingerprint of an expansion that covers everything the driver
    /// absorbs: strings, functions, costs, blockings, keep flags.
    fn fingerprint(e: &PortableExpansion) -> String {
        let child = |c: &PortableChild| {
            format!(
                "{:?}|{:?}|{}|{}",
                c.func,
                c.blocking.len(),
                c.cost.to_bits(),
                c.kept
            )
        };
        let parts: Vec<String> = e
            .parts
            .iter()
            .map(|p| {
                format!(
                    "attr={} base={} new={:?} g={} ranked=[{}]",
                    p.attr,
                    p.base_len,
                    p.new_strings,
                    child(&p.greedy),
                    p.ranked.iter().map(child).collect::<Vec<_>>().join(";"),
                )
            })
            .collect();
        format!("any_kept={} {}", e.any_kept, parts.join("\n"))
    }

    #[test]
    fn portable_expansion_is_a_pure_function_of_its_inputs() {
        let inst = instance();
        let cfg = AffidavitConfig::paper_id();
        let blocking = affidavit_blocking::Blocking::root(&inst.source, &inst.target);
        let state = SearchState {
            assignments: vec![
                crate::state::Assignment::Assigned(AttrFunction::Identity),
                crate::state::Assignment::Undecided,
                crate::state::Assignment::Undecided,
            ],
            blocking: Arc::new(blocking),
            cost: 0.0,
            id: 1,
            parent: None,
        };
        let alignment: Vec<(RecordId, RecordId)> =
            (0..30).map(|i| (RecordId(i), RecordId(i))).collect();
        let request = ExpansionRequest { state, alignment };
        let a = expand_portable(&inst, &cfg, &request);
        let b = expand_portable(&instance(), &cfg, &request);
        assert!(!a.parts.is_empty());
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }
}
