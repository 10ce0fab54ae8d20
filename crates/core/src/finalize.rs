//! ⊞ resolution — the `Finalize` step of Algorithm 1.
//!
//! When the search concludes that all remaining attributes need value
//! mappings, they are resolved one after another: sample a fresh random
//! alignment respecting the *current* blocking, build the greedy map for
//! the next attribute, assign it, refine, repeat — "we re-sample a new
//! random alignment after each ⊞ is replaced in order to have the next map
//! respect the previous assignment".

use affidavit_blocking::{greedy_map_from_alignment, sample_random_alignment};
use affidavit_functions::AttrFunction;
use affidavit_table::AttrId;

use crate::extend::{indeterminacy_keys, make_child};
use crate::search::Ctx;
use crate::state::SearchState;

/// Resolve every open (`∗`/`⊞`) attribute of `state` with greedy value
/// maps, producing an end state.
pub(crate) fn finalize(ctx: &mut Ctx<'_>, state: &SearchState) -> SearchState {
    let _span = affidavit_obs::span("search.finalize");
    let mut current = state.clone();
    loop {
        // Next open attribute, most determined first under the *current*
        // blocking.
        let open: Vec<usize> = current
            .assignments
            .iter()
            .enumerate()
            .filter(|(_, a)| a.is_open())
            .map(|(i, _)| i)
            .collect();
        if open.is_empty() {
            return current;
        }
        let attr = {
            let _span = affidavit_obs::span("search.order");
            indeterminacy_keys(&ctx.instance.source, &current, &open)
                .into_iter()
                .min()
                .map(|(_, a)| a)
                .expect("open is non-empty")
        };
        let map = {
            let _span = affidavit_obs::span("search.greedy_map");
            let alignment = sample_random_alignment(&current.blocking, &mut ctx.rng);
            greedy_map_from_alignment(
                &alignment,
                AttrId(attr as u32),
                &ctx.instance.source,
                &ctx.instance.target,
            )
        };
        // An empty greedy map is the identity; keep explanations clean.
        let func = if map.is_empty() {
            AttrFunction::Identity
        } else {
            AttrFunction::Map(map)
        };
        current = make_child(ctx, &current, attr, func);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AffidavitConfig;
    use crate::instance::ProblemInstance;
    use crate::state::Assignment;
    use affidavit_table::{Schema, Table, ValuePool};

    /// Permuted-key instance: both attributes are random permutations, so
    /// only value maps can explain them.
    fn permuted_instance() -> ProblemInstance {
        let mut pool = ValuePool::new();
        let rows_s: Vec<Vec<String>> = (0..10)
            .map(|i| vec![format!("a{i}"), format!("b{i}")])
            .collect();
        let rows_t: Vec<Vec<String>> = (0..10)
            .map(|i| vec![format!("a{}", (i + 3) % 10), format!("b{}", (i + 3) % 10)])
            .collect();
        let s = Table::from_rows(Schema::new(["x", "y"]), &mut pool, rows_s);
        let t = Table::from_rows(Schema::new(["x", "y"]), &mut pool, rows_t);
        ProblemInstance::new(s, t, pool).unwrap()
    }

    #[test]
    fn finalize_produces_end_state() {
        let mut inst = permuted_instance();
        let cfg = AffidavitConfig::paper_id();
        let mut ctx = Ctx::new(&mut inst, &cfg);
        let root = ctx.root_state();
        let end = finalize(&mut ctx, &root);
        assert!(end.is_end_state());
        // Both attributes resolved with maps.
        for a in &end.assignments {
            assert!(matches!(a, Assignment::Assigned(AttrFunction::Map(_))));
        }
    }

    #[test]
    fn later_maps_respect_earlier_assignments() {
        // With the root block containing all records, the first map is a
        // random alignment's greedy map; the second must then align
        // perfectly (cost bound: at an end state the maps reproduce the
        // pairing chosen by the first map). We check the end state aligns
        // all records (ct = 0) — possible only if map 2 respects map 1.
        let mut inst = permuted_instance();
        let cfg = AffidavitConfig::paper_id();
        let mut ctx = Ctx::new(&mut inst, &cfg);
        let root = ctx.root_state();
        let end = finalize(&mut ctx, &root);
        assert_eq!(end.blocking.ct(), 0, "all records must align");
        assert_eq!(end.blocking.cs(), 0);
    }
}
