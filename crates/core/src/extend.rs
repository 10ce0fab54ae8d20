//! State extension — the `Extensions(H)` procedure of Algorithm 1, as a
//! parallel two-phase engine.
//!
//! For a polled state, the undecided attributes are tried in indeterminacy
//! order: candidate functions are induced from block-sampled examples,
//! ranked by histogram overlap, and an extension is kept only if it is
//! cheaper than extending with the *greedy map* `Hд` built from a random
//! alignment — the signal that a simple function genuinely explains the
//! attribute. The paper expands the β most determined attributes, then —
//! while nothing has been kept — one further attribute at a time.
//! Attributes where the greedy map wins are ⊞-marked; if every remaining
//! attribute is map-suited the state is finalized into an end state by
//! resolving the ⊞s one after another (§4.3).
//!
//! # Two-phase structure
//!
//! **Phase 1 (ordered scan, read-only):** one `rayon::ordered_scan` over
//! the indeterminacy order. Its workers claim the next index from the
//! shim's claim book and expand that attribute against the *frozen* shared
//! state (`SearchCtx`): greedy benchmark, candidate induction, ranking and
//! child blocking/cost all run on a per-attribute `WorkerScratch` — an
//! interning overlay over the frozen pool plus a per-attribute seeded RNG.
//! Workers share nothing mutable but the claim book. The first attribute
//! at index `i` whose candidates beat the greedy map reports the stop index
//! `max(i, β − 1)` — exactly the last index the serial β-then-one-at-a-time
//! loop expands — and no index past it is claimed any more. The book's
//! run-ahead window is the worker count, so at most `workers − 1`
//! expansions past the stop are ever computed; they are dropped.
//!
//! **Phase 2 (sequential merge):** the driver walks the expansions up to
//! the stop index in attribute order, absorbs each one's newly interned
//! strings into the shared pool, rewrites escaping symbols through the
//! returned remap, assigns state ids and records trace nodes. Because the
//! per-attribute RNG streams, the stop index and the merge order are all
//! independent of scheduling, the search is byte-identical at every
//! thread count.

use rayon::prelude::*;
use std::sync::Arc;
use std::time::Instant;

use affidavit_blocking::{greedy_map_from_alignment, sample_random_alignment, Blocking};
use affidavit_functions::AttrFunction;
use affidavit_table::{AttrId, RecordId};

use crate::cost::child_state_cost;
use crate::induction::{induce_candidates, InductionParams};
use crate::ranking::rank_candidates;
use crate::search::{Ctx, SearchCtx, SearchStats, WorkerScratch};
use crate::state::{Assignment, SearchState};
use crate::trace::TraceNode;

/// Create the child of `state` that assigns `func` to `attr`, refining the
/// blocking and computing the child's cost. Driver-side (sequential) path:
/// interns directly into the shared pool.
pub(crate) fn make_child(
    ctx: &mut Ctx<'_>,
    state: &SearchState,
    attr: usize,
    func: AttrFunction,
) -> SearchState {
    // Driver-side refinements (start states, ⊞ finalization) touch every
    // live record; above the fan-out threshold, split the work over the
    // worker pool — `refine_parallel` is byte-identical to the serial
    // path, including the shared pool's contents.
    let blocking = if ctx.search_ctx().fans_out(&state.blocking) {
        state.blocking.refine_parallel(
            AttrId(attr as u32),
            &func,
            &ctx.instance.source,
            &ctx.instance.target,
            &mut ctx.instance.pool,
        )
    } else {
        state.blocking.refine(
            AttrId(attr as u32),
            &func,
            &mut ctx.scratch,
            &ctx.instance.source,
            &ctx.instance.target,
            &mut ctx.instance.pool,
        )
    };
    let bound = (blocking.ct(), blocking.cs());
    let cost = child_cost(ctx.search_ctx().cost_params(), state, &func, bound);
    register_child(ctx, state, attr, func, blocking, cost)
}

/// The `(delta, alpha, arity)` triple `child_cost` needs, extracted so
/// both the driver and the workers can call it.
#[derive(Clone, Copy)]
pub(crate) struct CostParams {
    pub delta: i64,
    pub alpha: f64,
    pub arity: usize,
}

impl SearchCtx<'_> {
    pub(crate) fn cost_params(&self) -> CostParams {
        CostParams {
            delta: self.delta,
            alpha: self.cfg.alpha,
            arity: self.arity,
        }
    }
}

/// Cost of the child of `state` assigning `func` to a previously open
/// attribute, whose blocking has the `(ct, cs)` surplus `bound`. ψ of a
/// function does not read the pool, so this is valid for functions still
/// carrying scratch symbols, and it is computed incrementally — no
/// assignment-vector clone.
fn child_cost(
    params: CostParams,
    state: &SearchState,
    func: &AttrFunction,
    bound: (u64, u64),
) -> f64 {
    child_state_cost(
        &state.assignments,
        func.psi(),
        bound,
        params.delta,
        params.alpha,
        params.arity,
    )
}

/// Driver-side: assign the next id to the child of `state` that assigns
/// `func` to `attr`, and record its trace node and `states_generated`
/// count. Every generated child passes through here, in deterministic
/// merge order, whether or not it is kept.
fn record_child(
    ctx: &mut Ctx<'_>,
    state: &SearchState,
    attr: usize,
    func: &AttrFunction,
    cost: f64,
) -> usize {
    // `cost` was computed incrementally as cf(parent) + ψ(func), which is
    // only valid when the attribute was previously open (contributing 0).
    debug_assert!(
        state.assignments[attr].is_open(),
        "extensions must target open attributes"
    );
    let id = ctx.next_id();
    ctx.stats.states_generated += 1;
    if let Some(trace) = ctx.trace.as_mut() {
        let name = ctx.instance.schema().name(AttrId(attr as u32)).to_owned();
        let label = format!("{} ← {}", name, func.display(&ctx.instance.pool));
        let assigned = |a: &Assignment| matches!(a, Assignment::Assigned(_));
        let level = state.assignments.iter().filter(|a| assigned(a)).count() + 1;
        trace.add(TraceNode {
            id,
            parent: Some(state.id),
            level,
            cost,
            label,
            polled_order: None,
            kept: false,
            end: level == state.assignments.len(),
        });
    }
    id
}

/// Driver-side: [`record_child`], then materialize the child state over
/// its already-refined `blocking`.
fn register_child(
    ctx: &mut Ctx<'_>,
    state: &SearchState,
    attr: usize,
    func: AttrFunction,
    blocking: Blocking,
    cost: f64,
) -> SearchState {
    let id = record_child(ctx, state, attr, &func, cost);
    let mut assignments = state.assignments.clone();
    assignments[attr] = Assignment::Assigned(func);
    SearchState {
        assignments,
        blocking: Arc::new(blocking),
        cost,
        id,
        parent: Some(state.id),
    }
}

/// The `(indeterminacy, attr)` key of every attribute in `attrs` under
/// `state`'s blocking, in `attrs` order — fanned out across the installed
/// pool when `parallel`, and identical either way.
pub(crate) fn indeterminacy_keys(
    source: &affidavit_table::Table,
    state: &SearchState,
    attrs: &[usize],
    parallel: bool,
) -> Vec<(usize, usize)> {
    let key = |&a: &usize| (state.blocking.indeterminacy(AttrId(a as u32), source), a);
    if parallel {
        attrs.par_iter().map(key).collect()
    } else {
        attrs.iter().map(key).collect()
    }
}

/// Undecided attributes ordered by indeterminacy (most determined first,
/// ties towards the lower attribute index) — the `Order-By-Indeterminacy`
/// step. Takes the source table directly so it runs on a frozen state
/// without the driver context.
pub(crate) fn order_by_indeterminacy(
    source: &affidavit_table::Table,
    state: &SearchState,
    parallel: bool,
) -> Vec<usize> {
    let _span = affidavit_obs::span("search.order");
    let mut keys = indeterminacy_keys(source, state, &state.undecided_attrs(), parallel);
    keys.sort_unstable();
    keys.into_iter().map(|(_, a)| a).collect()
}

/// One candidate child computed by a worker: function (possibly carrying
/// scratch symbols) and cost, plus the refined blocking if it was kept.
/// Blockings store only record ids, so they are valid globally as-is.
struct CandChild {
    func: AttrFunction,
    cost: f64,
    /// Built only for a child that beat the greedy benchmark: only such
    /// children enter the frontier. The rest are costed from the bound
    /// pass alone and still get ids and trace nodes, as in the sequential
    /// engine.
    blocking: Option<Blocking>,
}

/// Everything one worker produced for one attribute.
struct AttrExpansion {
    attr: usize,
    /// Pool length the worker's scratch was frozen at.
    base_len: usize,
    /// Strings the worker interned, in interning order.
    new_strings: Vec<Arc<str>>,
    /// The greedy-map benchmark child `Hд` (never kept).
    greedy: CandChild,
    /// All ranked candidates, in rank order (kept and rejected).
    ranked: Vec<CandChild>,
    /// Distinct examples induction induced.
    induction_examples: usize,
    /// Images ranking computed.
    rank_applications: usize,
}

impl AttrExpansion {
    /// Whether some candidate beat the greedy benchmark.
    fn any_kept(&self) -> bool {
        self.ranked.iter().any(|c| c.blocking.is_some())
    }
}

/// The `(ct, cs)` of refining `state`'s blocking on `attr` with `func`,
/// from the bound pass on the worker's scratch. Debug builds check it
/// against a full refine.
fn bound_of(
    sctx: &SearchCtx<'_>,
    state: &SearchState,
    attr: AttrId,
    func: &AttrFunction,
    ws: &mut WorkerScratch<'_>,
) -> (u64, u64) {
    let (source, target) = (sctx.source, sctx.target);
    let bound =
        state
            .blocking
            .refine_bound(attr, func, &mut ws.apply, source, target, &mut ws.pool);
    #[cfg(debug_assertions)]
    {
        let full = state
            .blocking
            .refine(attr, func, &mut ws.apply, source, target, &mut ws.pool);
        debug_assert_eq!(bound, (full.ct(), full.cs()), "bound pass of {func:?}");
    }
    bound
}

/// Phase 1 worker: expand one attribute against the frozen context.
/// Shares nothing mutable; deterministic given `(cfg.seed, state.id, attr)`.
///
/// Every child is costed from [`Blocking::refine_bound`]; only a kept one
/// is then refined into a blocking. The second pass interns nothing new
/// (the bound pass already interned every transformed value, in the same
/// order), so the worker's new strings are those of one refine per child.
fn expand_attr(
    sctx: &SearchCtx<'_>,
    state: &SearchState,
    attr: usize,
    alignment: &[(RecordId, RecordId)],
) -> AttrExpansion {
    let mut ws = sctx.scratch_for(state.id, attr);
    let params = sctx.cost_params();
    let attr_id = AttrId(attr as u32);

    // The greedy-map benchmark Hд. An empty map (every aligned value
    // already agrees) is the identity — normalize so explanations never
    // show `map{}`.
    let gmap = {
        let _span = affidavit_obs::span("search.greedy_map");
        greedy_map_from_alignment(alignment, attr_id, sctx.source, sctx.target)
    };
    let g_func = if gmap.is_empty() {
        AttrFunction::Identity
    } else {
        AttrFunction::Map(gmap)
    };
    let g_bound = bound_of(sctx, state, attr_id, &g_func, &mut ws);
    let g_cost = child_cost(params, state, &g_func, g_bound);

    // Induce and rank candidates for this attribute.
    let induction = InductionParams {
        k: sctx.k_induce,
        min_support: sctx.cfg.min_support,
        max_examples_per_target: sctx.cfg.max_examples_per_target,
        use_corpus: sctx.cfg.use_corpus,
    };
    let induced = induce_candidates(
        &state.blocking,
        attr_id,
        sctx.source,
        sctx.target,
        &mut ws.pool,
        &sctx.cfg.registry,
        induction,
        &mut ws.rng,
    );
    let ranking = rank_candidates(
        &state.blocking,
        attr_id,
        induced.candidates.into_iter().map(|c| c.func).collect(),
        sctx.source,
        sctx.target,
        &mut ws.pool,
        sctx.k_rank,
        sctx.cfg.beta.max(1),
        &mut ws.rng,
    );

    let mut children = Vec::new();
    for rc in ranking.ranked {
        let bound = bound_of(sctx, state, attr_id, &rc.func, &mut ws);
        let cost = child_cost(params, state, &rc.func, bound);
        let blocking = (cost < g_cost).then(|| {
            state.blocking.refine(
                attr_id,
                &rc.func,
                &mut ws.apply,
                sctx.source,
                sctx.target,
                &mut ws.pool,
            )
        });
        children.push(CandChild {
            func: rc.func,
            cost,
            blocking,
        });
    }

    AttrExpansion {
        attr,
        base_len: ws.pool.base_len(),
        new_strings: ws.pool.take_new_strings(),
        greedy: CandChild {
            func: g_func,
            cost: g_cost,
            blocking: None,
        },
        ranked: children,
        induction_examples: induced.examples,
        rank_applications: ranking.applications,
    }
}

/// Everything phase 1 produced for one polled state: per-attribute
/// expansions in indeterminacy order up to the stop index, plus whether
/// any candidate beat its greedy benchmark. Pure worker output — nothing
/// here has touched shared search state yet.
struct StateExpansion {
    parts: Vec<AttrExpansion>,
    any_kept: bool,
    /// Expansions computed past the stop index and dropped.
    discarded: usize,
}

impl StateExpansion {
    /// Add this expansion's attribute-level work to the run counters.
    fn tally(&self, stats: &mut SearchStats) {
        stats.attr_expansions += self.parts.len() + self.discarded;
        stats.attr_expansions_discarded += self.discarded;
        for part in &self.parts {
            stats.induction_examples += part.induction_examples;
            stats.rank_applications += part.rank_applications;
        }
    }
}

/// Phase 1 for a whole state: order the undecided attributes, then run the
/// ordered attribute scan against the frozen context — one worker per
/// thread of the installed pool when the state is large enough to fan
/// out, one worker on the calling thread otherwise. The expansions
/// kept are those at indices `0..=stop`, where `stop` is the last index
/// the serial β-then-one-at-a-time loop would expand, so the result is
/// identical at every worker count.
fn expand_state(
    sctx: &SearchCtx<'_>,
    state: &SearchState,
    alignment: &[(RecordId, RecordId)],
) -> StateExpansion {
    let parallel = sctx.fans_out(&state.blocking);
    let astar = order_by_indeterminacy(sctx.source, state, parallel);
    debug_assert!(!astar.is_empty(), "expand_state called on an end state");
    // The serial loop expands the whole β batch `0..β`, then stops at the
    // first attribute with a kept candidate: a keeper at `i` stops at
    // `max(i, β − 1)`.
    let floor = sctx.cfg.beta.max(1) - 1;
    let workers = if parallel { sctx.threads } else { 1 };
    let (parts, discarded) = rayon::ordered_scan(astar.len(), workers, |i| {
        let exp = expand_attr(sctx, state, astar[i], alignment);
        let stop = exp.any_kept().then_some(i.max(floor));
        (exp, stop)
    });
    let any_kept = parts.iter().any(AttrExpansion::any_kept);
    StateExpansion {
        parts,
        any_kept,
        discarded,
    }
}

/// Phase 2: absorb a state expansion into the shared pool and register
/// every child (greedy benchmark + ranked candidates, in processed order),
/// returning the kept extensions. Runs on the driver thread — this is
/// where ids, trace nodes and pool contents are assigned.
///
/// An empty result means every expanded attribute is map-suited; the
/// caller finalizes.
fn consume_state_expansion(
    ctx: &mut Ctx<'_>,
    state: &SearchState,
    exp: StateExpansion,
) -> Vec<SearchState> {
    let _span = affidavit_obs::span("search.consume");
    let mut ext: Vec<SearchState> = Vec::new();
    for part in exp.parts {
        let remap = ctx.instance.pool.absorb(part.base_len, &part.new_strings);
        // Record the greedy benchmark child (id + trace parity with the
        // historical sequential engine; never kept).
        let greedy = part.greedy.func.remap(&remap);
        record_child(ctx, state, part.attr, &greedy, part.greedy.cost);
        for cand in part.ranked {
            let func = cand.func.remap(&remap);
            match cand.blocking {
                Some(blocking) => {
                    ext.push(register_child(
                        ctx, state, part.attr, func, blocking, cand.cost,
                    ));
                }
                None => {
                    record_child(ctx, state, part.attr, &func, cand.cost);
                }
            }
        }
        // Map-marking is implicit: attrs with no kept candidate stay ∗.
    }
    debug_assert_eq!(exp.any_kept, !ext.is_empty());
    ext
}

/// The `Extensions(H)` procedure. Returns the kept extensions, or — when
/// every undecided attribute turns out to be map-suited — a single
/// finalized end state.
pub(crate) fn extensions(ctx: &mut Ctx<'_>, state: &SearchState) -> Vec<SearchState> {
    let alignment = {
        let _span = affidavit_obs::span("search.align");
        sample_random_alignment(&state.blocking, &mut ctx.rng)
    };
    let started = Instant::now();
    let exp = {
        let sctx = ctx.search_ctx();
        expand_state(&sctx, state, &alignment)
    };
    exp.tally(&mut ctx.stats);
    let elapsed = started.elapsed();
    ctx.stats.extension_time += elapsed;
    affidavit_obs::metrics().observe("search_expansion_micros", elapsed.as_micros() as f64);
    let ext = consume_state_expansion(ctx, state, exp);
    if ext.is_empty() {
        // Every undecided attribute is best served by a value mapping:
        // mark all ⊞ and finalize (Algorithm 1's fallback branch).
        return vec![crate::finalize::finalize(ctx, state)];
    }
    ext
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AffidavitConfig;
    use crate::instance::ProblemInstance;
    use crate::search::Ctx;
    use affidavit_blocking::Blocking;
    use affidavit_table::{Schema, Table, ValuePool};

    fn instance() -> ProblemInstance {
        let mut pool = ValuePool::new();
        let rows_s: Vec<Vec<String>> = (0..30)
            .map(|i| vec![format!("k{i}"), format!("{}", i * 1000), "usd".into()])
            .collect();
        let rows_t: Vec<Vec<String>> = (0..30)
            .map(|i| vec![format!("k{i}"), format!("{i}"), "USD".into()])
            .collect();
        let s = Table::from_rows(Schema::new(["k", "Val", "Unit"]), &mut pool, rows_s);
        let t = Table::from_rows(Schema::new(["k", "Val", "Unit"]), &mut pool, rows_t);
        ProblemInstance::new(s, t, pool).unwrap()
    }

    #[test]
    fn extends_with_cheap_functions() {
        let mut inst = instance();
        let cfg = AffidavitConfig::paper_id();
        let mut ctx = Ctx::new(&mut inst, &cfg);
        // Start from the state that assigns id to the key attribute.
        let root = ctx.root_state();
        let start = make_child(&mut ctx, &root, 0, AttrFunction::Identity);
        let exts = extensions(&mut ctx, &start);
        assert!(!exts.is_empty());
        // Every extension must be cheaper than its greedy-map benchmark
        // and strictly extend the parent.
        for e in &exts {
            assert_eq!(e.level(), 2);
            assert_eq!(e.parent, Some(start.id));
        }
        // Among the extensions there should be the true scaling or the
        // uppercase function (both are dramatically cheaper than maps).
        let found_structural = exts.iter().any(|e| {
            e.assignments.iter().any(|a| {
                matches!(
                    a,
                    Assignment::Assigned(AttrFunction::Scale(_))
                        | Assignment::Assigned(AttrFunction::Uppercase)
                )
            })
        });
        assert!(found_structural);
    }

    #[test]
    fn parallel_extensions_match_sequential() {
        // The two-phase engine must produce identical children (functions,
        // costs, ids) at any thread count.
        let describe = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                let mut inst = instance();
                let mut cfg = AffidavitConfig::paper_id().with_threads(threads);
                cfg.parallel_min_records = 0; // force the fan-out path even on this tiny instance
                let mut ctx = Ctx::new(&mut inst, &cfg);
                let root = ctx.root_state();
                let start = make_child(&mut ctx, &root, 0, AttrFunction::Identity);
                extensions(&mut ctx, &start)
                    .iter()
                    .map(|e| (e.id, e.cost, format!("{:?}", e.assignments)))
                    .collect::<Vec<_>>()
            })
        };
        let seq = describe(1);
        let par = describe(4);
        assert_eq!(seq, par);
    }

    /// Key `k` aligns every record; `P1..P5` are unrelated relabelings
    /// that only a value map explains; `U` is upper-cased. Once `k` is
    /// assigned id every block is a singleton, so all indeterminacies tie
    /// and the scan order is the attribute order: the first attribute with
    /// a kept candidate (`U`, scan index 3) lies past the β = 2 batch.
    fn late_keeper_instance() -> ProblemInstance {
        let mut pool = ValuePool::new();
        let n = 40;
        let relabel = |i: usize, salt: usize| format!("q{}", 100 + (i * 17 + salt * 5) % n);
        let rows_s: Vec<Vec<String>> = (0..n)
            .map(|i| {
                let mut row = vec![format!("k{i}")];
                row.extend((1..=3).map(|p| format!("s{p}-{i}")));
                row.push(format!("unit{i}x"));
                row.extend((4..=5).map(|p| format!("s{p}-{i}")));
                row
            })
            .collect();
        let rows_t: Vec<Vec<String>> = (0..n)
            .map(|i| {
                let mut row = vec![format!("k{i}")];
                row.extend((1..=3).map(|p| relabel(i, p)));
                row.push(format!("UNIT{i}X"));
                row.extend((4..=5).map(|p| relabel(i, p)));
                row
            })
            .collect();
        let schema = Schema::new(["k", "P1", "P2", "P3", "U", "P4", "P5"]);
        let s = Table::from_rows(schema.clone(), &mut pool, rows_s);
        let t = Table::from_rows(schema, &mut pool, rows_t);
        ProblemInstance::new(s, t, pool).unwrap()
    }

    /// What one expansion of `pick(start)` yields under an installed pool
    /// of `threads` and batch size `beta`, with the fan-out gate open: the
    /// expanded attributes in merge order, the run-ahead discards, and the
    /// kept children.
    fn scan_at(
        threads: usize,
        beta: usize,
        pick: fn(&mut Ctx<'_>, &SearchState) -> SearchState,
    ) -> (Vec<usize>, usize, Vec<(usize, u64, String)>) {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            let mut inst = late_keeper_instance();
            let mut cfg = AffidavitConfig::paper_id().with_threads(threads);
            cfg.parallel_min_records = 0;
            cfg.beta = beta;
            let mut ctx = Ctx::new(&mut inst, &cfg);
            let root = ctx.root_state();
            let start = make_child(&mut ctx, &root, 0, AttrFunction::Identity);
            let state = pick(&mut ctx, &start);
            let alignment = sample_random_alignment(&state.blocking, &mut ctx.rng);
            let exp = expand_state(&ctx.search_ctx(), &state, &alignment);
            let expanded = exp.parts.iter().map(|p| p.attr).collect();
            let discarded = exp.discarded;
            let children = consume_state_expansion(&mut ctx, &state, exp)
                .iter()
                .map(|e| (e.id, e.cost.to_bits(), format!("{:?}", e.assignments)))
                .collect();
            (expanded, discarded, children)
        })
    }

    #[test]
    fn ordered_scan_stops_at_the_first_keeper_past_the_batch() {
        let keep_start = |_: &mut Ctx<'_>, s: &SearchState| s.clone();
        let (expanded, discarded, children) = scan_at(1, 2, keep_start);
        assert_eq!(
            expanded,
            vec![1, 2, 3, 4],
            "β batch {{P1, P2}}, then P3, then U is kept and the scan stops"
        );
        assert_eq!(discarded, 0, "one worker never runs ahead");
        assert!(!children.is_empty());
        assert!(children.iter().all(|c| c.2.contains("Uppercase")));
        for threads in [2, 4] {
            for _ in 0..8 {
                let (e, d, c) = scan_at(threads, 2, keep_start);
                assert_eq!((&e, &c), (&expanded, &children), "threads {threads}");
                assert!(d < threads, "threads {threads} discarded {d}");
            }
        }
        // A keeper inside the batch does not cut the batch short: with
        // β = 5 the serial loop expands scan indices 0..=4 whatever it keeps.
        for threads in [1, 2, 4] {
            let (e, d, _) = scan_at(threads, 5, keep_start);
            assert_eq!(e, vec![1, 2, 3, 4, 5], "threads {threads}");
            assert!(d < threads, "threads {threads} discarded {d}");
        }
    }

    #[test]
    fn ordered_scan_without_a_keeper_expands_every_attribute() {
        let assign_u =
            |ctx: &mut Ctx<'_>, s: &SearchState| make_child(ctx, s, 4, AttrFunction::Uppercase);
        for threads in [1, 2, 4] {
            let (expanded, discarded, children) = scan_at(threads, 2, assign_u);
            assert_eq!(expanded, vec![1, 2, 3, 5, 6], "threads {threads}");
            assert_eq!(discarded, 0, "threads {threads}");
            assert!(children.is_empty(), "threads {threads}");
        }
    }

    #[test]
    fn indeterminacy_ordering_prefers_determined() {
        let mut inst = instance();
        let cfg = AffidavitConfig::paper_id();
        let mut ctx = Ctx::new(&mut inst, &cfg);
        let root = ctx.root_state();
        let start = make_child(&mut ctx, &root, 0, AttrFunction::Identity);
        let order = order_by_indeterminacy(&ctx.instance.source, &start, false);
        // Unit has 1 distinct source value per block; Val has 1 as well
        // (singleton blocks) — ties break towards the lower index (1).
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    fn root_state_blocking_is_single_block() {
        let mut inst = instance();
        let cfg = AffidavitConfig::paper_id();
        let mut ctx = Ctx::new(&mut inst, &cfg);
        let root = ctx.root_state();
        assert_eq!(root.blocking.len(), 1);
        assert!(Blocking::root(&ctx.instance.source, &ctx.instance.target)
            .block(0)
            .is_mixed());
    }
}
