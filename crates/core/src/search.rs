//! The Affidavit driver — Algorithm 1.

use std::sync::Arc;
use std::time::{Duration, Instant};

use affidavit_blocking::{overlap_start_attrs, Blocking, OverlapConfig};
use affidavit_functions::{ApplyScratch, AttrFunction};
use affidavit_table::{AttrId, FxHashSet, ScratchPool, Table, ValuePool};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::{AffidavitConfig, InitStrategy};
use crate::cost::state_cost;
use crate::explanation::Explanation;
use crate::extend::{extensions, make_child};
use crate::finalize::finalize;
use crate::instance::ProblemInstance;
use crate::queue::BoundedLevelQueue;
use crate::state::{Assignment, SearchState};
use crate::stats::{cochran_sample_size, induction_sample_size};
use crate::trace::{SearchTrace, TraceNode};

/// Counters describing one search run.
#[derive(Debug, Clone, Default)]
pub struct SearchStats {
    /// States extracted from the queue.
    pub polled: usize,
    /// States expanded (non-end states extracted).
    pub expansions: usize,
    /// States generated (children built, kept or not).
    pub states_generated: usize,
    /// Wall-clock duration of the search.
    pub duration: Duration,
    /// Cost of the returned end state (Def. 4.6 normalization).
    pub end_state_cost: f64,
    /// Whether the safety valve (`max_expansions`) fired.
    pub hit_expansion_limit: bool,
    /// Wall-clock time spent in the `Extensions(H)` candidate-generation
    /// phase (the part that fans out across worker threads).
    pub extension_time: Duration,
    /// Attribute expansions the ordered attribute scan computed, merged or
    /// dropped. Unlike `polled`/`expansions`, this counts work performed
    /// and may vary with the thread count.
    pub attr_expansions: usize,
    /// Attribute expansions a scan worker computed past the stop index,
    /// which the driver dropped unabsorbed — at most `threads − 1` per
    /// state expansion, always `0` on one worker.
    pub attr_expansions_discarded: usize,
    /// Distinct `(source value, target value)` examples candidate
    /// induction induced, summed over the merged attribute expansions
    /// only, so it is the same at every thread count.
    pub induction_examples: usize,
    /// Function applications candidate ranking computed (each candidate
    /// transforms a value at most once per ranking), summed like
    /// `induction_examples`.
    pub rank_applications: usize,
}

impl SearchStats {
    /// Publish these counters into the process-wide metrics registry
    /// under the `search_*` series, verbatim. A pure side effect at the
    /// end of a run; nothing in the search reads the registry back.
    pub fn publish(&self) {
        let m = affidavit_obs::metrics();
        m.set_counter("search_polled", self.polled as u64);
        m.set_counter("search_expansions", self.expansions as u64);
        m.set_counter("search_states_generated", self.states_generated as u64);
        m.set_counter("search_attr_expansions", self.attr_expansions as u64);
        m.set_counter(
            "search_attr_expansions_discarded",
            self.attr_expansions_discarded as u64,
        );
        m.set_counter("search_induction_examples", self.induction_examples as u64);
        m.set_counter("search_rank_applications", self.rank_applications as u64);
        m.set_gauge("search_end_state_cost", self.end_state_cost);
        m.set_gauge(
            "search_hit_expansion_limit",
            if self.hit_expansion_limit { 1.0 } else { 0.0 },
        );
        m.observe("search_duration_micros", self.duration.as_micros() as f64);
        m.observe(
            "search_extension_micros",
            self.extension_time.as_micros() as f64,
        );
    }
}

/// The search overran the wall-clock deadline passed to
/// [`Affidavit::explain_until`]. A cooperative abort: the driver checks
/// between iterations, so the partial work is simply dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineExceeded;

impl std::fmt::Display for DeadlineExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "search exceeded its deadline")
    }
}

impl std::error::Error for DeadlineExceeded {}

/// The result of a search: explanation, counters, optional trace.
#[derive(Debug)]
pub struct SearchOutcome {
    /// The produced (always valid) explanation.
    pub explanation: Explanation,
    /// Run counters.
    pub stats: SearchStats,
    /// The recorded search tree, if tracing was enabled.
    pub trace: Option<SearchTrace>,
}

/// The read-only half of the search context.
///
/// Everything candidate generation needs to read — snapshots, the frozen
/// value pool, configuration and derived sample sizes — without any
/// mutable state. `SearchCtx` is `Sync`; every extension worker shares one
/// instance by reference while the driver's mutable state ([`Ctx`]) stays
/// on the coordinating thread.
pub(crate) struct SearchCtx<'a> {
    pub source: &'a Table,
    pub target: &'a Table,
    pub pool: &'a ValuePool,
    pub cfg: &'a AffidavitConfig,
    /// `cfg.threads` resolved: `0` becomes the hardware thread count.
    pub threads: usize,
    pub k_induce: usize,
    pub k_rank: usize,
    pub delta: i64,
    pub arity: usize,
}

/// Per-worker mutable scratch for one attribute expansion: an interning
/// overlay over the frozen pool, a reusable function-application memo and
/// a per-attribute deterministic RNG. Nothing in here is shared — workers
/// never contend, and results are independent of scheduling.
pub(crate) struct WorkerScratch<'a> {
    pub pool: ScratchPool<'a>,
    pub apply: ApplyScratch,
    pub rng: StdRng,
}

impl<'a> SearchCtx<'a> {
    /// Scratch for expanding `attr` out of the state with id `state_id`.
    ///
    /// The RNG seed mixes `(cfg.seed, state_id, attr)` — state ids are
    /// assigned in deterministic merge order, so every worker draws an
    /// identical stream at any thread count.
    pub(crate) fn scratch_for(&self, state_id: usize, attr: usize) -> WorkerScratch<'a> {
        WorkerScratch {
            pool: ScratchPool::new(self.pool.reader()),
            apply: ApplyScratch::new(),
            rng: StdRng::seed_from_u64(mix3(self.cfg.seed, state_id as u64, attr as u64)),
        }
    }
}

/// SplitMix64-style mixing of three words into one seed.
fn mix3(a: u64, b: u64, c: u64) -> u64 {
    let mut z = a
        .wrapping_add(b.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(c.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The mutable half of the search context, owned by the driver thread:
/// the problem instance (whose pool only grows when worker results are
/// absorbed between parallel phases), run counters, the trace, the
/// alignment-sampling RNG and the id counter.
pub(crate) struct Ctx<'a> {
    pub instance: &'a mut ProblemInstance,
    pub cfg: &'a AffidavitConfig,
    /// `cfg.threads` resolved once per search.
    pub threads: usize,
    pub rng: StdRng,
    pub scratch: ApplyScratch,
    pub k_induce: usize,
    pub k_rank: usize,
    pub delta: i64,
    pub arity: usize,
    pub stats: SearchStats,
    pub trace: Option<SearchTrace>,
    next_id: usize,
}

impl<'a> Ctx<'a> {
    pub(crate) fn new(instance: &'a mut ProblemInstance, cfg: &'a AffidavitConfig) -> Ctx<'a> {
        let delta = instance.delta();
        let arity = instance.arity();
        Ctx {
            instance,
            cfg,
            threads: cfg.effective_threads(),
            rng: StdRng::seed_from_u64(cfg.seed),
            scratch: ApplyScratch::new(),
            k_induce: induction_sample_size(cfg.theta, cfg.confidence),
            k_rank: cochran_sample_size(cfg.theta),
            delta,
            arity,
            stats: SearchStats::default(),
            trace: if cfg.trace {
                Some(SearchTrace::new())
            } else {
                None
            },
            next_id: 0,
        }
    }

    /// Freeze the read-only view for a parallel phase. The borrow ends
    /// before the driver absorbs worker results back into the pool.
    pub(crate) fn search_ctx(&self) -> SearchCtx<'_> {
        SearchCtx {
            source: &self.instance.source,
            target: &self.instance.target,
            pool: &self.instance.pool,
            cfg: self.cfg,
            threads: self.threads,
            k_induce: self.k_induce,
            k_rank: self.k_rank,
            delta: self.delta,
            arity: self.arity,
        }
    }

    pub(crate) fn next_id(&mut self) -> usize {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// The all-`∗` root state over the root blocking.
    pub(crate) fn root_state(&mut self) -> SearchState {
        let blocking = Blocking::root(&self.instance.source, &self.instance.target);
        let assignments = vec![Assignment::Undecided; self.arity];
        let cost = state_cost(
            &assignments,
            &blocking,
            self.delta,
            self.cfg.alpha,
            self.arity,
        );
        let id = self.next_id();
        if let Some(trace) = self.trace.as_mut() {
            trace.add(TraceNode {
                id,
                parent: None,
                level: 0,
                cost,
                label: "H∅ (∗, …, ∗)".to_owned(),
                polled_order: None,
                kept: true,
                end: self.arity == 0,
            });
        }
        SearchState {
            assignments,
            blocking: Arc::new(blocking),
            cost,
            id,
            parent: None,
        }
    }

    /// The configured start states `H0` (§4.2).
    fn start_states(&mut self) -> Vec<SearchState> {
        let root = self.root_state();
        match self.cfg.init {
            InitStrategy::Empty => vec![root],
            InitStrategy::Id => {
                if self.arity == 0 {
                    return vec![root];
                }
                (0..self.arity)
                    .map(|a| make_child(self, &root, a, AttrFunction::Identity))
                    .collect()
            }
            InitStrategy::Overlap => {
                let attrs = overlap_start_attrs(
                    &self.instance.source,
                    &self.instance.target,
                    OverlapConfig {
                        max_pairs_per_value: self.cfg.max_block_size,
                    },
                );
                if attrs.is_empty() {
                    return vec![root];
                }
                let mut state = root;
                for AttrId(a) in attrs {
                    state = make_child(self, &state, a as usize, AttrFunction::Identity);
                }
                vec![state]
            }
        }
    }
}

/// Push freshly generated children into the frontier, de-duplicating on
/// the assignment vector (end states bypass duplicate detection: their
/// value maps make signatures heavy and they terminate the search quickly
/// anyway).
fn push_children(
    ctx: &mut Ctx<'_>,
    queue: &mut BoundedLevelQueue,
    visited: &mut FxHashSet<Vec<Assignment>>,
    children: Vec<SearchState>,
) {
    for child in children {
        if child.is_end_state() || visited.insert(child.assignments.clone()) {
            let kept = queue.push(child.clone());
            if let Some(trace) = ctx.trace.as_mut() {
                trace.mark_kept(child.id, kept);
            }
        }
    }
}

/// The Affidavit search algorithm.
#[derive(Debug, Clone, Default)]
pub struct Affidavit {
    cfg: AffidavitConfig,
}

impl Affidavit {
    /// Create a solver with the given configuration.
    pub fn new(cfg: AffidavitConfig) -> Affidavit {
        Affidavit { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AffidavitConfig {
        &self.cfg
    }

    /// Solve the instance: run the best-first search until an end state is
    /// polled, then convert it into a valid explanation (Prop. 3.6).
    ///
    /// Always returns a valid explanation: if the queue drains or the
    /// expansion limit fires, the best partial state is finalized with
    /// greedy maps.
    ///
    /// When `cfg.threads` resolves to more than one thread, the ordered
    /// attribute scan of every expansion runs on that many scoped threads.
    /// The result is byte-identical to the sequential run at any thread
    /// count (see [`AffidavitConfig::threads`]).
    pub fn explain(&self, instance: &mut ProblemInstance) -> SearchOutcome {
        self.explain_until(instance, None)
            .expect("a deadline-free search cannot time out")
    }

    /// [`Affidavit::explain`] with an optional wall-clock deadline.
    ///
    /// The driver checks the deadline between iterations (never inside
    /// a parallel phase), so an abort is cooperative and prompt at the
    /// granularity of one expansion. `None` never fails.
    pub fn explain_until(
        &self,
        instance: &mut ProblemInstance,
        deadline: Option<Instant>,
    ) -> Result<SearchOutcome, DeadlineExceeded> {
        let _span = affidavit_obs::span("search.explain");
        let started = Instant::now();
        let mut ctx = Ctx::new(instance, &self.cfg);
        let mut queue = BoundedLevelQueue::new(self.cfg.queue_width);
        let mut visited: FxHashSet<Vec<Assignment>> = FxHashSet::default();

        for st in ctx.start_states() {
            if let Some(trace) = ctx.trace.as_mut() {
                trace.mark_kept(st.id, true);
            }
            visited.insert(st.assignments.clone());
            queue.push(st);
        }

        let mut last_polled: Option<SearchState> = None;
        let end_state = loop {
            // Deadline checks sit between iterations only: an abort is
            // cooperative, and a run that finishes in time never
            // branches on the clock — output stays deadline-independent.
            if let Some(limit) = deadline {
                if Instant::now() >= limit {
                    return Err(DeadlineExceeded);
                }
            }
            let Some(state) = queue.poll() else {
                // Queue drained without reaching an end state (all children
                // were duplicates or evicted): finalize the last polled
                // state — or the root if nothing was ever polled.
                let basis = match last_polled.take() {
                    Some(s) => s,
                    None => ctx.root_state(),
                };
                break finalize(&mut ctx, &basis);
            };
            ctx.stats.polled += 1;
            if let Some(trace) = ctx.trace.as_mut() {
                trace.mark_polled(state.id);
            }
            if state.is_end_state() {
                break state;
            }
            ctx.stats.expansions += 1;
            if ctx.stats.expansions > self.cfg.max_expansions {
                ctx.stats.hit_expansion_limit = true;
                break finalize(&mut ctx, &state);
            }
            let children = {
                let _span = affidavit_obs::span("search.expand");
                extensions(&mut ctx, &state)
            };
            last_polled = Some(state);
            push_children(&mut ctx, &mut queue, &mut visited, children);
        };

        ctx.stats.end_state_cost = end_state.cost;
        let functions = end_state
            .functions()
            .expect("finalized states are end states");
        let explanation = Explanation::from_functions(functions, ctx.instance);
        let mut stats = ctx.stats;
        stats.duration = started.elapsed();
        stats.publish();
        Ok(SearchOutcome {
            explanation,
            stats,
            trace: ctx.trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use affidavit_table::{Schema, Table, ValuePool};

    /// 30 records; Val scaled by 1/1000, Unit constant-replaced, key and
    /// Org unchanged; 3 deleted + 3 inserted noise records.
    fn noisy_instance() -> ProblemInstance {
        let mut pool = ValuePool::new();
        let orgs = ["IBM", "SAP", "BASF"];
        let mut rows_s: Vec<Vec<String>> = (0..30)
            .map(|i| {
                vec![
                    format!("k{i}"),
                    format!("{}", (i + 1) * 1000),
                    "USD".to_owned(),
                    orgs[i % 3].to_owned(),
                ]
            })
            .collect();
        let mut rows_t: Vec<Vec<String>> = (0..30)
            .map(|i| {
                vec![
                    format!("k{i}"),
                    format!("{}", i + 1),
                    "k $".to_owned(),
                    orgs[i % 3].to_owned(),
                ]
            })
            .collect();
        // Noise: deleted-only sources and inserted-only targets.
        for i in 30..33 {
            rows_s.push(vec![
                format!("del{i}"),
                format!("{}", i * 7000),
                "USD".to_owned(),
                "NOISE".to_owned(),
            ]);
            rows_t.push(vec![
                format!("ins{i}"),
                format!("{}", i * 13),
                "k $".to_owned(),
                "NOISE".to_owned(),
            ]);
        }
        let schema = Schema::new(["key", "Val", "Unit", "Org"]);
        let s = Table::from_rows(schema.clone(), &mut pool, rows_s);
        let t = Table::from_rows(schema, &mut pool, rows_t);
        ProblemInstance::new(s, t, pool).unwrap()
    }

    #[test]
    fn finds_the_reference_explanation_id_config() {
        let mut inst = noisy_instance();
        let out = Affidavit::new(AffidavitConfig::paper_id()).explain(&mut inst);
        let e = &out.explanation;
        e.validate(&mut inst).unwrap();
        assert_eq!(e.core_size(), 30, "core must align all 30 real records");
        assert_eq!(e.deleted.len(), 3);
        assert_eq!(e.inserted.len(), 3);
        // The learned functions: id, x/1000, const 'k $', id.
        assert!(e.functions[0].is_identity());
        assert!(
            matches!(&e.functions[1], AttrFunction::Scale(r) if r.num() == 1 && r.den() == 1000),
            "{:?}",
            e.functions[1]
        );
        // The Unit function must send 'USD' to 'k $' with a single-parameter
        // function (Constant and full-width FrontMask are equally cheap).
        assert_eq!(e.functions[2].psi(), 1);
        let usd = inst.pool.lookup("USD").unwrap();
        let out = e.functions[2].apply(usd, &mut inst.pool).unwrap();
        assert_eq!(inst.pool.get(out), "k $");
        assert!(e.functions[3].is_identity());
    }

    #[test]
    fn overlap_config_also_solves_it() {
        let mut inst = noisy_instance();
        let out = Affidavit::new(AffidavitConfig::paper_overlap()).explain(&mut inst);
        let e = &out.explanation;
        e.validate(&mut inst).unwrap();
        assert_eq!(e.core_size(), 30);
        assert!(matches!(&e.functions[1], AttrFunction::Scale(_)));
    }

    #[test]
    fn end_state_cost_matches_explanation_cost() {
        // The Def. 4.6 normalization (see cost.rs): at an end state the
        // search cost equals the explanation cost.
        let mut inst = noisy_instance();
        let out = Affidavit::new(AffidavitConfig::paper_id()).explain(&mut inst);
        let arity = 4;
        assert_eq!(
            out.stats.end_state_cost,
            out.explanation.cost(0.5, arity),
            "end-state bound must be tight"
        );
    }

    #[test]
    fn explanation_beats_trivial() {
        let mut inst = noisy_instance();
        let trivial_cost = Explanation::trivial(&inst).cost_units(4);
        let out = Affidavit::new(AffidavitConfig::paper_id()).explain(&mut inst);
        assert!(out.explanation.cost_units(4) < trivial_cost);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut inst = noisy_instance();
            let cfg = AffidavitConfig::paper_id().with_seed(seed);
            let out = Affidavit::new(cfg).explain(&mut inst);
            (
                out.explanation.functions.clone(),
                out.explanation.core_size(),
            )
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn identical_snapshots_need_identity_only() {
        let mut pool = ValuePool::new();
        let rows: Vec<Vec<String>> = (0..20).map(|i| vec![format!("v{i}")]).collect();
        let s = Table::from_rows(Schema::new(["a"]), &mut pool, rows.clone());
        let t = Table::from_rows(Schema::new(["a"]), &mut pool, rows);
        let mut inst = ProblemInstance::new(s, t, pool).unwrap();
        let out = Affidavit::new(AffidavitConfig::paper_id()).explain(&mut inst);
        assert!(out.explanation.functions[0].is_identity());
        assert_eq!(out.explanation.core_size(), 20);
        assert_eq!(out.explanation.cost_units(1), 0);
    }

    #[test]
    fn empty_tables_yield_trivial_core() {
        let mut pool = ValuePool::new();
        let s = Table::from_rows(Schema::new(["a"]), &mut pool, Vec::<Vec<&str>>::new());
        let t = Table::from_rows(Schema::new(["a"]), &mut pool, vec![vec!["x"]]);
        let mut inst = ProblemInstance::new(s, t, pool).unwrap();
        let out = Affidavit::new(AffidavitConfig::paper_id()).explain(&mut inst);
        out.explanation.validate(&mut inst).unwrap();
        assert_eq!(out.explanation.inserted.len(), 1);
    }

    #[test]
    fn expired_deadline_aborts_cooperatively() {
        let mut inst = noisy_instance();
        let past = Instant::now() - Duration::from_millis(1);
        let err = Affidavit::new(AffidavitConfig::paper_id())
            .explain_until(&mut inst, Some(past))
            .unwrap_err();
        assert_eq!(err, DeadlineExceeded);
    }

    #[test]
    fn generous_deadline_matches_the_deadline_free_run() {
        let fingerprint = |deadline: Option<Instant>| {
            let mut inst = noisy_instance();
            let out = Affidavit::new(AffidavitConfig::paper_id())
                .explain_until(&mut inst, deadline)
                .expect("an hour is plenty");
            (
                format!("{:?}", out.explanation.functions),
                out.stats.polled,
                out.stats.expansions,
            )
        };
        assert_eq!(
            fingerprint(None),
            fingerprint(Some(Instant::now() + Duration::from_secs(3600)))
        );
    }

    #[test]
    fn trace_records_polls() {
        let mut inst = noisy_instance();
        let cfg = AffidavitConfig::paper_id().with_trace();
        let out = Affidavit::new(cfg).explain(&mut inst);
        let trace = out.trace.expect("trace enabled");
        assert!(trace.nodes.iter().any(|n| n.polled_order.is_some()));
        let rendered = trace.render();
        assert!(rendered.contains("[1]"));
    }
}
