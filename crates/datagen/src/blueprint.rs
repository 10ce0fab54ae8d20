//! Instance blueprints: the §5.1 protocol, split into a *blueprint* phase
//! (attribute cleaning, core/noise split, transformation sampling) and a
//! *materialize* phase (snapshot construction at a given scale).
//!
//! The split exists for Figure 5: row-scalability instances reuse the same
//! sampled transformations and split while taking x % of the core and noise
//! records ("The sampled transformations stay the same. However, we remove
//! value mapping entries defined over attribute values that do not exist
//! anymore in the scaled version").

use affidavit_core::explanation::Explanation;
use affidavit_core::instance::ProblemInstance;
use affidavit_functions::{AppliedFunction, AttrFunction, ValueMap};
use affidavit_table::{
    stats::{attribute_profiles, attribute_stats},
    AttrId, FxHashSet, Record, RecordId, Sym, Table, ValuePool,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::sampler::sample_transformation_with;

/// Parameters of the §5.1 generator.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// Noise fraction η: the fraction of each snapshot outside the core.
    pub eta: f64,
    /// Transformation probability τ per attribute.
    pub tau: f64,
    /// RNG seed.
    pub seed: u64,
    /// Distinctness removal threshold (paper: 0.7).
    pub distinct_threshold: f64,
    /// Also sample the extension kinds (numeric formatting, token
    /// programs); requires solving with `Registry::extended`.
    pub extension_kinds: bool,
}

impl GenConfig {
    /// A (η, τ) setting with the paper's defaults elsewhere.
    pub fn new(eta: f64, tau: f64, seed: u64) -> GenConfig {
        GenConfig {
            eta,
            tau,
            seed,
            distinct_threshold: 0.7,
            extension_kinds: false,
        }
    }

    /// Enable sampling of the extension kinds.
    pub fn with_extension_kinds(mut self) -> GenConfig {
        self.extension_kinds = true;
        self
    }
}

/// The blueprint: cleaned base table, split, and sampled transformations.
#[derive(Debug, Clone)]
pub struct Blueprint {
    /// Cleaned base table (over-distinct/empty attributes dropped).
    pub base: Table,
    /// Pool for `base` (and later for the snapshots).
    pub pool: ValuePool,
    /// Base-row indices forming the core.
    pub core: Vec<usize>,
    /// Base-row indices used as source-only noise.
    pub src_noise: Vec<usize>,
    /// Base-row indices used as target-only noise.
    pub tgt_noise: Vec<usize>,
    /// Sampled transformation per cleaned attribute (identity = unchanged).
    pub functions: Vec<AttrFunction>,
    /// The generator configuration used.
    pub cfg: GenConfig,
}

/// A materialized problem instance with its reference explanation.
#[derive(Debug)]
pub struct GeneratedInstance {
    /// The instance (snapshots share the blueprint's pool).
    pub instance: ProblemInstance,
    /// The reference explanation `E_ref` (always valid).
    pub reference: Explanation,
    /// The artificial primary-key attribute (always the last column).
    pub pk_attr: AttrId,
    /// Scale factor this instance was materialized at.
    pub scale: f64,
}

/// Why [`Blueprint::try_new`] cannot build a blueprint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BlueprintError {
    /// η outside [0, 1] (NaN included).
    Eta(f64),
    /// τ outside [0, 1). At τ = 1 every attribute is transformed, which
    /// the §5.1 rule forbids, so sampling would retry forever.
    Tau(f64),
    /// The cleaning rules removed every attribute of the base table (each
    /// was empty or more distinct than [`GenConfig::distinct_threshold`]),
    /// typically because it has too few rows to repeat any value.
    NoAttributeLeft {
        /// Records in the base table.
        rows: usize,
    },
}

impl std::fmt::Display for BlueprintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlueprintError::Eta(eta) => write!(f, "η {eta:?} is outside [0, 1]"),
            BlueprintError::Tau(tau) => write!(f, "τ {tau:?} is outside [0, 1)"),
            BlueprintError::NoAttributeLeft { rows } => write!(
                f,
                "all attributes of the {rows}-row base table removed by the cleaning rules \
                 (each is empty or too distinct); generate more rows"
            ),
        }
    }
}

impl std::error::Error for BlueprintError {}

impl Blueprint {
    /// Run the blueprint phase on a base table.
    ///
    /// # Panics
    /// On any [`BlueprintError`]; see [`Blueprint::try_new`].
    pub fn new(base: Table, pool: ValuePool, cfg: GenConfig) -> Blueprint {
        Blueprint::try_new(base, pool, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Blueprint::new`], failing with a [`BlueprintError`] instead of
    /// panicking (or, at τ = 1, never returning).
    pub fn try_new(
        base: Table,
        pool: ValuePool,
        cfg: GenConfig,
    ) -> Result<Blueprint, BlueprintError> {
        if !(0.0..=1.0).contains(&cfg.eta) {
            return Err(BlueprintError::Eta(cfg.eta));
        }
        if !(0.0..1.0).contains(&cfg.tau) {
            return Err(BlueprintError::Tau(cfg.tau));
        }
        let mut pool = pool;
        // 1. Attribute cleaning.
        let stats = attribute_stats(&base, &pool);
        let keep: Vec<AttrId> = stats
            .iter()
            .filter(|s| !s.is_all_empty() && s.distinct_fraction() <= cfg.distinct_threshold)
            .map(|s| s.attr)
            .collect();
        if keep.is_empty() {
            return Err(BlueprintError::NoAttributeLeft { rows: base.len() });
        }
        let base = base.project(&keep);
        // One single-pass profile per kept attribute: the sampler needs
        // both the stats and the first-seen distinct values.
        let profiles = attribute_profiles(&base, &pool);

        let mut rng = StdRng::seed_from_u64(cfg.seed);

        // 2. Core / noise split: |S| = |T| = D / (1 + η).
        let d_rows = base.len();
        let snapshot = ((d_rows as f64) / (1.0 + cfg.eta)).floor() as usize;
        let noise = ((snapshot as f64) * cfg.eta).round() as usize;
        let core_n = snapshot.saturating_sub(noise).max(1);
        // Both noise sets must fit beside the core, which they do not at
        // η near 1 or on a tiny table: |S| = |T| always.
        let noise = noise.min(d_rows.saturating_sub(core_n) / 2);
        let mut order: Vec<usize> = (0..d_rows).collect();
        order.shuffle(&mut rng);
        let core: Vec<usize> = order[..core_n.min(d_rows)].to_vec();
        let src_noise: Vec<usize> = order[core_n..(core_n + noise).min(d_rows)].to_vec();
        let tgt_noise: Vec<usize> =
            order[(core_n + noise).min(d_rows)..(core_n + 2 * noise).min(d_rows)].to_vec();

        // 3. Transformation sampling with the at-least-one-id rejection rule.
        let arity = base.schema().arity();
        let functions = loop {
            let mut fns: Vec<AttrFunction> = Vec::with_capacity(arity);
            #[allow(clippy::needless_range_loop)] // `a` also builds the AttrId
            for a in 0..arity {
                if rng.gen_bool(cfg.tau) {
                    fns.push(sample_transformation_with(
                        &profiles[a].distinct,
                        &profiles[a].stats,
                        &mut pool,
                        &mut rng,
                        cfg.extension_kinds,
                    ));
                } else {
                    fns.push(AttrFunction::Identity);
                }
            }
            if arity == 1 || fns.iter().any(AttrFunction::is_identity) {
                break fns;
            }
            // Reject: every attribute was transformed (§5.1).
        };

        Ok(Blueprint {
            base,
            pool,
            core,
            src_noise,
            tgt_noise,
            functions,
            cfg,
        })
    }

    /// Materialize the full-size instance.
    pub fn materialize_full(&self) -> GeneratedInstance {
        self.materialize(1.0)
    }

    /// Materialize at `scale ∈ (0, 1]` of the core and noise sets.
    pub fn materialize(&self, scale: f64) -> GeneratedInstance {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let mut pool = self.pool.clone();
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0x5ca1e);

        let take = |v: &[usize]| -> Vec<usize> {
            let n = ((v.len() as f64) * scale).round().max(1.0) as usize;
            v[..n.min(v.len())].to_vec()
        };
        let core = take(&self.core);
        let src_noise = take(&self.src_noise);
        let tgt_noise = take(&self.tgt_noise);

        // Scale-trim value maps: drop entries over values that no longer
        // occur in the scaled rows (§5.4.1).
        let used_rows: Vec<usize> = core
            .iter()
            .chain(&src_noise)
            .chain(&tgt_noise)
            .copied()
            .collect();
        let arity = self.base.schema().arity();
        let mut functions: Vec<AttrFunction> = Vec::with_capacity(arity + 1);
        for (a, f) in self.functions.iter().enumerate() {
            functions.push(match f {
                AttrFunction::Map(m) if scale < 1.0 => {
                    let mut live: FxHashSet<Sym> = FxHashSet::default();
                    for &row in &used_rows {
                        live.insert(self.base.record(RecordId(row as u32)).get(a));
                    }
                    AttrFunction::Map(ValueMap::from_pairs(
                        m.entries()
                            .iter()
                            .filter(|(k, _)| live.contains(k))
                            .copied(),
                    ))
                }
                other => other.clone(),
            });
        }

        // Transform core and target noise through the sampled functions.
        let mut applied: Vec<AppliedFunction> = functions
            .iter()
            .cloned()
            .map(AppliedFunction::new)
            .collect();
        let transform =
            |row: usize, applied: &mut [AppliedFunction], pool: &mut ValuePool| -> Vec<Sym> {
                let rec = self.base.record(RecordId(row as u32));
                rec.values()
                    .iter()
                    .enumerate()
                    .map(|(a, &v)| {
                        applied[a]
                            .apply(v, pool)
                            .expect("sampled functions are total on the base domain")
                    })
                    .collect()
            };

        // Snapshot composition; both sides then get shuffled row orders.
        #[derive(Clone, Copy)]
        enum SrcEntry {
            Core(usize), // index into `core`
            Noise(usize),
        }
        #[derive(Clone, Copy)]
        enum TgtEntry {
            Core(usize),
            Noise(usize),
        }
        let mut src_entries: Vec<SrcEntry> = (0..core.len())
            .map(SrcEntry::Core)
            .chain((0..src_noise.len()).map(SrcEntry::Noise))
            .collect();
        let mut tgt_entries: Vec<TgtEntry> = (0..core.len())
            .map(TgtEntry::Core)
            .chain((0..tgt_noise.len()).map(TgtEntry::Noise))
            .collect();
        src_entries.shuffle(&mut rng);
        tgt_entries.shuffle(&mut rng);

        let n = src_entries.len();
        debug_assert_eq!(n, tgt_entries.len());

        // 5. Artificial primary key: the same running integers 0..n in two
        // different permutations.
        let mut pk_src: Vec<usize> = (0..n).collect();
        let mut pk_tgt: Vec<usize> = (0..n).collect();
        pk_src.shuffle(&mut rng);
        pk_tgt.shuffle(&mut rng);

        let mut schema = self.base.schema().clone();
        let pk_attr = schema.push("pk");

        let mut source = Table::with_capacity(schema.clone(), n);
        let mut core_src_pos = vec![u32::MAX; core.len()];
        for (pos, entry) in src_entries.iter().enumerate() {
            let (row, is_core_idx) = match entry {
                SrcEntry::Core(i) => (core[*i], Some(*i)),
                SrcEntry::Noise(i) => (src_noise[*i], None),
            };
            let mut values: Vec<Sym> = self.base.record(RecordId(row as u32)).values().to_vec();
            values.push(pool.intern(&pk_src[pos].to_string()));
            source.push(Record::new(values));
            if let Some(i) = is_core_idx {
                core_src_pos[i] = pos as u32;
            }
        }

        let mut target = Table::with_capacity(schema, n);
        let mut core_tgt_pos = vec![u32::MAX; core.len()];
        let mut inserted: Vec<RecordId> = Vec::new();
        for (pos, entry) in tgt_entries.iter().enumerate() {
            let (values, is_core_idx) = match entry {
                TgtEntry::Core(i) => (transform(core[*i], &mut applied, &mut pool), Some(*i)),
                TgtEntry::Noise(i) => (transform(tgt_noise[*i], &mut applied, &mut pool), None),
            };
            let mut values = values;
            values.push(pool.intern(&pk_tgt[pos].to_string()));
            target.push(Record::new(values));
            match is_core_idx {
                Some(i) => core_tgt_pos[i] = pos as u32,
                None => inserted.push(RecordId(pos as u32)),
            }
        }
        inserted.sort();

        // 6. Reference explanation: sampled functions + pk value map over
        // the core alignment.
        let core_pairs: Vec<(RecordId, RecordId)> = (0..core.len())
            .map(|i| (RecordId(core_src_pos[i]), RecordId(core_tgt_pos[i])))
            .collect();
        let pk_map: Vec<(Sym, Sym)> = core_pairs
            .iter()
            .map(|&(s, t)| (source.value(s, pk_attr), target.value(t, pk_attr)))
            .collect();
        functions.push(AttrFunction::Map(ValueMap::from_pairs(pk_map)));

        let deleted: Vec<RecordId> = src_entries
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e, SrcEntry::Noise(_)))
            .map(|(pos, _)| RecordId(pos as u32))
            .collect();

        let reference = Explanation::new(functions, deleted, inserted, core_pairs);
        let instance =
            ProblemInstance::new(source, target, pool).expect("schemas match by construction");
        GeneratedInstance {
            instance,
            reference,
            pk_attr,
            scale,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use affidavit_datasets::{by_name, generate};

    fn blueprint(eta: f64, tau: f64, seed: u64) -> Blueprint {
        let spec = by_name("iris").unwrap();
        let (base, pool) = generate(&spec, seed);
        Blueprint::new(base, pool, GenConfig::new(eta, tau, seed))
    }

    #[test]
    fn split_sizes_match_protocol() {
        let bp = blueprint(0.3, 0.3, 1);
        // |S| = D / (1 + η) = 150 / 1.3 ≈ 115; noise = 0.3 · 115 ≈ 35.
        let snapshot = bp.core.len() + bp.src_noise.len();
        assert_eq!(snapshot, 115);
        assert_eq!(bp.src_noise.len(), bp.tgt_noise.len());
        assert!((bp.src_noise.len() as i64 - 35).abs() <= 1);
    }

    #[test]
    fn out_of_domain_inputs_are_typed_errors() {
        let spec = by_name("iris").unwrap();
        let try_new = |rows, eta, tau| {
            let (base, pool) = affidavit_datasets::synth::generate_rows(&spec, rows, 1);
            Blueprint::try_new(base, pool, GenConfig::new(eta, tau, 1)).map(|_| ())
        };
        let no_attribute = BlueprintError::NoAttributeLeft { rows: 1 };
        assert_eq!(try_new(1, 0.3, 0.3), Err(no_attribute));
        assert_eq!(try_new(20, -1.0, 0.3), Err(BlueprintError::Eta(-1.0)));
        assert!(matches!(
            try_new(20, f64::NAN, 0.3),
            Err(BlueprintError::Eta(_))
        ));
        assert_eq!(try_new(20, 0.3, 1.0), Err(BlueprintError::Tau(1.0)));
        assert_eq!(try_new(20, 1.0, 0.0), Ok(()));
    }

    #[test]
    fn at_least_one_attribute_unchanged() {
        for seed in 0..10 {
            let bp = blueprint(0.5, 0.9, seed); // high τ forces rejections
            assert!(
                bp.functions.iter().any(AttrFunction::is_identity),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn reference_explanation_is_valid() {
        for (eta, tau) in [(0.3, 0.3), (0.5, 0.5), (0.7, 0.7)] {
            let bp = blueprint(eta, tau, 42);
            let mut gen = bp.materialize_full();
            gen.reference
                .validate(&mut gen.instance)
                .unwrap_or_else(|e| panic!("(η={eta}, τ={tau}): {e}"));
        }
    }

    #[test]
    fn snapshots_have_equal_size_and_pk() {
        let bp = blueprint(0.3, 0.3, 7);
        let gen = bp.materialize_full();
        assert_eq!(gen.instance.source.len(), gen.instance.target.len());
        assert_eq!(gen.instance.delta(), 0);
        // pk column is last and contains running integers 0..n.
        let n = gen.instance.source.len();
        let mut pks: Vec<usize> = gen
            .instance
            .source
            .rows()
            .map(|r| {
                gen.instance
                    .pool
                    .get(r.get(gen.pk_attr.index()))
                    .parse::<usize>()
                    .unwrap()
            })
            .collect();
        pks.sort();
        assert_eq!(pks, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn scaling_preserves_validity_and_trims_maps() {
        let spec = by_name("iris").unwrap();
        let (base, pool) = generate(&spec, 9);
        // Force at least one map by using high τ and a seed scan.
        let bp = (0..50)
            .map(|seed| Blueprint::new(base.clone(), pool.clone(), GenConfig::new(0.3, 0.7, seed)))
            .find(|bp| {
                bp.functions
                    .iter()
                    .any(|f| matches!(f, AttrFunction::Map(_)))
            })
            .expect("some seed samples a value map");
        let full = bp.materialize_full();
        let mut half = bp.materialize(0.5);
        half.reference.validate(&mut half.instance).unwrap();
        assert!(half.instance.source.len() < full.instance.source.len());
        // The map must not be larger at the smaller scale.
        let map_len = |e: &Explanation| -> usize {
            e.functions
                .iter()
                .filter_map(|f| match f {
                    AttrFunction::Map(m) => Some(m.len()),
                    _ => None,
                })
                .sum()
        };
        assert!(map_len(&half.reference) <= map_len(&full.reference));
    }

    #[test]
    fn deterministic() {
        let a = blueprint(0.3, 0.3, 5).materialize_full();
        let b = blueprint(0.3, 0.3, 5).materialize_full();
        assert_eq!(a.instance.source.len(), b.instance.source.len());
        assert_eq!(a.reference.core_pairs(), b.reference.core_pairs());
        assert_eq!(a.reference.functions, b.reference.functions);
    }
}
