//! The one campaign runner. The paper trains one victim per case study
//! and then varies only what is observed (category, event, platform,
//! countermeasure); every driver here — [`Experiment`], the sweep, the
//! frontier, extraction and `repro`'s arm tables — does the same through
//! a [`Campaign`]:
//!
//! 1. A victim memo keyed by [`artifact::model_key`] restores each
//!    victim from the [`ArtifactCache`] or trains it (under
//!    `pipeline.train`) and stores it — one training per model.
//! 2. [`Campaign::fan_out`] fetches every arm's victim in arm order, then
//!    runs the arms as ordered [`Pool`] jobs under an indexed span, each
//!    forced to one inner thread, so output is byte-identical at every
//!    worker count.
//!
//! [`Experiment`]: crate::pipeline::Experiment

use crate::artifact;
use crate::collect::{category_seed, collect_selected, CategoryObservations};
use crate::countermeasure::arm_model;
use crate::evaluator::Evaluator;
use crate::pipeline::{CacheUsage, ExperimentConfig, ExperimentError, ExperimentOutcome};
use scnn_cache::{ArtifactCache, CacheKey};
use scnn_data::{Dataset, DatasetError};
use scnn_hpc::SimulatedPmu;
use scnn_nn::train::{accuracy, train, TrainReport};
use scnn_nn::Network;
use scnn_par::{Pool, Threads};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A trained victim, shared by every arm with its model key.
#[derive(Debug)]
pub(crate) struct Victim {
    /// The trained network.
    pub network: Network,
    /// Its training report.
    pub train_report: TrainReport,
    /// Its held-out classification accuracy.
    pub test_accuracy: f64,
    config: ExperimentConfig,
    /// Built on first use: a restored victim whose arms are all warm
    /// never synthesizes data.
    test_set: Mutex<Option<Arc<Dataset>>>,
}

impl Victim {
    /// The held-out test set every arm measures (all 10 classes).
    ///
    /// # Errors
    ///
    /// Propagates [`DatasetError`] from synthesis.
    pub(crate) fn test_set(&self) -> Result<Arc<Dataset>, DatasetError> {
        let mut slot = self.test_set.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(set) = &*slot {
            return Ok(set.clone());
        }
        let _span = scnn_obs::Span::enter("pipeline.dataset");
        let set = Arc::new(synth_test_set(&self.config)?);
        *slot = Some(set.clone());
        Ok(set)
    }
}

fn synth_test_set(cfg: &ExperimentConfig) -> Result<Dataset, DatasetError> {
    cfg.generate_dataset(cfg.test_per_class, cfg.seed ^ 0xFACE)
}

/// One arm of a [`Campaign::fan_out`], as handed to the arm closure.
#[derive(Debug)]
pub struct Arm<A> {
    /// Position in the arm list (also the per-arm span index).
    pub index: usize,
    /// The arm's config, forced to one inner thread.
    pub config: ExperimentConfig,
    /// The caller's per-arm payload (a name, a countermeasure, …).
    pub item: A,
    /// What fetching this arm's victim cost: a model miss (and its
    /// write) when this arm's fetch trained it, else a hit; all zeros
    /// without a cache.
    pub fetch: CacheUsage,
}

/// A victim memo plus the optional persistent cache behind it.
#[derive(Debug)]
pub struct Campaign {
    cache: Option<ArtifactCache>,
    victims: Mutex<HashMap<CacheKey, Arc<Victim>>>,
}

impl Campaign {
    /// An empty campaign, persisting through `cache` when given.
    pub fn new(cache: Option<&ArtifactCache>) -> Campaign {
        Campaign {
            cache: cache.cloned(),
            victims: Mutex::default(),
        }
    }

    /// The persistent cache, if attached.
    pub fn cache(&self) -> Option<&ArtifactCache> {
        self.cache.as_ref()
    }

    /// The victim of `cfg`: from the memo, else restored from the cache,
    /// else trained (and stored). Also returns what this fetch cost: a
    /// hit unless it trained (all zeros without a cache).
    ///
    /// # Errors
    ///
    /// Propagates dataset-synthesis and training failures.
    pub(crate) fn victim(
        &self,
        cfg: &ExperimentConfig,
    ) -> Result<(Arc<Victim>, CacheUsage), ExperimentError> {
        let key = artifact::model_key(cfg);
        // Held across training: concurrent askers of one key wait for
        // the single training instead of racing to repeat it.
        let mut memo = self.victims.lock().unwrap_or_else(PoisonError::into_inner);
        let mut usage = CacheUsage {
            model_hit: self.cache.is_some(),
            ..CacheUsage::default()
        };
        if let Some(victim) = memo.get(&key) {
            return Ok((victim.clone(), usage));
        }
        let restored = self.cache.as_ref().and_then(|c| {
            c.load(artifact::MODEL_KIND, key)
                .and_then(|p| artifact::decode_model(&p))
        });
        let (network, train_report, test_accuracy, test_set) = match restored {
            Some((network, report, accuracy)) => (network, report, accuracy, None),
            None => {
                usage.model_hit = false;
                let dataset_span = scnn_obs::Span::enter("pipeline.dataset");
                let train_set = cfg.generate_dataset(cfg.train_per_class, cfg.seed)?;
                let test_set = synth_test_set(cfg)?;
                drop(dataset_span);
                let train_span = scnn_obs::Span::enter("pipeline.train");
                let mut network = cfg.build_model();
                let train_report = train(&mut network, &train_set.to_samples(), &cfg.train)?;
                let test_accuracy = accuracy(&mut network, &test_set.to_samples())?;
                drop(train_span);
                if let Some(c) = &self.cache {
                    let payload = artifact::encode_model(&network, &train_report, test_accuracy);
                    if c.store(artifact::MODEL_KIND, key, &payload).is_ok() {
                        usage.writes += 1;
                    }
                }
                (
                    network,
                    train_report,
                    test_accuracy,
                    Some(Arc::new(test_set)),
                )
            }
        };
        let victim = Arc::new(Victim {
            network,
            train_report,
            test_accuracy,
            config: cfg.clone(),
            test_set: Mutex::new(test_set),
        });
        memo.insert(key, victim.clone());
        Ok((victim, usage))
    }

    /// The paper's protocol for `cfg` on its memoised victim: restore
    /// each monitored category from the cache or measure it through the
    /// simulated PMU (countermeasure applied, checkpointing as each
    /// category completes), then evaluate. The outcome's [`CacheUsage`]
    /// covers this run's victim fetch and categories.
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError`] from whichever stage fails. Cache I/O
    /// failures are not errors: an unreadable artifact is a miss and an
    /// unwritable store is skipped.
    pub fn experiment(&self, cfg: &ExperimentConfig) -> Result<ExperimentOutcome, ExperimentError> {
        // Telemetry spans mark the protocol's phases. They only read the
        // wall clock — nothing they record feeds back into seeds or
        // results, so the run is identical with a recorder installed or
        // not (see DESIGN.md § Observability).
        let _run_span = scnn_obs::Span::enter("pipeline.run");
        let (victim, mut usage) = self.victim(cfg)?;

        // Category artifacts are keyed by config alone (the model they
        // depend on is itself a pure function of config).
        let mut slots: Vec<Option<CategoryObservations>> = match &self.cache {
            Some(c) => (0..cfg.categories.len())
                .map(|i| {
                    c.load(artifact::CATEGORY_KIND, artifact::category_key(cfg, i))
                        .and_then(|p| artifact::decode_category(&p))
                })
                .collect(),
            None => vec![None; cfg.categories.len()],
        };
        // `select_classes` re-maps `cfg.categories[i]` to label `i`, so a
        // slot's position is also its campaign's category index.
        let missing: Vec<usize> = slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.is_none().then_some(i))
            .collect();
        if self.cache.is_some() {
            usage.categories_hit = slots.len() - missing.len();
            usage.categories_collected = missing.len();
        }

        if !missing.is_empty() {
            let monitored = victim.test_set()?.select_classes(&cfg.categories);
            let collect_span = scnn_obs::Span::enter("pipeline.collect");
            // One campaign per category, each on its own cloned model and
            // its own PMU seeded from the category index — a pure
            // function of (seed, category), so readings are bit-identical
            // at every thread count (see `collect_campaign`), and a
            // subset campaign reproduces the full campaign's slice.
            let pmu_base = cfg.seed ^ 0x9019;
            let cm_base = cfg.seed ^ 0xD011;
            let net = &victim.network;
            let make_pmu = |c: usize| SimulatedPmu::new(cfg.pmu, category_seed(pmu_base, c));
            // Checkpoint each category from the worker thread that
            // finished it, so an interrupted campaign resumes here.
            let stored = AtomicUsize::new(0);
            let on_collected = |obs: &CategoryObservations| {
                if let Some(c) = &self.cache {
                    let key = artifact::category_key(cfg, obs.category);
                    let payload = artifact::encode_category(obs);
                    if c.store(artifact::CATEGORY_KIND, key, &payload).is_ok() {
                        stored.fetch_add(1, Ordering::Relaxed);
                    }
                }
            };
            let fresh = collect_selected(
                |c| arm_model(net, cfg.countermeasure, category_seed(cm_base, c)),
                &monitored,
                make_pmu,
                &cfg.collection,
                &missing,
                on_collected,
            )?;
            for obs in fresh {
                let slot = obs.category;
                slots[slot] = Some(obs);
            }
            usage.writes += stored.load(Ordering::Relaxed);
            drop(collect_span);
        }
        let observations: Vec<CategoryObservations> = slots.into_iter().flatten().collect();

        let evaluate_span = scnn_obs::Span::enter("pipeline.evaluate");
        let report = Evaluator::new(cfg.evaluator).evaluate(&observations)?;
        drop(evaluate_span);
        Ok(ExperimentOutcome {
            report,
            observations,
            train_report: victim.train_report.clone(),
            test_accuracy: victim.test_accuracy,
            network: victim.network.clone(),
            cache: usage,
        })
    }

    /// Runs `run` once per `(config, item)` arm on a [`Pool`] of
    /// `threads` workers, after fetching every arm's victim in arm order
    /// (so fetch costs land on the same arm at every worker count).
    ///
    /// # Errors
    ///
    /// Returns the first failing arm in arm order, as `(index, error)`.
    pub fn fan_out<A, R, E, F>(
        &self,
        span: &'static str,
        threads: Threads,
        arms: Vec<(ExperimentConfig, A)>,
        run: F,
    ) -> Result<Vec<R>, (usize, E)>
    where
        A: Send,
        R: Send,
        E: Send + From<ExperimentError>,
        F: Fn(Arm<A>) -> Result<R, E> + Sync,
    {
        let mut jobs = Vec::with_capacity(arms.len());
        for (index, (config, item)) in arms.into_iter().enumerate() {
            let (_, fetch) = self.victim(&config).map_err(|e| (index, e.into()))?;
            jobs.push(Arm {
                index,
                config: config.threads(Threads::Count(1)),
                item,
                fetch,
            });
        }
        Pool::new(threads)
            .par_map(jobs, |arm| {
                let _span = scnn_obs::Span::enter_indexed(span, arm.index as u64);
                run(arm)
            })
            .into_iter()
            .enumerate()
            .map(|(index, result)| result.map_err(|e| (index, e)))
            .collect()
    }
}
