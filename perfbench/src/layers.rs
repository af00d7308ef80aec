//! Per-layer metrics shared by every workload: the simulator, network
//! and PMU layers from the profile, and the cache, codec, evaluator and
//! service layers driven on the workload's own artifacts.

use crate::profile::{self, PresetTimes, Spec};
use crate::report::Outcome;
use crate::service_loop::{closed_loop, Job, Session};
use crate::stats::mean;
use crate::trace;
use crate::victim::Victim;
use scnn_cache::ArtifactCache;
use scnn_core::service::{CacheTraffic, JobOutput, JobSpec};
use scnn_core::{artifact, json, CategoryObservations, Evaluator, Experiment, ExperimentConfig};
use scnn_par::Threads;
use scnn_uarch::{CounterSnapshot, CountingProbe};
use std::collections::HashMap;
use std::error::Error;
use std::path::Path;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// Records the simulator, network and PMU metrics of a profile. With
/// `require_accounting`, checks that the layers account for
/// `Pmu::measure`: numeric + narration + simulation + PMU wrapper must
/// come within a tenth of the mean `measure` time of the same images.
pub fn set_core_layers(
    out: &mut Outcome,
    times: &[PresetTimes],
    exact: &[Vec<CounterSnapshot>],
    counts: &[CountingProbe],
    require_accounting: bool,
) {
    let avg = |f: &dyn Fn(&PresetTimes) -> f64| mean(&times.iter().map(f).collect::<Vec<_>>());
    let sim_s = avg(&|t| t.core_s - t.null_s);
    out.set("uarch.sim_us", sim_s * 1e6);
    out.set("uarch.ns_per_event", sim_s * 1e9 / avg(&|t| t.events));
    out.set("uarch.cold_start_us", avg(&|t| t.cold_s) * 1e6);
    out.set("uarch.hierarchy_ns_per_access", avg(&|t| t.hierarchy_ns));
    out.set("uarch.tlb_ns_per_access", avg(&|t| t.tlb_ns));
    out.set("uarch.predictor_ns_per_branch", avg(&|t| t.predictor_ns));
    out.set("nn.infer_us", avg(&|t| t.infer_s) * 1e6);
    out.set("nn.narrate_us", avg(&|t| t.null_s - t.infer_s) * 1e6);
    out.set("hpc.wrap_us", avg(&|t| t.measure_s - t.classify_s) * 1e6);

    let snaps: Vec<&CounterSnapshot> = exact.iter().flatten().collect();
    let per_inference = |f: &dyn Fn(&CounterSnapshot) -> u64| {
        mean(&snaps.iter().map(|s| f(s) as f64).collect::<Vec<_>>())
    };
    out.set("uarch.l1d.misses", per_inference(&|s| s.l1d_misses));
    out.set("uarch.l2.accesses", per_inference(&|s| s.l2_accesses));
    out.set("uarch.l2.misses", per_inference(&|s| s.l2_misses));
    out.set("uarch.llc.references", per_inference(&|s| s.llc_references));
    out.set("uarch.llc.misses", per_inference(&|s| s.llc_misses));
    out.set("uarch.dtlb.misses", per_inference(&|s| s.dtlb_misses));
    out.set("uarch.branch_misses", per_inference(&|s| s.branch_misses));
    out.set("uarch.prefetches", per_inference(&|s| s.prefetches));
    out.set("uarch.sim_cycles", per_inference(&|s| s.cycles));

    let event = |f: &dyn Fn(&CountingProbe) -> u64| {
        mean(&counts.iter().map(|c| f(c) as f64).collect::<Vec<_>>())
    };
    out.set("nn.events.loads", event(&|c| c.loads));
    out.set("nn.events.stores", event(&|c| c.stores));
    out.set("nn.events.branches", event(&|c| c.branches));
    out.set("nn.events.alu_ops", event(&|c| c.alu_ops));

    for t in times {
        let parts = t.infer_s
            + (t.null_s - t.infer_s)
            + (t.core_s - t.null_s)
            + (t.measure_s - t.classify_s);
        let gap = (parts - t.measure_s).abs() / t.measure_s;
        println!(
            "profile {}: infer {:.1} us, narrate {:.1} us, sim {:.1} us, wrap {:.1} us, cold_start {:.1} us = {:.1} us vs measure {:.1} us ({:.1}% apart); {:.1} ns/event; replay {:.1}/{:.1}/{:.1} ns per access/translation/branch",
            t.name,
            t.infer_s * 1e6,
            (t.null_s - t.infer_s) * 1e6,
            (t.core_s - t.null_s) * 1e6,
            (t.measure_s - t.classify_s) * 1e6,
            t.cold_s * 1e6,
            parts * 1e6,
            t.measure_s * 1e6,
            gap * 100.0,
            (t.core_s - t.null_s) * 1e9 / t.events,
            t.hierarchy_ns,
            t.tlb_ns,
            t.predictor_ns,
        );
        if require_accounting {
            out.check(
                format!("layers account for Pmu::measure on {}", t.name),
                if gap <= 0.1 {
                    Ok(())
                } else {
                    Err(format!("layers sum {:.1}% away from measure", gap * 100.0))
                },
            );
        }
    }
}

/// Runs the timed profile and records its metrics (see
/// [`set_core_layers`]).
///
/// # Errors
///
/// Returns simulator, PMU or network errors.
pub fn profile_core(
    out: &mut Outcome,
    spec: &Spec<'_>,
    exact: &[Vec<CounterSnapshot>],
    require_accounting: bool,
) -> Result<Vec<PresetTimes>, Box<dyn Error>> {
    let _span = trace::span("bench.profile");
    let times = profile::time_layers(spec)?;
    let counts = profile::event_counts(spec)?;
    set_core_layers(out, &times, exact, &counts, require_accounting);
    Ok(times)
}

/// Host times of the cache layer on one artifact set.
#[derive(Debug)]
pub struct CacheLayer {
    /// The cache holding the artifacts.
    pub cache: ArtifactCache,
    /// Mean µs per `ArtifactCache::store`.
    pub store_us: f64,
    /// Mean µs per `ArtifactCache::load`.
    pub load_us: f64,
    /// Mean µs per `artifact::decode_*`.
    pub decode_us: f64,
}

/// Stores the model and category artifacts of `cfg` in a fresh cache
/// under `dir`, loads and decodes each back `reps` times, and records
/// the cache and codec metrics.
///
/// # Errors
///
/// Returns I/O errors, or a message when an artifact does not survive
/// the round trip.
pub fn cache_roundtrip(
    out: &mut Outcome,
    dir: &Path,
    cfg: &ExperimentConfig,
    victim: &Victim,
    observations: &[CategoryObservations],
    reps: usize,
) -> Result<CacheLayer, Box<dyn Error>> {
    let _span = trace::span("bench.cache_roundtrip");
    let cache = ArtifactCache::open(dir)?;
    let model = artifact::encode_model(&victim.net, &victim.train_report, victim.test_accuracy);
    let mut payloads = vec![(artifact::MODEL_KIND, artifact::model_key(cfg), model)];
    for obs in observations {
        payloads.push((
            artifact::CATEGORY_KIND,
            artifact::category_key(cfg, obs.category),
            artifact::encode_category(obs),
        ));
    }
    let (mut store, mut load, mut decode) = (vec![], vec![], vec![]);
    let mut intact = true;
    for _ in 0..reps.max(1) {
        for (kind, key, payload) in &payloads {
            let start = Instant::now();
            {
                let _s = trace::span("cache.store");
                cache.store(kind, *key, payload)?;
            }
            store.push(start.elapsed().as_secs_f64());
            let start = Instant::now();
            let loaded = {
                let _s = trace::span("cache.load");
                cache.load(kind, *key)
            };
            load.push(start.elapsed().as_secs_f64());
            let loaded = loaded.ok_or("a stored artifact did not load")?;
            intact &= &loaded == payload;
            let start = Instant::now();
            {
                let _s = trace::span("artifact.decode");
                if *kind == artifact::MODEL_KIND {
                    intact &= artifact::decode_model(&loaded).is_some();
                } else {
                    let decoded = artifact::decode_category(&loaded);
                    intact &= decoded.as_ref()
                        == observations
                            .iter()
                            .find(|o| artifact::category_key(cfg, o.category) == *key);
                }
            }
            decode.push(start.elapsed().as_secs_f64());
        }
    }
    out.check(
        "artifacts survive store, load and decode",
        if intact {
            Ok(())
        } else {
            Err("an artifact changed in the round trip".into())
        },
    );
    let layer = CacheLayer {
        cache,
        store_us: mean(&store) * 1e6,
        load_us: mean(&load) * 1e6,
        decode_us: mean(&decode) * 1e6,
    };
    out.set("cache.store_us", layer.store_us);
    out.set("cache.load_us", layer.load_us);
    out.set("artifact.decode_us", layer.decode_us);
    Ok(layer)
}

/// Times `Evaluator::evaluate` on `observations` and records it.
///
/// # Errors
///
/// Returns evaluator errors.
pub fn evaluate_layer(
    out: &mut Outcome,
    cfg: &ExperimentConfig,
    observations: &[CategoryObservations],
    reps: usize,
) -> Result<(), Box<dyn Error>> {
    let evaluator = Evaluator::new(cfg.evaluator);
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let _s = trace::span("evaluator.evaluate");
        let start = Instant::now();
        std::hint::black_box(evaluator.evaluate(observations)?);
        times.push(start.elapsed().as_secs_f64());
    }
    out.set("evaluator.evaluate_us", mean(&times) * 1e6);
    Ok(())
}

/// Executor-side time of each job, by id.
#[derive(Debug, Default)]
pub struct ExecLog(Mutex<HashMap<String, (f64, ThreadId)>>);

impl ExecLog {
    fn record(&self, id: &str, seconds: f64) {
        if let Ok(mut log) = self.0.lock() {
            log.insert(id.to_owned(), (seconds, std::thread::current().id()));
        }
    }

    fn get(&self, id: &str) -> Option<(f64, ThreadId)> {
        self.0.lock().ok()?.get(id).copied()
    }
}

/// The job executor: `Experiment::run_cached` plus `render_table` on
/// `base` with the job's `samples`, against `cache`.
pub fn run_cached_executor<'a>(
    base: &'a ExperimentConfig,
    cache: &'a ArtifactCache,
    log: &'a ExecLog,
    parent: Option<u64>,
) -> impl Fn(&JobSpec) -> Result<JobOutput, String> + Sync + 'a {
    move |spec| {
        let _span = trace::span_under("core.run_cached", parent);
        let start = Instant::now();
        let mut cfg = base.clone();
        if let Some(samples) = spec.usize_param("samples")? {
            cfg.collection.samples_per_category = samples;
        }
        let outcome = Experiment::new(cfg)
            .run_cached(cache)
            .map_err(|e| e.to_string())?;
        let mut traffic = CacheTraffic::default();
        traffic.add_usage(&outcome.cache);
        let stdout = outcome.report.render_table();
        log.record(&spec.id, start.elapsed().as_secs_f64());
        Ok(JobOutput {
            stdout,
            cache: Some(traffic),
        })
    }
}

/// A job line for `run_cached_executor`.
pub fn job(id: String, samples: usize) -> Job {
    let line = format!("{{\"id\":\"{id}\",\"command\":\"evaluate\",\"samples\":{samples}}}");
    Job { id, line }
}

/// What the checks of one or more sessions found. Apart from the
/// latencies, which the caller drains per session, it stays the same
/// size however many sessions it absorbs.
#[derive(Debug, Default)]
pub struct SessionTally {
    /// Jobs answered once, correctly.
    pub ok: u64,
    /// Jobs missing, refused, failed, wrong or answered twice.
    pub failed: u64,
    /// The first few problems, for the report.
    pub problems: Vec<String>,
    /// Client latency per correct job, seconds.
    pub latency_s: Vec<f64>,
    /// Summed service latency minus executor time, ms.
    pub queue_wait_ms: f64,
    /// Summed executor time, ms.
    pub exec_ms: f64,
    /// Jobs with both times.
    pub timed_jobs: u64,
    /// Summed executor seconds.
    pub busy_s: f64,
    /// Summed per-session ratio of the busiest worker to the mean one.
    pub imbalance_sum: f64,
    /// Sessions checked.
    pub sessions: u64,
    /// Artifact-cache traffic summed over the answers.
    pub traffic: CacheTraffic,
}

impl SessionTally {
    fn problem(&mut self, p: String) {
        self.failed += 1;
        if self.problems.len() < 5 {
            self.problems.push(p);
        }
    }

    /// Adds another tally's counts and samples to this one.
    pub fn absorb(&mut self, other: &SessionTally) {
        self.ok += other.ok;
        self.failed += other.failed;
        for p in &other.problems {
            if self.problems.len() < 5 {
                self.problems.push(p.clone());
            }
        }
        self.latency_s.extend(&other.latency_s);
        self.queue_wait_ms += other.queue_wait_ms;
        self.exec_ms += other.exec_ms;
        self.timed_jobs += other.timed_jobs;
        self.busy_s += other.busy_s;
        self.imbalance_sum += other.imbalance_sum;
        self.sessions += other.sessions;
        self.traffic.merge(&other.traffic);
    }

    /// Checks every response of `session`: each job is answered exactly
    /// once, `ok`, with the stdout `expected` gives for its id and — for
    /// `warm` jobs — with every artifact served from the cache.
    pub fn check(
        &mut self,
        session: &Session,
        jobs: &[Job],
        expected: &dyn Fn(&str) -> Option<String>,
        log: &ExecLog,
        warm: bool,
    ) {
        let mut seen: HashMap<&str, usize> = jobs.iter().map(|j| (j.id.as_str(), 0)).collect();
        let mut worker_busy: HashMap<ThreadId, f64> = HashMap::new();
        for r in &session.responses {
            let Some(id) = r.id.as_deref() else {
                self.problem("response without an id".into());
                continue;
            };
            let Some(count) = seen.get_mut(id) else {
                self.problem(format!("response to unknown job {id}"));
                continue;
            };
            *count += 1;
            if *count > 1 {
                self.problem(format!("job {id} answered twice"));
                continue;
            }
            let field = |k: &str| r.body.get(k);
            if field("status").and_then(json::Value::as_str) != Some("ok") {
                let why = field("error").and_then(json::Value::as_str).unwrap_or("?");
                self.problem(format!("job {id} failed: {why}"));
                continue;
            }
            if field("stdout")
                .and_then(json::Value::as_str)
                .map(str::to_owned)
                != expected(id)
            {
                self.problem(format!("job {id} stdout differs from its cold run"));
                continue;
            }
            let traffic = cache_traffic(field("cache"));
            if warm
                && (traffic.model_hits != 1
                    || traffic.model_misses != 0
                    || traffic.categories_collected != 0
                    || traffic.writes != 0)
            {
                self.problem(format!("warm job {id} missed the cache: {traffic:?}"));
                continue;
            }
            self.traffic.merge(&traffic);
            self.ok += 1;
            if let Some(latency) = r.latency_s {
                self.latency_s.push(latency);
            }
            if let (Some((exec_s, thread)), Some(service_ms)) = (
                log.get(id),
                field("latency_ms").and_then(json::Value::as_f64),
            ) {
                self.exec_ms += exec_s * 1e3;
                self.queue_wait_ms += service_ms - exec_s * 1e3;
                self.timed_jobs += 1;
                *worker_busy.entry(thread).or_default() += exec_s;
            }
        }
        if !worker_busy.is_empty() {
            let busy: Vec<f64> = worker_busy.into_values().collect();
            self.busy_s += busy.iter().sum::<f64>();
            self.imbalance_sum += busy.iter().copied().fold(0.0, f64::max) / mean(&busy);
            self.sessions += 1;
        }
        for (id, count) in seen {
            if count == 0 {
                self.problem(format!("job {id} was never answered"));
            }
        }
    }
}

fn cache_traffic(v: Option<&json::Value>) -> CacheTraffic {
    let n = |k: &str| {
        v.and_then(|c| c.get(k))
            .and_then(json::Value::as_f64)
            .unwrap_or(0.0) as u64
    };
    CacheTraffic {
        model_hits: n("model_hits"),
        model_misses: n("model_misses"),
        categories_hit: n("categories_hit"),
        categories_collected: n("categories_collected"),
        writes: n("writes"),
    }
}

/// Records the service and hit-rate metrics of checked sessions.
pub fn set_service_layer(out: &mut Outcome, tally: &SessionTally) {
    let jobs = tally.timed_jobs as f64;
    out.set("service.queue_wait_ms", tally.queue_wait_ms / jobs);
    out.set("service.exec_ms", tally.exec_ms / jobs);
    out.set("cache.hit_rate", tally.traffic.hit_rate());
}

/// Serves `jobs` warm `run_cached` jobs of `cfg` from `layer`'s cache,
/// `workers` at a time, and records the service-layer metrics.
pub fn warm_service_layer(
    out: &mut Outcome,
    cfg: &ExperimentConfig,
    layer: &CacheLayer,
    jobs: usize,
    workers: usize,
) {
    let _span = trace::span("bench.service_profile");
    let log = ExecLog::default();
    let samples = cfg.collection.samples_per_category;
    let expected = Experiment::new(cfg.clone())
        .run_cached(&layer.cache)
        .map(|o| o.report.render_table())
        .ok();
    let list: Vec<Job> = (0..jobs).map(|i| job(format!("p{i}"), samples)).collect();
    let exec = run_cached_executor(cfg, &layer.cache, &log, trace::current());
    let session = closed_loop(&list, workers, Threads::Count(workers), exec);
    let mut tally = SessionTally::default();
    tally.check(&session, &list, &|_| expected.clone(), &log, true);
    out.check(
        "profile service answers every warm job once",
        if tally.failed == 0 {
            Ok(())
        } else {
            Err(tally.problems.join("; "))
        },
    );
    set_service_layer(out, &tally);
}
