//! `serve-warm`: ndjson jobs through `service::serve`, each an
//! `Experiment::run_cached` plus `render_table` on a quick-scale MNIST
//! arm. The arms differ only in their sample count — distinct category
//! keys, one shared model key.
//!
//! Set-up sends each arm once, cold and one at a time, through a
//! service on a fresh cache, so the cache writes land in `setup_s`. The
//! timed phase is a closed loop of warm jobs with one job outstanding
//! per worker: no simulator work, only the cache read path, the
//! artifact codecs, the evaluator and the service dispatch. The
//! workload seed is the quick experiment's seed (data, weights, noise).

use super::{finish_trace, ops_per_s, preset_of, timed_units, Args, Tracing, WorkDir};
use crate::digest::{self, Digest};
use crate::layers::{self, run_cached_executor, ExecLog, SessionTally};
use crate::profile::{self, Spec};
use crate::report::Outcome;
use crate::service_loop::{closed_loop, Job};
use crate::stats::{mean, median, percentile};
use crate::trace;
use crate::victim;
use scnn_cache::ArtifactCache;
use scnn_core::{DatasetKind, Experiment, ExperimentConfig};
use scnn_par::Threads;
use std::error::Error;

/// Sample counts of the arms.
const ARMS: [usize; 4] = [8, 10, 12, 14];

/// One checked session: its tally and its latency statistics.
struct SessionStats {
    tally: SessionTally,
    wall_s: f64,
    mean_ms: f64,
    p50_ms: f64,
    p90_ms: f64,
}

/// Runs the workload.
///
/// # Errors
///
/// Returns set-up or I/O errors.
pub fn run(args: &Args, out: &mut Outcome) -> Result<(), Box<dyn Error>> {
    let sizes = args.sizes();
    let workers = args.workers();
    let base = ExperimentConfig::quick(DatasetKind::Mnist)
        .seed(args.experiment_seed())
        .threads(Threads::Count(1));
    let arm_of = |id: &str| -> Option<usize> { id.rsplit('-').next()?.parse().ok() };

    // Set-up: the cold pass, on a fresh cache each time.
    let mut setup = Vec::new();
    let mut cold_stdout: Vec<String> = Vec::new();
    let mut store = None;
    for rep in 0..sizes.cold_passes {
        let dir = WorkDir::new(&format!("cold{rep}"))?;
        let cache = ArtifactCache::open(dir.path())?;
        let log = ExecLog::default();
        let jobs: Vec<Job> = ARMS
            .iter()
            .enumerate()
            .map(|(arm, &samples)| layers::job(format!("cold{rep}-{arm}"), samples))
            .collect();
        let session = closed_loop(
            &jobs,
            1,
            Threads::Count(workers),
            run_cached_executor(&base, &cache, &log, None),
        );
        setup.push(session.wall_s);
        let stdout: Vec<String> = jobs
            .iter()
            .map(|j| {
                session
                    .responses
                    .iter()
                    .find(|r| r.id.as_deref() == Some(j.id.as_str()))
                    .and_then(|r| r.body.get("stdout"))
                    .and_then(|s| s.as_str())
                    .unwrap_or_default()
                    .to_owned()
            })
            .collect();
        let writes = session.report.cache.writes;
        let expected_writes = 1 + (ARMS.len() * base.categories.len()) as u64;
        out.check(
            format!("cold pass {rep} trains once and writes every artifact"),
            if session.report.ok == ARMS.len() as u64 + 1
                && session.report.cache.model_misses == 1
                && writes == expected_writes
                && stdout.iter().all(|s| !s.is_empty())
            {
                Ok(())
            } else {
                Err(format!("{:?}", session.report))
            },
        );
        if rep == 0 {
            cold_stdout = stdout;
        } else if stdout != cold_stdout {
            out.check("cold passes agree", Err(format!("pass {rep} differs")));
        }
        store = Some((dir, cache));
    }
    let (dir, cache) = store.ok_or("no set-up ran")?;
    out.set("setup_s", median(&setup));
    println!(
        "setup: {} cold passes of {} arms, median {:.4} s",
        setup.len(),
        ARMS.len(),
        median(&setup)
    );

    let tracing = Tracing::new();
    let expected = |id: &str| arm_of(id).and_then(|a| cold_stdout.get(a).cloned());
    let mut unit_no = 0usize;
    let units = timed_units(args, &tracing, |traced| {
        unit_no += 1;
        let jobs: Vec<Job> = (0..sizes.session_jobs)
            .map(|k| {
                let arm = k % ARMS.len();
                layers::job(format!("w{unit_no}-{k}-{arm}"), ARMS[arm])
            })
            .collect();
        let parent = trace::current();
        let log = ExecLog::default();
        let session = closed_loop(
            &jobs,
            workers,
            Threads::Count(workers),
            run_cached_executor(&base, &cache, &log, parent),
        );
        if traced {
            for r in &session.responses {
                if let Some(sent) = r.sent {
                    trace::record("service.job", parent, sent, r.read);
                }
            }
        }
        // Checked here, after the session ended, so that what outlives
        // the unit does not grow with the number of jobs.
        let mut tally = SessionTally::default();
        tally.check(&session, &jobs, &expected, &log, true);
        let latency_ms: Vec<f64> = tally.latency_s.drain(..).map(|s| s * 1e3).collect();
        Ok(SessionStats {
            tally,
            wall_s: session.wall_s,
            mean_ms: mean(&latency_ms),
            p50_ms: percentile(&latency_ms, 50.0),
            p90_ms: percentile(&latency_ms, 90.0),
        })
    })?;

    let mut plain = SessionTally::default();
    let mut traced = SessionTally::default();
    let (mut walls, mut means, mut p50s, mut p90s) = (vec![], vec![], vec![], vec![]);
    let mut rates = Vec::new();
    for unit in units.iter() {
        let stats = &unit.value;
        out.attempted += sizes.session_jobs as u64;
        if unit.traced {
            traced.absorb(&stats.tally);
        } else {
            plain.absorb(&stats.tally);
            walls.push(stats.wall_s);
            rates.push((stats.tally.ok as f64, stats.wall_s));
            means.push(stats.mean_ms);
            p50s.push(stats.p50_ms);
            p90s.push(stats.p90_ms);
        }
    }
    out.failed = plain.failed + traced.failed;
    let problems: Vec<String> = plain
        .problems
        .iter()
        .chain(&traced.problems)
        .cloned()
        .collect();
    out.check(
        "every warm job answered once, byte-identical to its cold run, all from cache",
        if out.failed == 0 {
            Ok(())
        } else {
            Err(problems.join("; "))
        },
    );
    let names = |path: &std::path::Path| -> std::io::Result<Vec<String>> {
        Ok(std::fs::read_dir(path)?
            .filter_map(Result::ok)
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect())
    };
    // Anything in the quarantine is a failure; at the root, only
    // artifacts and the quarantine directory itself belong.
    let mut leftovers = names(&cache.quarantine_dir())?;
    leftovers.extend(
        names(dir.path())?
            .into_iter()
            .filter(|n| !n.ends_with(".art") && n != "quarantine"),
    );
    out.check(
        "no quarantined or temporary files in the cache",
        if leftovers.is_empty() {
            Ok(())
        } else {
            Err(format!("{leftovers:?}"))
        },
    );

    // The readings behind every arm, and the exact profile counters.
    let victim = victim::build(&base, victim::test_seed(&base))?;
    let preset = preset_of(&base.pmu.core);
    let profile_spec = Spec {
        net: &victim.net,
        monitored: &victim.monitored,
        presets: std::slice::from_ref(&preset),
        pmu: base.pmu,
        events: &base.collection.events,
        per_category: sizes.profile_images,
        reps: sizes.profile_reps,
        seed: base.seed ^ 0x9F0F,
    };
    let mut counters = Digest::default();
    let mut arm_observations = Vec::new();
    for &samples in &ARMS {
        let outcome = Experiment::new(base.clone().samples(samples)).run_cached(&cache)?;
        counters.observations(&outcome.observations);
        arm_observations.push(outcome.observations);
    }
    let exact = profile::exact_snapshots(&profile_spec)?;
    exact.iter().flatten().for_each(|s| counters.snapshot(s));
    let digest_value = counters.value();
    println!("counters_digest = {digest_value:016x}");
    out.check(
        "counters_digest",
        digest::check(
            digest::pinned(&args.workload, args.seed, args.paper_scale),
            digest_value,
        ),
    );

    out.set("campaign_s", median(&walls));
    let per_s = ops_per_s(rates);
    out.set("ops_per_s", per_s);
    out.set("op_mean_ms", median(&means));
    out.set("op_p90_ms", median(&p90s));
    println!(
        "{} sessions of {} warm jobs ({} traced), {workers} outstanding, {workers} workers; jobs_per_s = {} 1/s over {} jobs; medians over the untraced sessions: job_p50_ms = {} ms, job_p90_ms = {} ms",
        units.len(),
        sizes.session_jobs,
        units.iter().filter(|u| u.traced).count(),
        per_s,
        plain.ok,
        median(&p50s),
        median(&p90s),
    );

    if args.trace {
        // Service-layer numbers from every session, traced or not.
        let mut merged = plain;
        merged.absorb(&traced);
        layers::set_service_layer(out, &merged);
        let total_wall: f64 = units.iter().map(|u| u.value.wall_s).sum();
        out.set(
            "par.busy_frac",
            merged.busy_s / (workers as f64 * total_wall),
        );
        out.set(
            "par.imbalance",
            merged.imbalance_sum / merged.sessions as f64,
        );
        let collected = tracing.counter("collect.samples");
        out.check(
            "the traced warm sessions make no simulator calls",
            if collected == 0 {
                Ok(())
            } else {
                Err(format!("{collected} traced measurements"))
            },
        );
        out.set("nn.train_s", victim.train_s);
        out.set("data.synth_ms", victim.synth_s * 1e3);
        let work = WorkDir::new("profile")?;
        trace::set_enabled(true);
        let profiled = (|| -> Result<(), Box<dyn Error>> {
            layers::profile_core(out, &profile_spec, &exact, false)?;
            let cfg = base.clone().samples(ARMS[0]);
            let obs = &arm_observations[0];
            let _ = layers::cache_roundtrip(out, work.path(), &cfg, &victim, obs, 5)?;
            layers::evaluate_layer(out, &cfg, obs, 5)?;
            Ok(())
        })();
        trace::set_enabled(false);
        profiled?;
        finish_trace(out, args, &units, &tracing)?;
    }
    drop(dir);
    Ok(())
}
