//! `mnist-xeon`: the paper's MNIST case study on the xeon-like preset.
//!
//! Set-up synthesises the data and trains the paper-scale CNN with the
//! paper's own seed, so every run evaluates the same victim; the
//! workload seed draws the monitored test images and the PMU noise. Each
//! timed unit is one `collect_selected` campaign over the 4 monitored
//! categories with the 2 paper events (ColdStart), followed by
//! `Evaluator::evaluate`. The PMU and the classifier are wrapped in the
//! timing adapters, so every `Pmu::measure` call is timed.

use super::{
    finish_trace, op_latency, ops_per_s, split_walls, timed_units, Args, Tracing, WorkDir,
};
use crate::adapters::{TimedClassifier, TimedPmu, Timings};
use crate::digest::{self, Digest};
use crate::layers;
use crate::profile::{self, Preset, Spec};
use crate::report::Outcome;
use crate::stats::{mean, median, percentile};
use crate::trace;
use crate::victim;
use scnn_core::collect::{category_seed, collect_selected};
use scnn_core::{zoo, CategoryObservations, DatasetKind, Evaluator, ExperimentConfig};
use scnn_hpc::SimulatedPmu;
use scnn_par::Threads;
use std::error::Error;
use std::time::Instant;

struct Campaign {
    observations: Vec<CategoryObservations>,
    alarm: bool,
    timings: Timings,
}

/// Runs the workload.
///
/// # Errors
///
/// Returns set-up, collection or evaluation errors.
pub fn run(args: &Args, out: &mut Outcome) -> Result<(), Box<dyn Error>> {
    let sizes = args.sizes();
    let workers = args.workers();
    let base = if args.paper_scale {
        ExperimentConfig::paper(DatasetKind::Mnist)
    } else {
        ExperimentConfig::quick(DatasetKind::Mnist)
    };
    let mut cfg = base
        .samples(sizes.campaign_samples)
        .threads(Threads::Count(workers));
    let xeon = zoo::preset("xeon-like").ok_or("xeon-like ships in the zoo")?;
    cfg.pmu.core = xeon.core;
    let preset = Preset {
        name: xeon.name,
        core: xeon.core,
    };

    let mut setup = Vec::new();
    let mut built = None;
    for _ in 0..sizes.setup_reps {
        let start = Instant::now();
        built = Some(victim::build(&cfg, args.experiment_seed() ^ 0xFACE)?);
        setup.push(start.elapsed().as_secs_f64());
    }
    let victim = built.ok_or("no set-up ran")?;
    out.set("setup_s", median(&setup));
    println!(
        "setup: {} set-ups, median {:.3} s (data {:.3} s, training {:.3} s); test accuracy {:.3}",
        setup.len(),
        median(&setup),
        victim.synth_s,
        victim.train_s,
        victim.test_accuracy
    );

    let tracing = Tracing::new();
    let categories: Vec<usize> = (0..cfg.categories.len()).collect();
    let pmu_base = args.experiment_seed() ^ 0x9019;
    let units = timed_units(args, &tracing, |_| {
        let span = trace::span("core.collect_selected");
        let timings = Timings::under(span.as_ref().map(trace::Guard::id));
        let observations = collect_selected(
            |_| TimedClassifier::new(victim.net.clone(), &timings),
            &victim.monitored,
            |c| {
                SimulatedPmu::new(cfg.pmu, category_seed(pmu_base, c))
                    .map(|p| TimedPmu::new(p, c, &timings))
            },
            &cfg.collection,
            &categories,
            |_| {},
        )?;
        drop(span);
        let report = {
            let _span = trace::span("core.evaluate");
            Evaluator::new(cfg.evaluator).evaluate(&observations)?
        };
        Ok(Campaign {
            observations,
            alarm: report.alarm().raised(),
            timings,
        })
    })?;

    // Correctness: complete campaigns, the alarm, repeatable readings.
    let expected = (categories.len() * sizes.campaign_samples) as u64;
    let mut readings = Digest::default();
    readings.observations(&units[0].value.observations);
    let first = readings.value();
    for unit in &units {
        let got: usize = unit
            .value
            .observations
            .iter()
            .map(CategoryObservations::len)
            .sum();
        out.attempted += expected;
        out.failed += expected.saturating_sub(got as u64);
    }
    out.check(
        "paper alarm fires in every campaign",
        if units.iter().all(|u| u.value.alarm) {
            Ok(())
        } else {
            Err("a campaign raised no alarm".into())
        },
    );
    out.check(
        "every campaign reads identical counters",
        if units.iter().all(|u| {
            let mut d = Digest::default();
            d.observations(&u.value.observations);
            d.value() == first
        }) {
            Ok(())
        } else {
            Err("readings differ between campaigns".into())
        },
    );

    let profile_spec = Spec {
        net: &victim.net,
        monitored: &victim.monitored,
        presets: std::slice::from_ref(&preset),
        pmu: cfg.pmu,
        events: &cfg.collection.events,
        per_category: sizes.profile_images,
        reps: sizes.profile_reps,
        seed: args.experiment_seed() ^ 0x9F0F,
    };
    let exact = profile::exact_snapshots(&profile_spec)?;
    let mut counters = readings;
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

    // End-to-end, from the untraced units.
    let plain: Vec<&Campaign> = units
        .iter()
        .filter(|u| !u.traced)
        .map(|u| &u.value)
        .collect();
    let (walls, _) = split_walls(&units);
    let measure_ms: Vec<f64> = plain
        .iter()
        .flat_map(|c| c.timings.measure_s())
        .map(|s| s * 1e3)
        .collect();
    let per_unit_ms: Vec<Vec<f64>> = plain
        .iter()
        .map(|c| c.timings.measure_s().iter().map(|s| s * 1e3).collect())
        .collect();
    let (op_mean_ms, op_p90_ms) = op_latency(&per_unit_ms);
    out.set("campaign_s", median(&walls));
    let per_s = ops_per_s(
        plain
            .iter()
            .zip(&walls)
            .map(|(c, &wall)| (c.timings.measure_s().len() as f64, wall)),
    );
    out.set("ops_per_s", per_s);
    out.set("op_mean_ms", op_mean_ms);
    out.set("op_p90_ms", op_p90_ms);
    println!(
        "{} campaigns of {expected} measurements ({} traced); measurements_per_s = {} 1/s; over all {} Pmu::measure calls: measure_p50_ms = {} ms, measure_p90_ms = {} ms",
        units.len(),
        units.iter().filter(|u| u.traced).count(),
        per_s,
        measure_ms.len(),
        percentile(&measure_ms, 50.0),
        percentile(&measure_ms, 90.0),
    );
    let mut by_category = vec![Vec::new(); categories.len()];
    for c in &plain {
        for (all, mine) in by_category
            .iter_mut()
            .zip(c.timings.measure_by_category(categories.len()))
        {
            all.extend(mine.iter().map(|s| s * 1e3));
        }
    }
    let medians: Vec<String> = by_category
        .iter()
        .map(|ms| format!("{:.2}", median(ms)))
        .collect();
    println!("measure_p50_ms by category: [{}]", medians.join(", "));

    if args.trace {
        let mut busy = Vec::new();
        let mut imbalance = Vec::new();
        for unit in &units {
            let per_cat: Vec<f64> = unit
                .value
                .timings
                .measure_by_category(categories.len())
                .iter()
                .map(|c| c.iter().sum())
                .collect();
            busy.push(per_cat.iter().sum::<f64>() / (workers as f64 * unit.wall_s));
            imbalance.push(per_cat.iter().copied().fold(0.0, f64::max) / mean(&per_cat));
        }
        out.set("par.busy_frac", mean(&busy));
        out.set("par.imbalance", mean(&imbalance));
        out.set("nn.train_s", victim.train_s);
        out.set("data.synth_ms", victim.synth_s * 1e3);
        let last = &units[units.len() - 1].value.observations;
        let work = WorkDir::new("profile")?;
        trace::set_enabled(true);
        let profiled = (|| -> Result<(), Box<dyn Error>> {
            layers::profile_core(out, &profile_spec, &exact, args.paper_scale)?;
            let layer = layers::cache_roundtrip(out, work.path(), &cfg, &victim, last, 5)?;
            layers::evaluate_layer(out, &cfg, last, 5)?;
            layers::warm_service_layer(out, &cfg, &layer, sizes.profile_jobs, workers);
            Ok(())
        })();
        trace::set_enabled(false);
        profiled?;
        finish_trace(out, args, &units, &tracing)?;
    }
    Ok(())
}
