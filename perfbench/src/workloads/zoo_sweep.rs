//! `zoo-sweep`: `sweep::run_sweep` at paper MNIST scale over the four
//! built-in zoo presets with the 8 Fig. 2b events and no artifact
//! cache — what `repro sweep` does without `--cache-dir`. Every preset
//! trains its own copy of the model and collects on its own core.
//!
//! The experiment keeps the paper's seed, which fixes the data, the
//! initial weights and the PMU noise in one; the workload seed draws
//! the training sample order. A different experiment seed would change
//! the victim's activation sparsity, and with it the work of a sweep,
//! by about a tenth.

use super::{
    finish_trace, op_latency, ops_per_s, split_walls, timed_units, Args, Tracing, WorkDir,
};
use crate::digest::{self, Digest};
use crate::layers;
use crate::profile::{self, Preset, Spec};
use crate::report::Outcome;
use crate::stats::{mean, median};
use crate::trace;
use crate::victim;
use scnn_core::json::ToJson;
use scnn_core::sweep::{run_sweep, SweepOutcome};
use scnn_core::{zoo, DatasetKind, ExperimentConfig};
use scnn_hpc::HpcEvent;
use scnn_par::Threads;
use scnn_uarch::{CoreSim, UarchConfig};
use std::error::Error;
use std::time::Instant;

/// Preset loads per run: each is a few milliseconds, so the median of
/// many keeps `setup_s` steady.
const PRESET_LOADS: usize = 101;

/// The zoo, slowest preset first. With two workers, the two xeon presets
/// then always start together and the two small ones follow, so the
/// sweep's wall time and peak memory do not hinge on which preset
/// happens to finish first — in the zoo's display order they do, and
/// host noise decides it.
const SWEEP_ORDER: [&str; 4] = ["xeon-plru", "xeon-like", "embedded-like", "mobile-like"];

/// Preset loading: parse and validate the embedded zoo and instantiate
/// each preset's simulated core.
fn load_presets() -> Result<Vec<UarchConfig>, Box<dyn Error>> {
    let mut presets = Vec::with_capacity(SWEEP_ORDER.len());
    for name in SWEEP_ORDER {
        let p = zoo::preset(name).ok_or_else(|| format!("{name} ships in the zoo"))?;
        std::hint::black_box(CoreSim::new(p.core)?);
        presets.push(p);
    }
    Ok(presets)
}

/// Runs the workload.
///
/// # Errors
///
/// Returns set-up or sweep errors.
pub fn run(args: &Args, out: &mut Outcome) -> Result<(), Box<dyn Error>> {
    let sizes = args.sizes();
    let workers = args.workers();
    let base = if args.paper_scale {
        ExperimentConfig::paper(DatasetKind::Mnist)
    } else {
        ExperimentConfig::quick(DatasetKind::Mnist)
    };
    let mut base = base.samples(sizes.sweep_samples);
    base.train.seed = args.experiment_seed();

    let mut setup = Vec::new();
    let mut loaded = Vec::new();
    for _ in 0..PRESET_LOADS {
        let start = Instant::now();
        loaded = load_presets()?;
        setup.push(start.elapsed().as_secs_f64());
    }
    out.set("setup_s", median(&setup));
    let names: Vec<String> = loaded.iter().map(|p| p.name.clone()).collect();
    println!(
        "setup: {} preset loads, median {:.6} s; presets {names:?}",
        setup.len(),
        median(&setup)
    );

    let tracing = Tracing::new();
    let units = timed_units(args, &tracing, |_| {
        let _span = trace::span("core.run_sweep");
        Ok(run_sweep(&base, &loaded, Threads::Count(workers), None)?)
    })?;

    let per_sweep = (loaded.len() * base.categories.len() * sizes.sweep_samples) as u64;
    let table = |o: &SweepOutcome| o.to_json();
    let first = table(&units[0].value);
    for unit in &units {
        out.attempted += per_sweep;
        let rows_ok = unit.value.rows.len() == loaded.len()
            && unit
                .value
                .rows
                .iter()
                .zip(&names)
                .all(|(r, n)| &r.preset == n);
        if !rows_ok {
            out.failed += per_sweep;
        }
    }
    println!("{}", units[0].value.render_table());
    out.check(
        "paper alarm fires on every preset of every sweep",
        if units.iter().all(|u| u.value.rows.iter().all(|r| r.alarm)) {
            Ok(())
        } else {
            Err("a preset raised no alarm".into())
        },
    );
    out.check(
        "every sweep gives an identical table",
        if units.iter().all(|u| table(&u.value) == first) {
            Ok(())
        } else {
            Err("sweep tables differ".into())
        },
    );

    // The profile needs the sweep's model: trained here, after the
    // timed phase, with the sweep's own single-threaded inner config.
    let inner = base.clone().threads(Threads::Count(1));
    let victim = victim::build(&inner, victim::test_seed(&inner))?;
    let presets: Vec<Preset> = loaded
        .iter()
        .map(|p| Preset {
            name: p.name.clone(),
            core: p.core,
        })
        .collect();
    let profile_spec = Spec {
        net: &victim.net,
        monitored: &victim.monitored,
        presets: &presets,
        pmu: inner.pmu,
        events: &HpcEvent::FIG2B,
        per_category: sizes.profile_images,
        reps: sizes.profile_reps,
        seed: inner.seed ^ 0x9F0F,
    };
    let exact = profile::exact_snapshots(&profile_spec)?;
    let mut counters = Digest::default();
    counters.str(&first);
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

    let (walls, _) = split_walls(&units);
    let sweep_ms: Vec<f64> = walls.iter().map(|s| s * 1e3).collect();
    let (op_mean_ms, op_p90_ms) = op_latency(std::slice::from_ref(&sweep_ms));
    out.set("campaign_s", median(&walls));
    let per_s = ops_per_s(walls.iter().map(|&wall| (per_sweep as f64, wall)));
    out.set("ops_per_s", per_s);
    out.set("op_mean_ms", op_mean_ms);
    out.set("op_p90_ms", op_p90_ms);
    println!(
        "{} sweeps of {per_sweep} measurements ({} traced); measurements_per_s = {} 1/s; op = one sweep, n = {}",
        units.len(),
        units.iter().filter(|u| u.traced).count(),
        per_s,
        sweep_ms.len()
    );

    if args.trace {
        let library = tracing.library_spans();
        let named = |name: &str| -> Vec<f64> {
            library
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.duration_ns as f64 / 1e9)
                .collect()
        };
        let preset_s = named("sweep.preset");
        let traced_wall: f64 = units.iter().filter(|u| u.traced).map(|u| u.wall_s).sum();
        out.set(
            "par.busy_frac",
            preset_s.iter().sum::<f64>() / (workers as f64 * traced_wall),
        );
        out.set(
            "par.imbalance",
            preset_s.iter().copied().fold(0.0, f64::max) / mean(&preset_s),
        );
        println!(
            "inside the traced sweeps: pipeline.train {:.3} s, pipeline.dataset {:.3} s, pipeline.collect {:.3} s, pipeline.evaluate {:.6} s (means per preset)",
            mean(&named("pipeline.train")),
            mean(&named("pipeline.dataset")),
            mean(&named("pipeline.collect")),
            mean(&named("pipeline.evaluate")),
        );
        out.set("nn.train_s", victim.train_s);
        out.set("data.synth_ms", victim.synth_s * 1e3);
        let work = WorkDir::new("profile")?;
        trace::set_enabled(true);
        let profiled = (|| -> Result<(), Box<dyn Error>> {
            let times = layers::profile_core(out, &profile_spec, &exact, false)?;
            let mut cfg = inner.clone();
            cfg.collection.events = HpcEvent::FIG2B.to_vec();
            cfg.collection.samples_per_category = sizes.profile_images;
            let observations = &times[0].observations;
            let layer = layers::cache_roundtrip(out, work.path(), &cfg, &victim, observations, 5)?;
            layers::evaluate_layer(out, &cfg, observations, 5)?;
            layers::warm_service_layer(out, &cfg, &layer, sizes.profile_jobs, workers);
            Ok(())
        })();
        trace::set_enabled(false);
        profiled?;
        finish_trace(out, args, &units, &tracing)?;
    }
    Ok(())
}
