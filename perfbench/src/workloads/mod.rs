//! The three workloads and what they share: run arguments, sizes, the
//! timed-unit loop and tracing switch.

pub mod mnist_xeon;
pub mod serve_warm;
pub mod zoo_sweep;

use crate::profile::Preset;
use crate::trace;
use scnn_core::zoo;
use scnn_uarch::CoreConfig;
use std::error::Error;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Run arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed: the inputs each workload draws from it (see the
    /// workload's module).
    pub seed: u64,
    /// Seconds the timed phase runs for.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Paper-scale inputs; the self-check turns this off for tiny ones.
    pub paper_scale: bool,
}

/// Input sizes of one scale.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// mnist-xeon set-ups (trainings) per run; `setup_s` is their
    /// median.
    pub setup_reps: usize,
    /// serve-warm cold passes per run; `setup_s` is their median.
    pub cold_passes: usize,
    /// Timed units at least, whatever `--seconds` says (zoo-sweep's
    /// units are long enough that this sets its run length).
    pub min_units: usize,
    /// Measurements per category of one mnist-xeon campaign.
    pub campaign_samples: usize,
    /// Measurements per category and preset of one sweep.
    pub sweep_samples: usize,
    /// Warm jobs per serve-warm session.
    pub session_jobs: usize,
    /// Profile images per category.
    pub profile_images: usize,
    /// Profile repetitions per image.
    pub profile_reps: usize,
    /// Warm jobs of the service profile on the non-service workloads.
    pub profile_jobs: usize,
}

impl Args {
    /// Sizes for this run's scale.
    pub fn sizes(&self) -> Sizes {
        if self.paper_scale {
            Sizes {
                setup_reps: 3,
                cold_passes: 7,
                min_units: 3,
                campaign_samples: 25,
                sweep_samples: 25,
                session_jobs: 200,
                profile_images: 2,
                profile_reps: 2,
                profile_jobs: 16,
            }
        } else {
            Sizes {
                setup_reps: 2,
                cold_passes: 2,
                min_units: 2,
                campaign_samples: 6,
                sweep_samples: 6,
                session_jobs: 12,
                profile_images: 2,
                profile_reps: 1,
                profile_jobs: 4,
            }
        }
    }

    /// The experiment seed of this workload seed (seed 0 is the paper's
    /// own).
    pub fn experiment_seed(&self) -> u64 {
        0xDAC2019 ^ self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Worker threads: the host's available parallelism.
    pub fn workers(&self) -> usize {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// The zoo name of `core`; `default` for the pipeline's default core.
pub fn preset_of(core: &CoreConfig) -> Preset {
    let name = zoo::zoo()
        .into_iter()
        .find(|p| p.core == *core)
        .map_or_else(
            || {
                if *core == CoreConfig::default() {
                    "default"
                } else {
                    "custom"
                }
                .to_owned()
            },
            |p| p.name,
        );
    Preset { name, core: *core }
}

/// A private scratch directory inside the checkout, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `.perfbench/work-<pid>-<tag>`.
    ///
    /// # Errors
    ///
    /// Returns I/O errors.
    pub fn new(tag: &str) -> std::io::Result<Self> {
        let dir = PathBuf::from(".perfbench").join(format!("work-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Turns the benchmark's spans and the library's recorder on for one
/// traced unit.
pub struct Tracing {
    recorder: Arc<scnn_obs::Recorder>,
}

impl Tracing {
    /// A recorder for the run.
    pub fn new() -> Self {
        Tracing {
            recorder: Arc::new(scnn_obs::Recorder::new()),
        }
    }

    /// Runs `f` with tracing on when `on`.
    pub fn run<T>(&self, on: bool, f: impl FnOnce() -> T) -> T {
        if !on {
            return f();
        }
        scnn_obs::install(self.recorder.clone());
        trace::set_enabled(true);
        let out = f();
        trace::set_enabled(false);
        scnn_obs::uninstall();
        out
    }

    /// A library counter recorded so far (0 when never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.recorder.snapshot().counter(name).unwrap_or(0)
    }

    /// The library spans recorded so far.
    pub fn library_spans(&self) -> Vec<scnn_obs::SpanRecord> {
        self.recorder.snapshot().spans
    }
}

/// One timed unit: its wall time and whether it was traced.
#[derive(Debug)]
pub struct Unit<T> {
    /// Wall seconds.
    pub wall_s: f64,
    /// Ran with tracing on.
    pub traced: bool,
    /// What the unit produced.
    pub value: T,
}

/// Runs units until `seconds` have passed and at least `min_units`
/// ran. In a traced run, units alternate untraced and traced, so the
/// tracing overhead is measured within the run.
///
/// # Errors
///
/// Returns the first unit's error.
pub fn timed_units<T>(
    args: &Args,
    tracing: &Tracing,
    mut unit: impl FnMut(bool) -> Result<T, Box<dyn Error>>,
) -> Result<Vec<Unit<T>>, Box<dyn Error>> {
    let min_units = args.sizes().min_units;
    let start = Instant::now();
    let mut units = Vec::new();
    while units.len() < min_units || start.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && units.len() % 2 == 1;
        let t = Instant::now();
        let value = tracing.run(traced, || {
            let _span = trace::span("bench.unit");
            unit(traced)
        })?;
        units.push(Unit {
            wall_s: t.elapsed().as_secs_f64(),
            traced,
            value,
        });
    }
    Ok(units)
}

/// Median wall time of the untraced and the traced units.
pub fn split_walls<T>(units: &[Unit<T>]) -> (Vec<f64>, Vec<f64>) {
    let plain = units
        .iter()
        .filter(|u| !u.traced)
        .map(|u| u.wall_s)
        .collect();
    let traced = units
        .iter()
        .filter(|u| u.traced)
        .map(|u| u.wall_s)
        .collect();
    (plain, traced)
}

/// Operations per second: each unit's operations ÷ its wall time, the
/// median over the units. A median, like `campaign_s`, so that a stretch
/// of slow host time in part of the run moves it less than a pooled
/// mean would.
pub fn ops_per_s(units: impl IntoIterator<Item = (f64, f64)>) -> f64 {
    let rates: Vec<f64> = units
        .into_iter()
        .map(|(ops, wall_s)| ops / wall_s)
        .collect();
    crate::stats::median(&rates)
}

/// `(op_mean_ms, op_p90_ms)`: the mean and the 90th percentile of the
/// operation latencies of each unit, each then taken as the median over
/// the units, so a burst of host noise that slows one unit does not move
/// them.
pub fn op_latency(per_unit_ms: &[Vec<f64>]) -> (f64, f64) {
    use crate::stats::{mean, median, percentile};
    let means: Vec<f64> = per_unit_ms.iter().map(|u| mean(u)).collect();
    let p90s: Vec<f64> = per_unit_ms.iter().map(|u| percentile(u, 90.0)).collect();
    (median(&means), median(&p90s))
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Records the tracing overhead and span count, and writes the trace.
///
/// # Errors
///
/// Returns I/O errors from writing the trace file.
pub fn finish_trace<T>(
    out: &mut crate::report::Outcome,
    args: &Args,
    units: &[Unit<T>],
    tracing: &Tracing,
) -> Result<(), Box<dyn Error>> {
    use crate::stats::median;
    let (plain, traced) = split_walls(units);
    out.set("trace.overhead_s", median(&traced) - median(&plain));
    let spans = trace::spans();
    out.set("trace.spans", spans.len() as f64);
    println!("span self time (benchmark spans of the traced units and the profile):");
    for (name, (count, total, own)) in trace::self_times(&spans) {
        println!(
            "  {name:<28} n={count:<6} total={:>10.3} ms  self={:>10.3} ms",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    let path = PathBuf::from(".perfbench")
        .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    let run_id = format!(
        "{}-seed{}-pid{}",
        args.workload,
        args.seed,
        std::process::id()
    );
    trace::write_jsonl(&path, &run_id, &spans, &tracing.library_spans())?;
    println!("trace written to {}", path.display());
    Ok(())
}
