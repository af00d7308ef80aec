//! The layer profile: the workload's own model and images driven
//! through each layer's public entry points, one layer at a time.
//!
//! Per preset and image it times `Network::infer` (numeric),
//! `infer_traced` into a `NullProbe` (narration) and into a `CoreSim`
//! (simulation), `CoreSim::cold_start` alone, and `Pmu::measure`
//! through the timing adapters. One recorded event stream is replayed
//! into a fresh `MemoryHierarchy`, `Tlb` and the preset's
//! `BranchPredictor`. The exact counter pass ([`exact_snapshots`]) runs
//! in every run and feeds the counters digest.

use crate::adapters::{TimedClassifier, TimedPmu, Timings};
use crate::stats::{mean, median};
use crate::trace;
use scnn_core::{CategoryObservations, TracedClassifier};
use scnn_data::Dataset;
use scnn_hpc::{CounterGroup, HpcEvent, Pmu, SimPmuConfig, SimulatedPmu};
use scnn_nn::Network;
use scnn_tensor::Tensor;
use scnn_uarch::{
    CoreConfig, CoreSim, CounterSnapshot, CountingProbe, MemoryHierarchy, NullProbe, Probe, Tlb,
};
use std::collections::BTreeMap;
use std::error::Error;
use std::hint::black_box;
use std::time::Instant;

/// A simulated platform by name.
#[derive(Debug, Clone)]
pub struct Preset {
    /// Zoo name, such as `xeon-like`.
    pub name: String,
    /// The core it simulates.
    pub core: CoreConfig,
}

/// What the profile drives.
pub struct Spec<'a> {
    /// The trained victim.
    pub net: &'a Network,
    /// Monitored images, labelled by category.
    pub monitored: &'a Dataset,
    /// Platforms the workload runs on.
    pub presets: &'a [Preset],
    /// PMU settings other than the core (noise, warm-up, clock).
    pub pmu: SimPmuConfig,
    /// Events the workload monitors.
    pub events: &'a [HpcEvent],
    /// Images per category.
    pub per_category: usize,
    /// Timing repetitions per image.
    pub reps: usize,
    /// Seed of the profile PMU's noise.
    pub seed: u64,
}

impl Spec<'_> {
    /// `(category, image)` pairs: the first `per_category` images of
    /// every category.
    pub fn images(&self) -> Vec<(usize, &Tensor)> {
        (0..self.monitored.num_classes())
            .flat_map(|c| {
                self.monitored
                    .of_class(c)
                    .take(self.per_category)
                    .map(move |img| (c, img))
            })
            .collect()
    }
}

/// Host times of one preset, seconds per inference (means).
#[derive(Debug, Clone, Default)]
pub struct PresetTimes {
    /// Preset name.
    pub name: String,
    /// `Network::infer`.
    pub infer_s: f64,
    /// `infer_traced` into a `NullProbe`.
    pub null_s: f64,
    /// `infer_traced` into a cold `CoreSim`.
    pub core_s: f64,
    /// `CoreSim::cold_start` alone.
    pub cold_s: f64,
    /// `Pmu::measure` through the adapters.
    pub measure_s: f64,
    /// `classify_traced` inside those measurements.
    pub classify_s: f64,
    /// Memory events plus branches per inference.
    pub events: f64,
    /// Replay: ns per `MemoryHierarchy::access`.
    pub hierarchy_ns: f64,
    /// Replay: ns per `Tlb::translate`.
    pub tlb_ns: f64,
    /// Replay: ns per `BranchPredictor::observe`.
    pub predictor_ns: f64,
    /// Readings of the first repetition, as a campaign.
    pub observations: Vec<CategoryObservations>,
}

/// The exact counters of every profile image on every preset: a fresh
/// core per preset, images in order, each after a cold start.
///
/// # Errors
///
/// Returns simulator or network errors.
pub fn exact_snapshots(spec: &Spec<'_>) -> Result<Vec<Vec<CounterSnapshot>>, Box<dyn Error>> {
    let images = spec.images();
    let mut out = Vec::with_capacity(spec.presets.len());
    for preset in spec.presets {
        let mut core = CoreSim::new(preset.core)?;
        let mut snaps = Vec::with_capacity(images.len());
        for (_, image) in &images {
            core.cold_start();
            core.reset_counters();
            spec.net.infer_traced(image, &mut core)?;
            snaps.push(core.snapshot());
        }
        out.push(snaps);
    }
    Ok(out)
}

/// Events per inference of every profile image, from a `CountingProbe`.
///
/// # Errors
///
/// Returns network errors.
pub fn event_counts(spec: &Spec<'_>) -> Result<Vec<CountingProbe>, Box<dyn Error>> {
    spec.images()
        .iter()
        .map(|(_, image)| {
            let mut probe = CountingProbe::new();
            spec.net.infer_traced(image, &mut probe)?;
            Ok(probe)
        })
        .collect()
}

fn seconds<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = trace::span(name);
    let start = Instant::now();
    let out = black_box(f());
    (out, start.elapsed().as_secs_f64())
}

/// Times every layer on every preset.
///
/// # Errors
///
/// Returns simulator, PMU or network errors.
pub fn time_layers(spec: &Spec<'_>) -> Result<Vec<PresetTimes>, Box<dyn Error>> {
    let images = spec.images();
    let events_per_inference = {
        let counts = event_counts(spec)?;
        mean(
            &counts
                .iter()
                .map(|c| (c.loads + c.stores + c.branches) as f64)
                .collect::<Vec<_>>(),
        )
    };
    let group = CounterGroup::new(spec.events.to_vec(), spec.pmu.hw_counters)?;
    let mut out = Vec::with_capacity(spec.presets.len());
    for preset in spec.presets {
        let _span = trace::span("profile.preset");
        let mut numeric = spec.net.clone();
        let mut core = CoreSim::new(preset.core)?;
        let sink = Timings::under(trace::current());
        let pmu_cfg = SimPmuConfig {
            core: preset.core,
            ..spec.pmu
        };
        let mut pmu = TimedPmu::new(SimulatedPmu::new(pmu_cfg, spec.seed)?, 0, &sink);
        let mut classifier = TimedClassifier::new(spec.net.clone(), &sink);
        let (mut infer, mut null, mut sim, mut cold) = (vec![], vec![], vec![], vec![]);
        let mut per_event: BTreeMap<HpcEvent, Vec<Vec<f64>>> = spec
            .events
            .iter()
            .map(|&e| (e, vec![Vec::new(); spec.monitored.num_classes()]))
            .collect();
        let mut predictions = vec![Vec::new(); spec.monitored.num_classes()];
        for rep in 0..spec.reps {
            for &(category, image) in &images {
                let (r, t) = seconds("nn.infer", || numeric.infer(image));
                r?;
                infer.push(t);
                let (r, t) = seconds("nn.infer_traced.null", || {
                    spec.net.infer_traced(image, &mut NullProbe)
                });
                r?;
                null.push(t);
                core.cold_start();
                core.reset_counters();
                let (r, t) = seconds("uarch.core_sim", || spec.net.infer_traced(image, &mut core));
                r?;
                sim.push(t);
                let ((), t) = seconds("uarch.cold_start", || core.cold_start());
                cold.push(t);
                let mut prediction = None;
                let m = pmu.measure(&group, &mut |probe| {
                    prediction = classifier.classify_traced(image, probe).ok();
                })?;
                let prediction = prediction.ok_or("profile image rejected by the model")?;
                if rep == 0 {
                    for reading in &m.readings {
                        if let Some(per_cat) = per_event.get_mut(&reading.event) {
                            per_cat[category].push(reading.value() as f64);
                        }
                    }
                    predictions[category].push(prediction);
                }
            }
        }
        let observations = predictions
            .into_iter()
            .enumerate()
            .map(|(category, predictions)| CategoryObservations {
                category,
                per_event: per_event
                    .iter_mut()
                    .map(|(&e, per_cat)| (e, std::mem::take(&mut per_cat[category])))
                    .collect(),
                predictions,
            })
            .collect();
        let (hierarchy_ns, tlb_ns, predictor_ns) = replay(spec, preset, images[0].1)?;
        out.push(PresetTimes {
            name: preset.name.clone(),
            infer_s: mean(&infer),
            null_s: mean(&null),
            core_s: mean(&sim),
            cold_s: mean(&cold),
            measure_s: mean(&sink.measure_s()),
            classify_s: mean(&sink.classify_s()),
            events: events_per_inference,
            hierarchy_ns,
            tlb_ns,
            predictor_ns,
            observations,
        });
    }
    Ok(out)
}

/// One architectural event of a recorded stream.
#[derive(Debug, Clone, Copy)]
enum Event {
    Mem { addr: u64, write: bool, pc: u64 },
    Branch { pc: u64, taken: bool },
}

/// A probe that records the stream for replay.
#[derive(Default)]
struct Recording(Vec<Event>);

impl Probe for Recording {
    fn load(&mut self, addr: u64, pc: u64) {
        self.0.push(Event::Mem {
            addr,
            write: false,
            pc,
        });
    }

    fn store(&mut self, addr: u64, pc: u64) {
        self.0.push(Event::Mem {
            addr,
            write: true,
            pc,
        });
    }

    fn branch(&mut self, pc: u64, taken: bool) {
        self.0.push(Event::Branch { pc, taken });
    }
}

/// Replays one image's event stream into fresh structures of `preset`;
/// returns the median ns per hierarchy access, TLB translation and
/// predictor observation.
fn replay(
    spec: &Spec<'_>,
    preset: &Preset,
    image: &Tensor,
) -> Result<(f64, f64, f64), Box<dyn Error>> {
    let mut rec = Recording::default();
    spec.net.infer_traced(image, &mut rec)?;
    let mem: Vec<(u64, bool, u64)> = rec
        .0
        .iter()
        .filter_map(|e| match *e {
            Event::Mem { addr, write, pc } => Some((addr, write, pc)),
            Event::Branch { .. } => None,
        })
        .collect();
    let branches: Vec<(u64, bool)> = rec
        .0
        .iter()
        .filter_map(|e| match *e {
            Event::Branch { pc, taken } => Some((pc, taken)),
            Event::Mem { .. } => None,
        })
        .collect();
    let per = |elapsed: f64, n: usize| elapsed * 1e9 / n.max(1) as f64;
    let (mut h_ns, mut t_ns, mut p_ns) = (vec![], vec![], vec![]);
    for _ in 0..spec.reps.max(1) {
        let mut hierarchy = MemoryHierarchy::new(preset.core.hierarchy)?;
        let ((), t) = seconds("uarch.replay.hierarchy", || {
            for &(addr, write, pc) in &mem {
                black_box(hierarchy.access(addr, write, pc));
            }
        });
        h_ns.push(per(t, mem.len()));
        let mut tlb = Tlb::new(preset.core.tlb);
        let ((), t) = seconds("uarch.replay.tlb", || {
            for &(addr, _, _) in &mem {
                black_box(tlb.translate(addr));
            }
        });
        t_ns.push(per(t, mem.len()));
        let mut predictor = preset.core.predictor.build(preset.core.predictor_bits);
        let ((), t) = seconds("uarch.replay.predictor", || {
            for &(pc, taken) in &branches {
                black_box(predictor.observe(pc, taken));
            }
        });
        p_ns.push(per(t, branches.len()));
    }
    Ok((median(&h_ns), median(&t_ns), median(&p_ns)))
}
