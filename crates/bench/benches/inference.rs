//! CNN inference throughput: reference (fast) path vs instrumented path
//! against the full Xeon-class simulator — the cost of observation.
//!
//! Besides the per-iteration lines of the harness, the bench writes
//! `BENCH_e2e.json` at the repo root: the simulator's end-to-end cost on
//! one traced MNIST inference (cold start included), the cold start
//! alone, events per inference and simulator ns per event, the host's
//! parallelism, and `bit_identical` — whether the inference's counter
//! snapshot still equals the golden one pinned below. Timings are
//! reported, never judged; `ci/bench_gate.sh` fails only when
//! `bit_identical` is not true.

use std::time::Instant;

use scnn_bench::harness::{black_box, Harness};
use scnn_data::mnist_synth::{generate, MnistSynthConfig};
use scnn_nn::{models, Network};
use scnn_tensor::Tensor;
use scnn_uarch::{CoreConfig, CoreSim, CounterSnapshot, CountingProbe, NullProbe};

/// Timed repetitions per `BENCH_e2e.json` arm; the best one is kept.
const REPS: usize = 15;

/// The counters of one cold-start traced inference of `mnist_cnn(42)` on
/// synthetic image 3, on the Xeon E5-2690 model.
const GOLDEN: CounterSnapshot = CounterSnapshot {
    instructions: 992_923,
    loads: 370_302,
    stores: 218_386,
    branches: 30_011,
    branch_misses: 1_602,
    l1d_accesses: 588_688,
    l1d_misses: 4_069,
    l2_accesses: 327_153,
    l2_misses: 3_616,
    llc_references: 322_188,
    llc_misses: 3_616,
    dtlb_misses: 66,
    prefetches: 320_436,
    cycles: 1_602_136,
    ref_cycles: 1_579_706,
    bus_cycles: 61_621,
};

fn bench_inference(h: &mut Harness, image: &Tensor) {
    let mut net = models::mnist_cnn(42);
    h.bench("mnist_inference/reference", || {
        black_box(net.infer(black_box(image)).unwrap());
    });
    let net_ref = models::mnist_cnn(42);
    h.bench("mnist_inference/traced_null_probe", || {
        let mut probe = NullProbe;
        black_box(net_ref.infer_traced(black_box(image), &mut probe).unwrap());
    });
    h.bench("mnist_inference/traced_counting_probe", || {
        let mut probe = CountingProbe::new();
        black_box(net_ref.infer_traced(black_box(image), &mut probe).unwrap());
    });
    let mut core = CoreSim::new(CoreConfig::xeon_e5_2690()).unwrap();
    h.bench("mnist_inference/traced_core_sim", || {
        core.cold_start();
        core.reset_counters();
        black_box(net_ref.infer_traced(black_box(image), &mut core).unwrap());
    });
}

/// Best-of-[`REPS`] wall time of `f`, in seconds.
fn best_of(mut f: impl FnMut()) -> f64 {
    (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn write_e2e_record(net: &Network, image: &Tensor) {
    let mut core = CoreSim::new(CoreConfig::xeon_e5_2690()).unwrap();
    let mut traced = || {
        core.cold_start();
        core.reset_counters();
        black_box(net.infer_traced(image, &mut core).unwrap());
    };
    traced();
    let traced_s = best_of(&mut traced);
    let snapshot = core.snapshot();
    let null_s = best_of(|| {
        black_box(net.infer_traced(image, &mut NullProbe).unwrap());
    });
    // The flush right after a full inference: what every cold-start
    // measurement pays before its workload runs.
    let cold_s = (0..REPS)
        .map(|_| {
            core.cold_start();
            net.infer_traced(image, &mut core).unwrap();
            let t0 = Instant::now();
            core.cold_start();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    let mut counts = CountingProbe::new();
    net.infer_traced(image, &mut counts).unwrap();
    let events = counts.loads + counts.stores + counts.branches;
    let bit_identical = snapshot == GOLDEN;
    if !bit_identical {
        eprintln!(
            "counter snapshot moved from the golden one:\n  got  {snapshot:?}\n  want {GOLDEN:?}"
        );
    }

    let host = scnn_bench::harness::host_parallelism();
    let available = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"e2e\",\n",
            "  \"host_parallelism\": {host},\n",
            "  \"available_parallelism\": {available},\n",
            "  \"degraded_host\": {degraded},\n",
            "  \"workload\": {{ \"model\": \"mnist_cnn\", \"preset\": \"xeon-like\", \"cold_start\": true }},\n",
            "  \"traced_core_sim_ms\": {traced:.3},\n",
            "  \"traced_null_probe_ms\": {null:.3},\n",
            "  \"cold_start_us\": {cold:.1},\n",
            "  \"events_per_inference\": {events},\n",
            "  \"ns_per_event\": {per_event:.2},\n",
            "  \"bit_identical\": {bit_identical}\n",
            "}}\n"
        ),
        host = host,
        available = available,
        degraded = host.min(available) == 1,
        traced = traced_s * 1e3,
        null = null_s * 1e3,
        cold = cold_s * 1e6,
        events = events,
        per_event = (traced_s - null_s) * 1e9 / events as f64,
        bit_identical = bit_identical,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e2e.json");
    std::fs::write(path, &json).expect("write BENCH_e2e.json");
    print!("{json}");
    println!("wrote {path}");
}

fn main() {
    let ds = generate(
        &MnistSynthConfig {
            per_class: 1,
            ..MnistSynthConfig::default()
        },
        7,
    )
    .unwrap();
    let image = ds.get(3).unwrap().0.clone();
    let mut h = Harness::from_args();
    bench_inference(&mut h, &image);
    h.finish();
    write_e2e_record(&models::mnist_cnn(42), &image);
}
