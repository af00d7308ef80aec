//! Timing adapters over the public [`Pmu`] and [`TracedClassifier`]
//! traits.
//!
//! Each adapter forwards to the wrapped value unchanged and takes one
//! `Instant` pair per call, so the measured readings are exactly those
//! of the bare `SimulatedPmu` and network. `Pmu::measure` time minus
//! the `classify_traced` time inside it is the PMU wrapper's own cost
//! (cold start, noise, readout).

use crate::trace;
use scnn_core::TracedClassifier;
use scnn_hpc::{CounterGroup, Measurement, Pmu, PmuError};
use scnn_nn::NnError;
use scnn_tensor::Tensor;
use scnn_uarch::Probe;
use std::sync::Mutex;
use std::time::Instant;

/// Host times gathered by the adapters of one campaign.
#[derive(Debug, Default)]
pub struct Timings {
    /// `(category, seconds)` per `Pmu::measure` call.
    measure: Mutex<Vec<(usize, f64)>>,
    /// Seconds per `classify_traced` call.
    classify: Mutex<Vec<f64>>,
    /// Span the adapters' spans hang under when opened on a worker
    /// thread.
    parent: Option<u64>,
}

impl Timings {
    /// Empty timings whose spans attach to `parent`.
    pub fn under(parent: Option<u64>) -> Self {
        Timings {
            parent,
            ..Timings::default()
        }
    }

    /// Seconds of every `measure` call, in completion order.
    pub fn measure_s(&self) -> Vec<f64> {
        lock(&self.measure).iter().map(|&(_, s)| s).collect()
    }

    /// Seconds of every `measure` call, grouped by category.
    pub fn measure_by_category(&self, categories: usize) -> Vec<Vec<f64>> {
        let mut by = vec![Vec::new(); categories];
        for &(c, s) in lock(&self.measure).iter() {
            by[c].push(s);
        }
        by
    }

    /// Seconds of every `classify_traced` call.
    pub fn classify_s(&self) -> Vec<f64> {
        lock(&self.classify).clone()
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock()
        .expect("a timing sink is never held across a panic")
}

/// A [`Pmu`] that times each `measure` call of the PMU it wraps.
pub struct TimedPmu<'t, P> {
    inner: P,
    category: usize,
    sink: &'t Timings,
}

impl<'t, P> TimedPmu<'t, P> {
    /// Wraps `inner`, attributing its calls to `category`.
    pub fn new(inner: P, category: usize, sink: &'t Timings) -> Self {
        TimedPmu {
            inner,
            category,
            sink,
        }
    }
}

impl<P: Pmu> Pmu for TimedPmu<'_, P> {
    fn measure(
        &mut self,
        group: &CounterGroup,
        workload: &mut dyn FnMut(&mut dyn Probe),
    ) -> Result<Measurement, PmuError> {
        let _span = trace::span_under("hpc.measure", self.sink.parent);
        let start = Instant::now();
        let result = self.inner.measure(group, workload);
        let elapsed = start.elapsed().as_secs_f64();
        lock(&self.sink.measure).push((self.category, elapsed));
        result
    }
}

/// A [`TracedClassifier`] that times each `classify_traced` call.
pub struct TimedClassifier<'t, C> {
    inner: C,
    sink: &'t Timings,
}

impl<'t, C> TimedClassifier<'t, C> {
    /// Wraps `inner`.
    pub fn new(inner: C, sink: &'t Timings) -> Self {
        TimedClassifier { inner, sink }
    }
}

impl<C: TracedClassifier> TracedClassifier for TimedClassifier<'_, C> {
    fn classify_traced(&mut self, image: &Tensor, probe: &mut dyn Probe) -> Result<usize, NnError> {
        let _span = trace::span_under("nn.classify_traced", self.sink.parent);
        let start = Instant::now();
        let result = self.inner.classify_traced(image, probe);
        let elapsed = start.elapsed().as_secs_f64();
        lock(&self.sink.classify).push(elapsed);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scnn_hpc::{HpcEvent, SimPmuConfig, SimulatedPmu};
    use scnn_nn::models;
    use scnn_uarch::{CoreConfig, NoiseConfig};

    #[test]
    fn adapters_leave_readings_unchanged_and_time_each_call() {
        let cfg = SimPmuConfig {
            core: CoreConfig::tiny(),
            noise: NoiseConfig::default(),
            ..SimPmuConfig::default()
        };
        let group = CounterGroup::new(vec![HpcEvent::CacheMisses, HpcEvent::Branches], 8)
            .expect("two events fit");
        let net = models::small_cnn(1, 10, 2, 3);
        let image = Tensor::zeros(vec![1, 10, 10]);

        let mut bare = SimulatedPmu::new(cfg, 9).expect("tiny core is valid");
        let bare_net = net.clone();
        let expect = bare
            .measure(&group, &mut |p| {
                bare_net.classify_traced(&image, p).expect("shape fits");
            })
            .expect("measure");

        let sink = Timings::default();
        let mut timed = TimedPmu::new(SimulatedPmu::new(cfg, 9).expect("valid"), 0, &sink);
        let mut timed_net = TimedClassifier::new(net, &sink);
        let got = timed
            .measure(&group, &mut |p| {
                timed_net.classify_traced(&image, p).expect("shape fits");
            })
            .expect("measure");
        assert_eq!(got, expect);
        assert_eq!(sink.measure_s().len(), 1);
        assert_eq!(sink.classify_s().len(), 1);
        assert!(sink.measure_s()[0] >= sink.classify_s()[0]);
    }
}
