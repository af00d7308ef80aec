//! Per-category HPC collection — step 1 of the paper's evaluator (§4):
//! "monitor different HPC events in parallel during the classification
//! operation of different categories of input images, considering each
//! category individually".

use scnn_data::Dataset;
use scnn_hpc::{CounterGroup, HpcEvent, Measurement, Pmu, PmuError};
use scnn_nn::{Network, NnError};
use scnn_par::{Pool, Threads};
use scnn_rng::SplitMix64;
use scnn_tensor::Tensor;
use scnn_uarch::Probe;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Anything that can classify an image while narrating its architectural
/// events to a probe: a plain [`Network`] or a
/// [`ProtectedModel`](crate::countermeasure::ProtectedModel) wrapping one.
pub trait TracedClassifier {
    /// Classifies `image`, emitting the execution's event stream into
    /// `probe`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] when the image is incompatible with the model.
    fn classify_traced(&mut self, image: &Tensor, probe: &mut dyn Probe) -> Result<usize, NnError>;
}

impl<T: TracedClassifier + ?Sized> TracedClassifier for Box<T> {
    fn classify_traced(&mut self, image: &Tensor, probe: &mut dyn Probe) -> Result<usize, NnError> {
        (**self).classify_traced(image, probe)
    }
}

impl TracedClassifier for Network {
    fn classify_traced(&mut self, image: &Tensor, probe: &mut dyn Probe) -> Result<usize, NnError> {
        Network::classify_traced(self, image, probe)
    }
}

/// Error from a collection campaign.
#[derive(Debug)]
pub enum CollectError {
    /// The PMU failed.
    Pmu(PmuError),
    /// The network rejected an input.
    Nn(scnn_nn::NnError),
    /// A category has no images in the dataset.
    EmptyCategory {
        /// The empty category.
        category: usize,
    },
    /// The dataset is empty.
    EmptyDataset,
}

impl fmt::Display for CollectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectError::Pmu(e) => write!(f, "pmu error: {e}"),
            CollectError::Nn(e) => write!(f, "network error: {e}"),
            CollectError::EmptyCategory { category } => {
                write!(f, "category {category} has no images")
            }
            CollectError::EmptyDataset => write!(f, "dataset is empty"),
        }
    }
}

impl Error for CollectError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CollectError::Pmu(e) => Some(e),
            CollectError::Nn(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PmuError> for CollectError {
    fn from(e: PmuError) -> Self {
        CollectError::Pmu(e)
    }
}

impl From<scnn_nn::NnError> for CollectError {
    fn from(e: scnn_nn::NnError) -> Self {
        CollectError::Nn(e)
    }
}

/// Parameters of a collection campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectionConfig {
    /// Events to monitor in parallel (one group; subject to the PMU's
    /// hardware-counter budget).
    pub events: Vec<HpcEvent>,
    /// Measurements per category. Images of the category are cycled when
    /// fewer are available.
    pub samples_per_category: usize,
    /// Hardware-counter budget for the group.
    pub hw_counters: usize,
    /// Worker threads for [`collect_campaign`]: one category campaign per
    /// worker. Does not affect the measured values — see the determinism
    /// contract on [`collect_campaign`].
    pub threads: Threads,
}

impl Default for CollectionConfig {
    fn default() -> Self {
        CollectionConfig {
            // The two events the paper's Tables 1–2 analyse.
            events: vec![HpcEvent::CacheMisses, HpcEvent::Branches],
            samples_per_category: 100,
            hw_counters: CounterGroup::DEFAULT_HW_COUNTERS,
            threads: Threads::Auto,
        }
    }
}

/// The HPC observations of one input category: per event, one value per
/// measured classification, index-aligned across events (reading `i` of
/// every event came from the same classification).
#[derive(Debug, Clone, PartialEq)]
pub struct CategoryObservations {
    /// The category (re-mapped label).
    pub category: usize,
    /// Event → measurement series.
    pub per_event: BTreeMap<HpcEvent, Vec<f64>>,
    /// Predicted class of each measured classification (lets analyses
    /// correlate leakage with model output).
    pub predictions: Vec<usize>,
}

impl CategoryObservations {
    /// The series of one event, if measured.
    pub fn series(&self, event: HpcEvent) -> Option<&[f64]> {
        self.per_event.get(&event).map(Vec::as_slice)
    }

    /// Number of measurements.
    pub fn len(&self) -> usize {
        self.predictions.len()
    }

    /// True when no measurements were taken.
    pub fn is_empty(&self) -> bool {
        self.predictions.is_empty()
    }
}

/// Runs the collection campaign: measures `samples_per_category` traced
/// classifications per category of `dataset` through `pmu`.
///
/// # Errors
///
/// Returns [`CollectError`] when the dataset or a category is empty or a
/// backend call fails.
pub fn collect<P: Pmu>(
    net: &mut dyn TracedClassifier,
    dataset: &Dataset,
    pmu: &mut P,
    config: &CollectionConfig,
) -> Result<Vec<CategoryObservations>, CollectError> {
    if dataset.is_empty() {
        return Err(CollectError::EmptyDataset);
    }
    let group =
        CounterGroup::new(config.events.clone(), config.hw_counters).map_err(PmuError::Group)?;

    let mut out = Vec::with_capacity(dataset.num_classes());
    for category in 0..dataset.num_classes() {
        out.push(collect_category(
            net, dataset, pmu, &group, config, category,
        )?);
    }
    Ok(out)
}

/// Measures one category's campaign: `samples_per_category` traced
/// classifications of that category's images through `pmu`.
///
/// This is the per-category body shared by the sequential [`collect`]
/// loop and the parallel [`collect_campaign`] fan-out.
///
/// # Errors
///
/// Returns [`CollectError`] when the category is empty or a backend call
/// fails.
pub fn collect_category<P: Pmu>(
    net: &mut dyn TracedClassifier,
    dataset: &Dataset,
    pmu: &mut P,
    group: &CounterGroup,
    config: &CollectionConfig,
    category: usize,
) -> Result<CategoryObservations, CollectError> {
    // Observation-only span/counters: measured readings never depend on
    // whether a recorder is installed.
    let _span = scnn_obs::Span::enter_indexed("collect.category", category as u64);
    let images: Vec<_> = dataset.of_class(category).collect();
    if images.is_empty() {
        return Err(CollectError::EmptyCategory { category });
    }
    scnn_obs::counter_add("collect.categories", 1);
    let mut per_event: BTreeMap<HpcEvent, Vec<f64>> = config
        .events
        .iter()
        .map(|&e| (e, Vec::with_capacity(config.samples_per_category)))
        .collect();
    let mut predictions = Vec::with_capacity(config.samples_per_category);

    for i in 0..config.samples_per_category {
        scnn_obs::counter_add("collect.samples", 1);
        let image = images[i % images.len()];
        let mut prediction = 0usize;
        let mut nn_err: Option<scnn_nn::NnError> = None;
        let measurement: Measurement = pmu.measure(group, &mut |probe| match net
            .classify_traced(image, probe)
        {
            Ok(p) => prediction = p,
            Err(e) => nn_err = Some(e),
        })?;
        if let Some(e) = nn_err {
            return Err(e.into());
        }
        for reading in &measurement.readings {
            if let Some(series) = per_event.get_mut(&reading.event) {
                series.push(reading.value() as f64);
            }
        }
        predictions.push(prediction);
    }
    Ok(CategoryObservations {
        category,
        per_event,
        predictions,
    })
}

/// Derives the seed for category `category`'s measurement environment
/// from a campaign-level `base` seed.
///
/// The derivation is a pure function of `(base, category)` — it does not
/// depend on how many categories run concurrently or in what order — so
/// a campaign's readings are identical at every thread count.
pub fn category_seed(base: u64, category: usize) -> u64 {
    SplitMix64::new(base ^ (category as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_value()
}

/// Runs the collection campaign with one worker per category, each on its
/// own classifier and PMU.
///
/// `make_classifier(c)` and `make_pmu(c)` build category `c`'s private
/// measurement environment; deriving any per-category randomness via
/// [`category_seed`] keeps each factory a pure function of the category
/// index. Under that contract the observations are **bit-identical at
/// every thread count** (including `Threads::Count(1)`), because each
/// category's campaign never shares mutable state with another.
///
/// This is the paper's §4 setup taken literally: each input category is
/// monitored "considering each category individually", so the campaigns
/// are independent by construction and the fan-out is free.
///
/// # Errors
///
/// Returns [`CollectError`] when the dataset or a category is empty or a
/// backend call fails. With several failing categories, the error of the
/// lowest-numbered one is reported (matching the sequential loop).
pub fn collect_campaign<C, P, FC, FP>(
    make_classifier: FC,
    dataset: &Dataset,
    make_pmu: FP,
    config: &CollectionConfig,
) -> Result<Vec<CategoryObservations>, CollectError>
where
    C: TracedClassifier + Send,
    P: Pmu + Send,
    FC: Fn(usize) -> C + Sync,
    FP: Fn(usize) -> Result<P, PmuError> + Sync,
{
    let all: Vec<usize> = (0..dataset.num_classes()).collect();
    collect_selected(make_classifier, dataset, make_pmu, config, &all, |_| {})
}

/// Runs [`collect_campaign`]'s fan-out over only the listed `categories`
/// (re-mapped indices into `dataset`), invoking `on_collected` from the
/// worker thread as soon as each category's campaign finishes.
///
/// This is the resume primitive of the cached pipeline: a checkpointing
/// caller passes the categories that are missing from its artifact store
/// and persists each one from the callback, so an interrupted campaign
/// restarts at the last completed category rather than from scratch.
///
/// Each category's measurements are a pure function of `(factories,
/// dataset, config, category)` under [`collect_campaign`]'s contract, so
/// collecting a subset yields bit-identical observations to the
/// corresponding slice of the full campaign, at every thread count. The
/// callback runs concurrently from worker threads and must not influence
/// the measurements.
///
/// # Errors
///
/// Returns [`CollectError`] when the dataset or a listed category is
/// empty or a backend call fails. With several failing categories, the
/// error of the first listed failing one is reported.
pub fn collect_selected<C, P, FC, FP>(
    make_classifier: FC,
    dataset: &Dataset,
    make_pmu: FP,
    config: &CollectionConfig,
    categories: &[usize],
    on_collected: impl Fn(&CategoryObservations) + Sync,
) -> Result<Vec<CategoryObservations>, CollectError>
where
    C: TracedClassifier + Send,
    P: Pmu + Send,
    FC: Fn(usize) -> C + Sync,
    FP: Fn(usize) -> Result<P, PmuError> + Sync,
{
    if dataset.is_empty() {
        return Err(CollectError::EmptyDataset);
    }
    let group =
        CounterGroup::new(config.events.clone(), config.hw_counters).map_err(PmuError::Group)?;

    let _span = scnn_obs::Span::enter("collect.campaign");
    let pool = Pool::new(config.threads);
    let results = pool.par_map(categories.to_vec(), |category| {
        let mut net = make_classifier(category);
        let mut pmu = make_pmu(category)?;
        let obs = collect_category(&mut net, dataset, &mut pmu, &group, config, category)?;
        on_collected(&obs);
        Ok(obs)
    });
    results.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use scnn_data::mnist_synth::{generate, MnistSynthConfig};
    use scnn_hpc::{SimPmuConfig, SimulatedPmu};
    use scnn_nn::models;
    use scnn_uarch::{CoreConfig, NoiseConfig};

    fn tiny_setup() -> (Network, Dataset, SimulatedPmu) {
        let ds = generate(
            &MnistSynthConfig {
                per_class: 4,
                side: 10,
                ..MnistSynthConfig::default()
            },
            11,
        )
        .unwrap()
        .select_classes(&[0, 1]);
        let net = models::small_cnn(1, 10, 2, 3);
        let pmu = SimulatedPmu::new(
            SimPmuConfig {
                core: CoreConfig::tiny(),
                noise: NoiseConfig::quiet(),
                ..SimPmuConfig::default()
            },
            5,
        )
        .unwrap();
        (net, ds, pmu)
    }

    #[test]
    fn collects_requested_shape() {
        let (net, ds, mut pmu) = tiny_setup();
        let config = CollectionConfig {
            samples_per_category: 6,
            ..CollectionConfig::default()
        };
        let mut net = net;
        let obs = collect(&mut net, &ds, &mut pmu, &config).unwrap();
        assert_eq!(obs.len(), 2);
        for (c, o) in obs.iter().enumerate() {
            assert_eq!(o.category, c);
            assert_eq!(o.len(), 6);
            assert_eq!(o.series(HpcEvent::CacheMisses).unwrap().len(), 6);
            assert_eq!(o.series(HpcEvent::Branches).unwrap().len(), 6);
            assert!(o.series(HpcEvent::Cycles).is_none());
        }
    }

    #[test]
    fn images_cycle_when_scarce() {
        let (net, ds, mut pmu) = tiny_setup();
        // 4 images per class, 9 samples requested: wraps around.
        let config = CollectionConfig {
            samples_per_category: 9,
            ..CollectionConfig::default()
        };
        let mut net = net;
        let obs = collect(&mut net, &ds, &mut pmu, &config).unwrap();
        assert_eq!(obs[0].len(), 9);
        // Under a quiet PMU, measurement i and i+4 are the same image and
        // must give identical cache-miss counts.
        let series = obs[0].series(HpcEvent::CacheMisses).unwrap();
        assert_eq!(series[0], series[4]);
        assert_eq!(series[1], series[5]);
    }

    #[test]
    fn values_are_classification_scale() {
        let (net, ds, mut pmu) = tiny_setup();
        let config = CollectionConfig {
            events: vec![HpcEvent::Instructions],
            samples_per_category: 2,
            ..CollectionConfig::default()
        };
        let mut net = net;
        let obs = collect(&mut net, &ds, &mut pmu, &config).unwrap();
        for o in &obs {
            for &v in o.series(HpcEvent::Instructions).unwrap() {
                assert!(
                    v > 1_000.0,
                    "a CNN inference retires many instructions: {v}"
                );
            }
        }
    }

    #[test]
    fn campaign_bit_identical_across_thread_counts() {
        let run = |threads: Threads| {
            let (net, ds, _) = tiny_setup();
            let config = CollectionConfig {
                samples_per_category: 5,
                threads,
                ..CollectionConfig::default()
            };
            collect_campaign(
                |_| net.clone(),
                &ds,
                |c| {
                    SimulatedPmu::new(
                        SimPmuConfig {
                            core: CoreConfig::tiny(),
                            ..SimPmuConfig::default()
                        },
                        category_seed(5, c),
                    )
                },
                &config,
            )
            .unwrap()
        };
        let seq = run(Threads::Count(1));
        assert_eq!(seq.len(), 2);
        assert_eq!(seq, run(Threads::Count(2)));
        assert_eq!(seq, run(Threads::Count(4)));
    }

    #[test]
    fn selected_subset_matches_full_campaign_slice() {
        use std::sync::Mutex;
        let (net, ds, _) = tiny_setup();
        let config = CollectionConfig {
            samples_per_category: 4,
            threads: Threads::Count(2),
            ..CollectionConfig::default()
        };
        let make_pmu = |c: usize| {
            SimulatedPmu::new(
                SimPmuConfig {
                    core: CoreConfig::tiny(),
                    ..SimPmuConfig::default()
                },
                category_seed(7, c),
            )
        };
        let full = collect_campaign(|_| net.clone(), &ds, make_pmu, &config).unwrap();

        let seen = Mutex::new(Vec::new());
        let only_one = collect_selected(
            |_| net.clone(),
            &ds,
            make_pmu,
            &config,
            &[1],
            |obs: &CategoryObservations| seen.lock().unwrap().push(obs.category),
        )
        .unwrap();
        assert_eq!(only_one.len(), 1);
        assert_eq!(only_one[0], full[1]);
        assert_eq!(*seen.lock().unwrap(), vec![1]);
    }

    #[test]
    fn campaign_threads_one_matches_manual_sequential_loop() {
        let (net, ds, _) = tiny_setup();
        let config = CollectionConfig {
            samples_per_category: 4,
            threads: Threads::Count(1),
            ..CollectionConfig::default()
        };
        let make_pmu = |c: usize| {
            SimulatedPmu::new(
                SimPmuConfig {
                    core: CoreConfig::tiny(),
                    ..SimPmuConfig::default()
                },
                category_seed(9, c),
            )
        };
        let campaign = collect_campaign(|_| net.clone(), &ds, make_pmu, &config).unwrap();

        let group = CounterGroup::new(config.events.clone(), config.hw_counters).unwrap();
        let mut manual = Vec::new();
        for c in 0..ds.num_classes() {
            let mut n = net.clone();
            let mut pmu = make_pmu(c).unwrap();
            manual.push(collect_category(&mut n, &ds, &mut pmu, &group, &config, c).unwrap());
        }
        assert_eq!(campaign, manual);
    }

    #[test]
    fn category_seed_is_pure_and_spreads() {
        assert_eq!(category_seed(42, 3), category_seed(42, 3));
        assert_ne!(category_seed(42, 0), category_seed(42, 1));
        assert_ne!(category_seed(42, 0), category_seed(43, 0));
    }

    #[test]
    fn campaign_reports_lowest_failing_category() {
        let (net, ds, _) = tiny_setup();
        // Classes {0,1} exist; a 3-class dataset leaves category 2 empty.
        let mut images = Vec::new();
        let mut labels = Vec::new();
        for (img, l) in ds.iter() {
            images.push(img.clone());
            labels.push(l);
        }
        let ds3 = Dataset::new(images, labels, 3).unwrap();
        let err = collect_campaign(
            |_| net.clone(),
            &ds3,
            |c| {
                SimulatedPmu::new(
                    SimPmuConfig {
                        core: CoreConfig::tiny(),
                        ..SimPmuConfig::default()
                    },
                    category_seed(1, c),
                )
            },
            &CollectionConfig {
                threads: Threads::Count(3),
                ..CollectionConfig::default()
            },
        );
        assert!(matches!(
            err,
            Err(CollectError::EmptyCategory { category: 2 })
        ));
    }

    #[test]
    fn empty_dataset_errors() {
        let (net, _, mut pmu) = tiny_setup();
        let empty = Dataset::new(vec![], vec![], 2).unwrap();
        let mut net = net;
        assert!(matches!(
            collect(&mut net, &empty, &mut pmu, &CollectionConfig::default()),
            Err(CollectError::EmptyDataset)
        ));
    }

    #[test]
    fn missing_category_errors() {
        let (net, ds, mut pmu) = tiny_setup();
        // Classes {0,1} exist; construct a 3-class dataset reusing them.
        let mut images = Vec::new();
        let mut labels = Vec::new();
        for (img, l) in ds.iter() {
            images.push(img.clone());
            labels.push(l);
        }
        let ds3 = Dataset::new(images, labels, 3).unwrap();
        let mut net = net;
        assert!(matches!(
            collect(&mut net, &ds3, &mut pmu, &CollectionConfig::default()),
            Err(CollectError::EmptyCategory { category: 2 })
        ));
    }
}
