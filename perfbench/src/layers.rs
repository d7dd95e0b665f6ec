//! Per-layer timing for the traced re-drives.
//!
//! Spans are recorded here, in the benchmark, around calls into each
//! layer's public functions; the program itself carries no extra
//! instrumentation. Every recorded time is a *self* time: where one
//! layer calls into another (the monitor into the store sink), the inner
//! time is subtracted from the outer, so the totals add up to the traced
//! wall clock minus an explicit residual.

use std::collections::BTreeMap;
use std::io;
use std::time::Instant;

use ph_core::detector::{build_training_data_with, DetectorConfig, SpamDetector};
use ph_core::features::DEFAULT_TAU;
use ph_core::labeling::pipeline::PipelineConfig;
use ph_core::labeling::{clustering, manual, rules, suspended, LabeledCollection, LabelingSummary};
use ph_core::monitor::{
    CollectedTweet, MonitorReport, MonitorSink, RunState, Runner, RunnerConfig,
};
use ph_exec::ExecConfig;
use ph_store::Manifest;
use ph_twitter_sim::engine::{Engine, SimConfig};

/// Layer times (seconds), per-hour samples of hourly calls, and counts.
#[derive(Default)]
pub struct Layers {
    totals: BTreeMap<&'static str, f64>,
    hourly: BTreeMap<&'static str, Vec<f64>>,
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Runs `f`, adding its wall time to layer `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(name, start.elapsed().as_secs_f64());
        out
    }

    /// Runs one hourly call `f`, timing it as [`Layers::add_hour`] does.
    pub fn time_hour<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add_hour(name, start.elapsed().as_secs_f64());
        out
    }

    /// Adds `secs` of self time to layer `name`.
    pub fn add(&mut self, name: &'static str, secs: f64) {
        *self.totals.entry(name).or_default() += secs;
    }

    /// Adds one hourly call of `secs` to layer `name`, keeping the sample
    /// for the per-hour quantiles.
    pub fn add_hour(&mut self, name: &'static str, secs: f64) {
        self.add(name, secs);
        self.hourly.entry(name).or_default().push(secs);
    }

    /// Records a count or ratio.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Sum of every layer's self time.
    pub fn busy_s(&self) -> f64 {
        self.totals.values().sum()
    }

    /// A layer's total self time (0 when the layer never ran).
    pub fn total(&self, name: &str) -> f64 {
        self.totals.get(name).copied().unwrap_or(0.0)
    }

    /// The `p`-quantile of a layer's per-hour times, in milliseconds.
    pub fn hour_quantile_ms(&self, name: &str, p: f64) -> f64 {
        self.hourly
            .get(name)
            .map_or(0.0, |samples| crate::quantile(samples, p) * 1e3)
    }

    /// A recorded count or ratio (0 when never recorded).
    pub fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

/// Wraps the durable store sink and times its two calls: the hourly
/// batch append and the hourly checkpoint.
pub struct TimedSink<'a, S: MonitorSink> {
    inner: &'a mut S,
    /// Seconds in `on_batch`, one sample per call.
    pub append: Vec<f64>,
    /// Seconds in `on_hour`, one sample per call.
    pub checkpoint: Vec<f64>,
}

impl<'a, S: MonitorSink> TimedSink<'a, S> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut S) -> Self {
        Self {
            inner,
            append: Vec::new(),
            checkpoint: Vec::new(),
        }
    }

    /// Seconds spent inside the wrapped sink so far.
    pub fn spent(&self) -> f64 {
        self.append.iter().chain(&self.checkpoint).sum()
    }

    /// Moves the samples into `layers` as `store.append` and
    /// `store.checkpoint`.
    pub fn record(self, layers: &mut Layers) {
        for secs in self.append {
            layers.add_hour("store.append", secs);
        }
        for secs in self.checkpoint {
            layers.add_hour("store.checkpoint", secs);
        }
    }
}

impl<S: MonitorSink> MonitorSink for TimedSink<'_, S> {
    fn on_tweet(&mut self, collected: &CollectedTweet) -> io::Result<()> {
        self.inner.on_tweet(collected)
    }

    fn on_batch(&mut self, batch: &[CollectedTweet]) -> io::Result<()> {
        let start = Instant::now();
        let out = self.inner.on_batch(batch);
        self.append.push(start.elapsed().as_secs_f64());
        out
    }

    fn on_hour(&mut self, state: &RunState, segment: &MonitorReport) -> io::Result<()> {
        let start = Instant::now();
        let out = self.inner.on_hour(state, segment);
        self.checkpoint.push(start.elapsed().as_secs_f64());
        out
    }

    fn retain_in_memory(&self) -> bool {
        self.inner.retain_in_memory()
    }
}

/// The engine a manifest describes, exactly as the CLI builds it.
pub fn engine_for(manifest: &Manifest) -> Engine {
    Engine::new(SimConfig {
        seed: manifest.sim_seed,
        num_organic: manifest.organic as usize,
        num_campaigns: manifest.campaigns as usize,
        accounts_per_campaign: manifest.per_campaign as usize,
        drift: manifest.drift_schedule(),
        ..Default::default()
    })
}

/// The monitoring runner a manifest describes, exactly as the CLI
/// builds it.
pub fn runner_for(manifest: &Manifest, exec: &ExecConfig) -> Runner {
    Runner::with_exec(
        RunnerConfig {
            seed: manifest.runner_seed,
            buffer_capacity: manifest.buffer_capacity as usize,
            ..Default::default()
        },
        exec.clone(),
    )
}

/// What the set-up phases leave behind.
pub struct Trained {
    /// The engine, stepped to the end of the ground-truth window.
    pub engine: Engine,
    /// The monitoring runner.
    pub runner: Runner,
    /// The trained detector.
    pub detector: SpamDetector,
    /// The Table III summary of the ground-truth labeling.
    pub summary: LabelingSummary,
}

/// Phases 1–2 of every workload — engine build, ground-truth
/// monitoring, the four labeling passes, training-feature extraction,
/// and Random-Forest training — with each layer timed.
pub fn train(layers: &mut Layers, manifest: &Manifest, exec: &ExecConfig) -> Trained {
    let mut engine = layers.time("sim.build", || engine_for(manifest));
    let runner = runner_for(manifest, exec);
    let report = layers.time("monitor.gt_run", || {
        runner.run(&mut engine, manifest.gt_hours)
    });
    let collected = &report.collected;
    let config = PipelineConfig::default();
    let mut labels = LabeledCollection {
        tweet_labels: vec![None; collected.len()],
        ..Default::default()
    };
    let rest = engine.rest();
    layers.time("label.suspended", || {
        suspended::apply(collected, &rest, &mut labels);
    });
    layers.time("label.clustering", || {
        clustering::apply_with(collected, &rest, &config.clustering, exec, &mut labels);
    });
    layers.time("label.rules", || {
        rules::apply(collected, &rest, &config.rules, &mut labels);
    });
    layers.time("label.manual", || {
        manual::apply(
            collected,
            &engine.ground_truth(),
            &config.manual,
            &mut labels,
        );
    });
    let labeled = labels.tweet_labels.iter().filter(|l| l.is_some()).count();
    layers.set(
        "label.yield",
        labeled as f64 / collected.len().max(1) as f64,
    );
    let summary = LabelingSummary::from_labels(&labels, collected.len());
    let (data, _) = layers.time("features.training", || {
        build_training_data_with(collected, &labels, &engine, DEFAULT_TAU, exec)
    });
    layers.set("features.rows", data.len() as f64);
    let detector = layers.time("ml.train", || {
        SpamDetector::train(&DetectorConfig::default(), &data)
    });
    Trained {
        engine,
        runner,
        detector,
        summary,
    }
}
