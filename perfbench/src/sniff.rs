//! `sniff_batch`: the offline job behind the paper's tables.
//!
//! End to end, the release binary runs `sniff --store --verify` over 40
//! monitored hours, once per 15 s of `--seconds` (at least once), and
//! each metric is the median over those runs. Set-up ends at its `phase 3` log line. Precision and recall
//! come from what the binary prints and stores: its predicted-spam count,
//! its accuracy against the oracle sidecar stored with each record
//! (printed to 0.01 %), and the sidecar count read back from the store.
//! That fixes the true positives to within the accuracy's rounding.
//!
//! The traced re-drive repeats the same pipeline in-process through the
//! layers' public functions. Its Table III, counts, PGE ranking and
//! oracle check must reproduce the binary's standard output byte for
//! byte, and its exact true positives must fall inside the rounding
//! window of the reconstructed ones.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use ph_core::labeling::pipeline::format_table3;
use ph_core::monitor::{CollectedTweet, MonitorReport, RunState};
use ph_core::pge::pge_ranking_with_min;
use ph_store::{Store, StoreConfig};

use crate::layers::{train, Layers, TimedSink, Trained};
use crate::proc::{text, Proc};
use crate::{dir_bytes, exec, manifest, manifest_args, quantile, Outcome};

/// Monitored hours of the reference run.
const HOURS: u64 = 40;

/// `--seconds` buys one binary run per this many seconds (at least one):
/// a fixed count, so a slow host measures the same work, not less.
const SECONDS_PER_RUN: u64 = 15;

/// Longest one binary run may take before it is killed.
const RUN_LIMIT: Duration = Duration::from_secs(120);

struct BinaryRun {
    store: String,
    setup_s: f64,
    wall_s: f64,
    peak_rss_mb: f64,
    cpu_s: f64,
    stdout: String,
}

/// Verdict counts of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Scores {
    /// Tweets classified.
    verdicts: u64,
    /// Tweets classified spam.
    predicted: u64,
    /// Tweets whose stored oracle sidecar says spam.
    actual: u64,
    /// Tweets classified spam that are spam.
    true_pos: f64,
}

impl Scores {
    fn precision(&self) -> f64 {
        self.true_pos / self.predicted.max(1) as f64
    }

    fn recall(&self) -> f64 {
        self.true_pos / self.actual.max(1) as f64
    }
}

/// The number after `prefix` on the first line starting with it.
fn printed(stdout: &str, prefix: &str) -> Option<f64> {
    let line = stdout.lines().find_map(|l| l.strip_prefix(prefix))?;
    line.split([' ', '%']).next()?.parse().ok()
}

/// Reconstructs the run's confusion counts from its output and store:
/// accuracy·N = TP + TN and TN = N − predicted − actual + TP.
fn scores(run: &BinaryRun) -> io::Result<Scores> {
    let parse = |prefix| {
        printed(&run.stdout, prefix)
            .ok_or_else(|| io::Error::other(format!("sniff printed no '{prefix}' line")))
    };
    let verdicts = parse("collected ")? as u64;
    let predicted = parse("classified ")? as u64;
    let accuracy = parse("oracle check (stored sidecar): ")? / 100.0;
    let store = Store::open_resume(Path::new(&run.store), StoreConfig::default())?.store;
    let mut actual = 0;
    let mut stored = 0;
    for record in store.reader()? {
        stored += 1;
        actual += u64::from(record?.tweet.evaluation_sidecar_spam());
    }
    if stored != verdicts {
        return Err(io::Error::other(format!(
            "sniff printed {verdicts} collected tweets but stored {stored}"
        )));
    }
    let correct = accuracy * verdicts as f64;
    let true_pos = ((correct - verdicts as f64 + (predicted + actual) as f64) / 2.0).round();
    Ok(Scores {
        verdicts,
        predicted,
        actual,
        true_pos: true_pos.max(0.0),
    })
}

/// Runs the workload. `Err` means the harness itself could not run.
pub fn run(bin: &Path, work: &Path, seed: u64, seconds: u64, trace: bool) -> io::Result<Outcome> {
    let m = manifest(seed, HOURS);
    let mut out = Outcome::default();
    let mut runs: Vec<BinaryRun> = Vec::new();
    for i in 0..(seconds / SECONDS_PER_RUN).max(1) {
        let store = work.join(format!("sniff{i}"));
        let store = store.to_string_lossy().into_owned();
        let mut args = vec!["sniff".to_string(), "--store".to_string(), store.clone()];
        args.extend(manifest_args(&m));
        args.push("--verify".to_string());
        let child = Proc::spawn(bin, &args, Path::new("."))?;
        let deadline = child.started + RUN_LIMIT;
        let ready = child.wait_stderr("phase 3", deadline);
        let spawned = child.started;
        let (exit, stdout, stderr) = child.finish(deadline)?;
        let Some(ready) = ready.filter(|_| exit.ok()) else {
            out.attempted = 1;
            out.failed = 1;
            out.problem(format!(
                "sniff exited with {:?}: {}",
                exit.code,
                text(&stderr).lines().last().unwrap_or("")
            ));
            return Ok(out);
        };
        runs.push(BinaryRun {
            store,
            setup_s: (ready - spawned).as_secs_f64(),
            wall_s: (exit.at - spawned).as_secs_f64(),
            peak_rss_mb: exit.peak_rss_mb,
            cpu_s: exit.cpu_s,
            stdout: text(&stdout),
        });
    }

    // Runs of one seed must agree with each other.
    let scored: io::Result<Vec<Scores>> = runs.iter().map(scores).collect();
    let scored = match scored {
        Ok(scored) => scored,
        Err(e) => {
            out.attempted = 1;
            out.failed = 1;
            out.problem(format!("sniff output: {e}"));
            return Ok(out);
        }
    };
    let first = scored[0];
    out.attempted = first.verdicts * runs.len() as u64;
    for (run, score) in runs.iter().zip(&scored).skip(1) {
        if *score != first {
            out.failed += first.verdicts;
            out.problem(format!(
                "sniff into {} disagrees with the first run",
                run.store
            ));
        }
    }

    let pick = |f: fn(&BinaryRun) -> f64| runs.iter().map(f).collect::<Vec<f64>>();
    let setup = pick(|r| r.setup_s);
    let wall = pick(|r| r.wall_s);
    // Batch verdicts all become readable at exit: the phase-3 span (set-up
    // done → exit) is the lag of every monitored hour.
    let lag_ms = pick(|r| (r.wall_s - r.setup_s) * 1e3);
    let tps: Vec<f64> = runs
        .iter()
        .map(|r| first.verdicts as f64 / (r.wall_s - r.setup_s))
        .collect();
    let (setup_s, wall_s) = (quantile(&setup, 0.5), quantile(&wall, 0.5));

    if trace {
        let traced_start = Instant::now();
        let (expected, verdicts) = redrive(&mut out.layers, work, seed)?;
        let traced_wall = traced_start.elapsed().as_secs_f64();
        // Every binary run must print exactly what the re-drive computed;
        // only the store path differs between them.
        for run in &runs {
            let expected = expected.stdout(&run.store);
            if run.stdout != expected {
                out.failed += first.verdicts;
                out.problem(format!(
                    "sniff output for {} differs from the re-drive:\n--- binary\n{}--- re-drive\n{}",
                    run.store, run.stdout, expected
                ));
            }
        }
        let true_pos = verdicts
            .iter()
            .filter(|(c, spam)| *spam && c.tweet.evaluation_sidecar_spam())
            .count() as f64;
        // The printed accuracy is rounded to 0.01 %, which leaves the
        // correct count uncertain by half a step and the true positives by
        // half that again, plus the rounding of the reconstruction.
        let window = (first.verdicts as f64 * 0.25e-4 + 0.5).ceil();
        if (true_pos - first.true_pos).abs() > window {
            out.problem(format!(
                "reconstructed true positives {} are not within {window} of the exact {true_pos}",
                first.true_pos
            ));
        }
        out.traced = Some((traced_wall, wall_s));
        out.notes.push(format!(
            "exact true positives {true_pos} (reconstructed {}); setup layers sum to {:.3} s against setup_s {:.3} s",
            first.true_pos,
            crate::SETUP_LAYERS.iter().map(|l| out.layers.total(l)).sum::<f64>(),
            setup_s
        ));
    }

    out.e2e = vec![
        ("setup_s", setup_s),
        ("wall_s", wall_s),
        ("verdict_tps", quantile(&tps, 0.5)),
        ("lag_p50_ms", quantile(&lag_ms, 0.5)),
        ("lag_p90_ms", quantile(&lag_ms, 0.9)),
        ("peak_rss_mb", quantile(&pick(|r| r.peak_rss_mb), 0.5)),
        ("precision", first.precision()),
        ("recall", first.recall()),
    ];
    out.cpu_s = quantile(&pick(|r| r.cpu_s), 0.5);
    out.notes.push(format!(
        "{} binary run(s); {} verdicts each",
        runs.len(),
        first.verdicts
    ));
    Ok(out)
}

/// The standard output `sniff --store` must print.
struct Expected {
    /// Everything before the closing store line.
    head: String,
    records: u64,
    hours: u64,
    /// The `--verify` oracle line.
    oracle: String,
}

impl Expected {
    /// The full output for a run that stored into `store`.
    fn stdout(&self, store: &str) -> String {
        format!(
            "{}\nstore: {} records in {store} ({} h checkpointed)\n{}",
            self.head, self.records, self.hours, self.oracle
        )
    }
}

/// The traced in-process twin of `sniff --store`: returns the expected
/// standard output and each collected tweet with its verdict.
fn redrive(
    layers: &mut Layers,
    work: &Path,
    seed: u64,
) -> io::Result<(Expected, Vec<(CollectedTweet, bool)>)> {
    let m = manifest(seed, HOURS);
    let exec = exec();
    let Trained {
        mut engine,
        runner,
        detector,
        summary,
    } = train(layers, &m, &exec);
    let dir = work.join("redrive");
    let mut store = Store::create(&dir, m, StoreConfig::default())?;
    let mut state = RunState::default();
    let mut report = MonitorReport::default();
    let segment = {
        let mut writer = store.writer(&report);
        let mut sink = TimedSink::new(&mut writer);
        let start = Instant::now();
        let segment = runner.run_segment(
            &mut engine,
            &mut state,
            m.hours,
            u64::MAX,
            runner.standard_networks(),
            &mut sink,
        )?;
        layers.add(
            "monitor.sniff_run",
            start.elapsed().as_secs_f64() - sink.spent(),
        );
        sink.record(layers);
        segment
    };
    report.merge(&segment);
    layers.time("store.checkpoint", || store.sync())?;
    report.collected = layers.time("store.read", || {
        store.reader()?.collect::<io::Result<Vec<CollectedTweet>>>()
    })?;
    let outcome = layers.time("detect.classify_batch", || {
        detector.classify_batch(&report.collected, &engine, &exec)
    });
    layers.set(
        "store.bytes",
        dir_bytes(&dir, &["segment-", "checkpoints"]) as f64,
    );
    layers.time("store.write_telemetry", || {
        let journal = ph_telemetry::journal_snapshot();
        let points = ph_telemetry::run_series_points(m.hours.saturating_sub(1));
        store.write_telemetry(&journal, &points)
    })?;

    let mut head = String::new();
    let _ = writeln!(head, "== sniffing campaign ==");
    let _ = writeln!(head, "{}", format_table3(&summary));
    let _ = writeln!(
        head,
        "collected {} tweets from {} accounts",
        report.collected.len(),
        report.unique_authors()
    );
    let _ = writeln!(
        head,
        "classified {} spams from {} spammer accounts",
        outcome.num_spam(),
        outcome.num_spammers()
    );
    let _ = writeln!(head, "\ntop attributes by PGE:");
    let ranking = pge_ranking_with_min(&report, &outcome.predictions, m.hours as f64 * 2.0);
    for entry in ranking.iter().take(5) {
        let _ = writeln!(
            head,
            "  {:<44} PGE {:.4} ({} spammers)",
            entry.slot.describe(),
            entry.pge,
            entry.spammers
        );
    }
    let correct = report
        .collected
        .iter()
        .zip(&outcome.predictions)
        .filter(|(c, &p)| p == c.tweet.evaluation_sidecar_spam())
        .count();
    let expected = Expected {
        head,
        records: store.record_count(),
        hours: state.next_hour,
        oracle: format!(
            "\noracle check (stored sidecar): {:.2}% of verdicts correct\n",
            100.0 * correct as f64 / report.collected.len().max(1) as f64
        ),
    };
    let verdicts = report
        .collected
        .into_iter()
        .zip(outcome.predictions)
        .collect();
    Ok((expected, verdicts))
}
