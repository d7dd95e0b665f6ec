//! `serve_stream` and `serve_explain`: the `serve` daemon fed over its
//! Unix ingest socket by this process.
//!
//! The firehose is generated from the seed and encoded into wire frames
//! before the daemon starts, with the oracle labels kept here. A
//! second monitor run over the same firehose gives each hour's expected
//! verdicts, so the harness knows when an hour is fully readable and
//! which tweets must appear.
//!
//! Two phases share one connection:
//!
//! - **paced**: an open loop at [`PACED_RATE`] tweets/s for
//!   [`PACED_HOURS`] hours. An hour's lag runs from when its boundary
//!   frame was *due* to when its last verdict line can be read.
//! - **saturation**: a closed loop with at most two hours in flight for
//!   [`SATURATION_HOURS`] hours; verdicts per second over the phase is
//!   the capacity.
//!
//! The traced re-drive replays the daemon's hour loop in-process over the
//! same frames and must write a byte-identical verdict stream.

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ph_core::detector::StreamClassifier;
use ph_core::monitor::{CollectedTweet, MonitorReport, MonitorSink, RunState, StreamMonitor};
use ph_exec::ExecConfig;
use ph_serve::queue::IngestQueue;
use ph_serve::verdict::VerdictWriter;
use ph_store::{Manifest, Store, StoreConfig};
use ph_twitter_sim::tweet::Tweet;
use ph_twitter_sim::wire::{encode_stream_frame, read_stream_frame, StreamFrame};

use crate::layers::{engine_for, runner_for, train, Layers, TimedSink, Trained};
use crate::proc::{text, Proc};
use crate::{dir_bytes, exec, manifest, manifest_args, quantile, Outcome};

/// Hours of the paced phase: the lag p90 has 15 samples beyond it, which
/// keeps it steady against the host's short stalls.
const PACED_HOURS: usize = 150;

/// Hours of the saturation phase.
const SATURATION_HOURS: usize = 40;

/// Paced arrival rate in tweets per second: about half of what
/// `serve --explain` sustains, so both workloads keep up and lag
/// measures per-hour service time, not backlog.
const PACED_RATE: f64 = 6_500.0;

/// Shortest sleep of the paced sender; frames that fall due meanwhile
/// go out in one write, and their lateness is recorded.
const MIN_SLEEP: Duration = Duration::from_millis(1);

/// How long the daemon may take from spawn to exit before it is killed.
const RUN_LIMIT: Duration = Duration::from_secs(120);

/// One generated hour.
struct Hour {
    /// Encoded tweet frames followed by the hour-boundary frame.
    bytes: Vec<u8>,
    /// Byte offset just past each tweet frame.
    ends: Vec<usize>,
    /// Tweets delivered this hour.
    delivered: usize,
    /// `(absolute hour, tweet id)` of each expected verdict, in order.
    expected: Vec<(u64, u64)>,
}

/// The whole generated run.
struct Plan {
    hours: Vec<Hour>,
    /// Oracle label of every generated tweet.
    truth: HashMap<u64, bool>,
}

/// A monitor sink that keeps nothing: the generator only needs the
/// categorized batches `finish_hour` returns.
struct Discard;

impl MonitorSink for Discard {
    fn on_tweet(&mut self, _collected: &CollectedTweet) -> io::Result<()> {
        Ok(())
    }

    fn on_hour(&mut self, _state: &RunState, _segment: &MonitorReport) -> io::Result<()> {
        Ok(())
    }

    fn retain_in_memory(&self) -> bool {
        false
    }
}

/// Generates the firehose the `feed` producer would send, plus the
/// verdicts the daemon must write for it.
fn generate(m: &Manifest) -> io::Result<Plan> {
    let mut engine = engine_for(m);
    engine.run_hours(m.gt_hours);
    let streaming = engine.streaming();
    let tap = streaming.firehose_with_capacity(m.buffer_capacity as usize);
    let mut monitor = StreamMonitor::new(runner_for(m, &ExecConfig::sequential()), m.hours);
    let mut plan = Plan {
        hours: Vec::new(),
        truth: HashMap::new(),
    };
    for hour in 0..m.hours {
        monitor.begin_hour(&mut engine);
        let tweets = streaming.poll(tap).map_err(io::Error::other)?;
        let oracle = engine.ground_truth();
        let mut bytes = Vec::new();
        let mut ends = Vec::with_capacity(tweets.len());
        for tweet in &tweets {
            plan.truth.insert(tweet.id.0, oracle.is_spam(tweet));
            bytes.extend(encode_stream_frame(&StreamFrame::Tweet(tweet.clone())));
            ends.push(bytes.len());
        }
        bytes.extend(encode_stream_frame(&StreamFrame::HourBoundary { hour }));
        let delivered = tweets.len();
        let batch = monitor.finish_hour(tweets, 0, &mut Discard)?;
        plan.hours.push(Hour {
            bytes,
            ends,
            delivered,
            expected: batch.iter().map(|c| (c.hour, c.tweet.id.0)).collect(),
        });
    }
    streaming.close(tap);
    Ok(plan)
}

/// Hours whose verdicts are fully readable, and when each became so.
struct Progress {
    done: AtomicUsize,
    at: Mutex<Vec<Instant>>,
    stop: AtomicBool,
}

/// Tails the verdict stream, stamping the moment each hour's cumulative
/// verdict count is reached.
fn watch(mut file: File, cumulative: Vec<usize>, progress: Arc<Progress>) -> io::Result<()> {
    let mut buf = vec![0u8; 1 << 20];
    let mut lines = 0usize;
    while progress.done.load(Ordering::SeqCst) < cumulative.len() {
        let n = file.read(&mut buf)?;
        if n == 0 {
            if progress.stop.load(Ordering::SeqCst) {
                break;
            }
            std::thread::sleep(Duration::from_micros(500));
            continue;
        }
        let now = Instant::now();
        lines += buf[..n].iter().filter(|&&b| b == b'\n').count();
        let mut at = progress.at.lock().expect("progress lock poisoned");
        while at.len() < cumulative.len() && lines >= cumulative[at.len()] {
            at.push(now);
            progress.done.store(at.len(), Ordering::SeqCst);
        }
    }
    Ok(())
}

/// What the sender measured.
struct Sent {
    /// Due time of each paced hour's boundary frame.
    boundary_due: Vec<Instant>,
    /// How late each paced frame left, in seconds.
    late: Vec<f64>,
    /// When the saturation phase started.
    saturation_start: Instant,
}

/// Blocks until `n` hours are readable, the deadline passes, or the
/// watcher stops.
fn wait_done(progress: &Progress, n: usize, deadline: Instant) -> io::Result<()> {
    while progress.done.load(Ordering::SeqCst) < n {
        if Instant::now() >= deadline || progress.stop.load(Ordering::SeqCst) {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!(
                    "only {} of {n} hours became readable",
                    progress.done.load(Ordering::SeqCst)
                ),
            ));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok(())
}

/// Sends the paced phase on schedule, then the saturation phase closed
/// loop.
fn send(
    sock: &mut UnixStream,
    plan: &Plan,
    progress: &Progress,
    deadline: Instant,
) -> io::Result<Sent> {
    let spacing = 1.0 / PACED_RATE;
    let start = Instant::now();
    let mut boundary_due = Vec::with_capacity(PACED_HOURS);
    let mut late = Vec::new();
    let mut sent_tweets = 0u64;
    for hour in &plan.hours[..PACED_HOURS] {
        // Bytes of this hour already written, and bytes whose frames are
        // due. Frame `i` is tweet `i`, or the boundary when `i` is the
        // tweet count; the boundary falls due when the next tweet would.
        let (mut written, mut ready) = (0, 0);
        for i in 0..=hour.ends.len() {
            let due = start + Duration::from_secs_f64(sent_tweets as f64 * spacing);
            let mut now = Instant::now();
            if due > now {
                sock.write_all(&hour.bytes[written..ready])?;
                written = ready;
                std::thread::sleep((due - now).max(MIN_SLEEP));
                now = Instant::now();
            }
            late.push(now.saturating_duration_since(due).as_secs_f64());
            if let Some(&end) = hour.ends.get(i) {
                ready = end;
                sent_tweets += 1;
            } else {
                ready = hour.bytes.len();
                boundary_due.push(due);
            }
        }
        sock.write_all(&hour.bytes[written..ready])?;
    }
    wait_done(progress, PACED_HOURS, deadline)?;
    let saturation_start = Instant::now();
    for (h, hour) in plan.hours.iter().enumerate().skip(PACED_HOURS) {
        wait_done(progress, h - 1, deadline)?;
        sock.write_all(&hour.bytes)?;
    }
    Ok(Sent {
        boundary_due,
        late,
        saturation_start,
    })
}

/// Runs one workload. `Err` means the harness itself could not run.
pub fn run(bin: &Path, work: &Path, seed: u64, trace: bool, explain: bool) -> io::Result<Outcome> {
    let total = PACED_HOURS + SATURATION_HOURS;
    let m = manifest(seed, total as u64);
    let plan = generate(&m)?;
    let mut out = Outcome {
        attempted: plan.hours.iter().map(|h| h.delivered as u64).sum(),
        ..Outcome::default()
    };

    let store = work.join("serve");
    let sock_path = work.join("ingest.sock");
    let mut args = vec![
        "serve".to_string(),
        "--store".to_string(),
        store.to_string_lossy().into_owned(),
        "--listen".to_string(),
        sock_path.to_string_lossy().into_owned(),
        "--http".to_string(),
        "none".to_string(),
    ];
    args.extend(manifest_args(&m));
    if explain {
        args.push("--explain".to_string());
    }
    let mut child = Proc::spawn(bin, &args, Path::new("."))?;
    let spawned = child.started;
    let deadline = spawned + RUN_LIMIT;

    // Set-up ends when the daemon publishes its endpoints.
    let endpoints = store.join(ph_serve::daemon::ENDPOINTS_FILE);
    let ready = loop {
        if std::fs::read_to_string(&endpoints).is_ok_and(|s| s.contains("\nhttp=")) {
            break Instant::now();
        }
        if child.try_reap()?.is_some() || Instant::now() >= deadline {
            let (exit, _, stderr) = child.finish(deadline)?;
            out.failed = out.attempted;
            out.problem(format!(
                "serve exited during set-up with {:?}: {}",
                exit.code,
                text(&stderr).lines().last().unwrap_or("")
            ));
            return Ok(out);
        }
        std::thread::sleep(Duration::from_millis(1));
    };

    let cumulative: Vec<usize> = plan
        .hours
        .iter()
        .scan(0, |sum, h| {
            *sum += h.expected.len();
            Some(*sum)
        })
        .collect();
    let verdict_path = store.join("verdicts.ndjson");
    let progress = Arc::new(Progress {
        done: AtomicUsize::new(0),
        at: Mutex::new(Vec::new()),
        stop: AtomicBool::new(false),
    });
    let watcher = {
        let file = File::open(&verdict_path)?;
        let progress = Arc::clone(&progress);
        std::thread::spawn(move || {
            let result = watch(file, cumulative, Arc::clone(&progress));
            progress.stop.store(true, Ordering::SeqCst);
            result
        })
    };
    let sent = UnixStream::connect(&sock_path).and_then(|mut sock| {
        let sent = send(&mut sock, &plan, &progress, deadline);
        // Closing the connection lets the daemon's reader finish; every
        // byte written is still delivered.
        drop(sock);
        let sent = sent?;
        wait_done(&progress, total, deadline)?;
        Ok(sent)
    });
    progress.stop.store(true, Ordering::SeqCst);
    let watched = watcher.join().expect("verdict watcher panicked");
    let (exit, stdout, stderr) = child.finish(deadline)?;
    let sent = match (sent, watched) {
        (Ok(sent), Ok(())) if exit.ok() => sent,
        (sent, watched) => {
            out.failed = out.attempted;
            out.problem(format!(
                "serve run failed (exit {:?}, send {:?}, watch {:?}): {}",
                exit.code,
                sent.err(),
                watched.err(),
                text(&stderr).lines().last().unwrap_or("")
            ));
            return Ok(out);
        }
    };
    let at = progress.at.lock().expect("progress lock poisoned").clone();

    match shed_count(&text(&stdout)) {
        Some(shed) => out.failed += shed,
        None => out.problem("serve printed no summary line".to_string()),
    }
    let (precision, recall) = check_verdicts(&mut out, &plan, &verdict_path)?;
    let lag_ms: Vec<f64> = at[..PACED_HOURS]
        .iter()
        .zip(&sent.boundary_due)
        .map(|(&readable, &due)| readable.saturating_duration_since(due).as_secs_f64() * 1e3)
        .collect();
    let saturation_verdicts = cumulative_len(&plan.hours[PACED_HOURS..]);
    let last = at[total - 1];
    let verdict_tps = saturation_verdicts as f64 / (last - sent.saturation_start).as_secs_f64();
    let setup_s = (ready - spawned).as_secs_f64();
    out.e2e = vec![
        ("setup_s", setup_s),
        ("wall_s", (exit.at - spawned).as_secs_f64()),
        ("verdict_tps", verdict_tps),
        ("lag_p50_ms", quantile(&lag_ms, 0.5)),
        ("lag_p90_ms", quantile(&lag_ms, 0.9)),
        ("peak_rss_mb", exit.peak_rss_mb),
        ("precision", precision),
        ("recall", recall),
    ];
    out.cpu_s = exit.cpu_s;
    out.gen_late_p99_ms = quantile(&sent.late, 0.99) * 1e3;
    out.notes.push(format!(
        "lag over {} paced hours at {PACED_RATE} tweets/s; saturation over {} hours; generator late p99 {:.3} ms",
        lag_ms.len(),
        SATURATION_HOURS,
        out.gen_late_p99_ms
    ));

    if trace {
        let traced_start = Instant::now();
        let redrive_path = redrive(&mut out.layers, work, &m, explain, &plan)?;
        let traced_wall = traced_start.elapsed().as_secs_f64();
        if std::fs::read(&redrive_path)? != std::fs::read(&verdict_path)? {
            out.problem(
                "the traced re-drive's verdict stream differs from the daemon's".to_string(),
            );
        }
        // The daemon idles between paced frames, so its busy wall is
        // estimated from its own saturation rate.
        let busy = setup_s
            + cumulative_len(&plan.hours) as f64 / verdict_tps
            + (exit.at - last).as_secs_f64();
        out.traced = Some((traced_wall, busy));
        out.notes.push(format!(
            "setup layers sum to {:.3} s against setup_s {setup_s:.3} s; daemon busy wall estimate {busy:.3} s",
            crate::SETUP_LAYERS.iter().map(|l| out.layers.total(l)).sum::<f64>()
        ));
    }
    Ok(out)
}

fn cumulative_len(hours: &[Hour]) -> usize {
    hours.iter().map(|h| h.expected.len()).sum()
}

/// The shed count from the daemon's `serve: … N shed` summary line.
fn shed_count(stdout: &str) -> Option<u64> {
    let line = stdout.lines().find(|l| l.starts_with("serve: "))?;
    line.strip_suffix(" shed")?.rsplit(' ').next()?.parse().ok()
}

/// The raw value of `"key":` in one NDJSON verdict line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(&rest[..end])
}

/// Checks the verdict stream line by line against the expected
/// `(seq, hour, tweet)` sequence, counting every missing, extra or
/// misplaced verdict as failed, and scores the verdicts against the
/// oracle.
fn check_verdicts(out: &mut Outcome, plan: &Plan, path: &Path) -> io::Result<(f64, f64)> {
    let content = std::fs::read_to_string(path)?;
    let expected: Vec<(u64, u64)> = plan
        .hours
        .iter()
        .flat_map(|h| h.expected.iter().copied())
        .collect();
    let (mut tp, mut fp, mut fneg) = (0u64, 0u64, 0u64);
    let mut bad = 0u64;
    let mut lines = 0usize;
    for (i, line) in content.lines().enumerate() {
        lines += 1;
        let num = |key| field(line, key).and_then(|v| v.parse::<u64>().ok());
        let tweet = num("tweet");
        if expected.get(i).copied() != tweet.and_then(|t| Some((num("hour")?, t)))
            || num("seq") != Some(i as u64)
        {
            bad += 1;
        }
        let spam = field(line, "spam") == Some("true");
        match (
            spam,
            tweet
                .and_then(|t| plan.truth.get(&t))
                .copied()
                .unwrap_or(false),
        ) {
            (true, true) => tp += 1,
            (true, false) => fp += 1,
            (false, true) => fneg += 1,
            (false, false) => {}
        }
    }
    let missing = expected.len().saturating_sub(lines) as u64;
    if bad + missing > 0 {
        out.failed += bad + missing;
        out.problem(format!(
            "{bad} verdict lines out of place, {missing} missing, of {} expected",
            expected.len()
        ));
    }
    Ok((
        tp as f64 / (tp + fp).max(1) as f64,
        tp as f64 / (tp + fneg).max(1) as f64,
    ))
}

/// Decodes one hour's frames the way the daemon's socket reader does.
fn decode(bytes: &[u8]) -> io::Result<Vec<StreamFrame>> {
    let mut reader = bytes;
    let mut frames = Vec::new();
    while let Some(frame) = read_stream_frame(&mut reader)? {
        frames.push(frame);
    }
    Ok(frames)
}

/// The traced in-process twin of the daemon's hour loop, over the same
/// frames. Returns the path of the verdict stream it wrote.
fn redrive(
    layers: &mut Layers,
    work: &Path,
    m: &Manifest,
    explain: bool,
    plan: &Plan,
) -> io::Result<PathBuf> {
    if explain {
        ph_core::observe::set_enabled(true);
    }
    let exec = exec();
    let capacity = m.buffer_capacity as usize;
    let Trained {
        mut engine,
        runner,
        detector,
        ..
    } = train(layers, m, &exec);
    let mut classifier = StreamClassifier::new(detector);
    let dir = work.join("redrive");
    let mut store = Store::create(&dir, *m, StoreConfig::default())?;
    let verdict_path = work.join("redrive-verdicts.ndjson");
    let mut verdicts = VerdictWriter::create(&verdict_path)?;
    let streaming = engine.streaming();
    let tap = streaming.firehose_with_capacity(capacity);
    let queue = IngestQueue::new(capacity);
    let mut monitor = StreamMonitor::new(runner, m.hours);
    let (mut delivered_total, mut collected_total) = (0usize, 0usize);
    {
        let prior = MonitorReport::default();
        let mut writer = store.writer(&prior);
        let mut sink = TimedSink::new(&mut writer);
        for hour in &plan.hours {
            let frames = layers.time_hour("wire.decode", || decode(&hour.bytes))?;
            let delivered: Vec<Tweet> = layers.time("serve.queue", || {
                for frame in frames {
                    queue.push(frame);
                }
                let mut tweets = Vec::new();
                while let Some((frame, _)) = queue.pop_timeout(Duration::ZERO) {
                    if let StreamFrame::Tweet(tweet) = frame {
                        tweets.push(tweet);
                    }
                }
                tweets
            });
            layers.time_hour("monitor.begin_hour", || monitor.begin_hour(&mut engine));
            let delivered = layers.time("sim.restamp", || -> io::Result<Vec<Tweet>> {
                let replica = streaming.poll(tap).map_err(io::Error::other)?;
                let oracle = engine.ground_truth();
                let truth: HashMap<_, bool> =
                    replica.iter().map(|t| (t.id, oracle.is_spam(t))).collect();
                let mut delivered = delivered;
                for tweet in &mut delivered {
                    tweet.set_evaluation_sidecar_spam(
                        truth.get(&tweet.id).copied().unwrap_or(false),
                    );
                }
                Ok(delivered)
            })?;
            delivered_total += delivered.len();
            let in_sink = sink.spent();
            let start = Instant::now();
            let batch = monitor.finish_hour(delivered, queue.take_shed(), &mut sink)?;
            layers.add_hour(
                "monitor.finish_hour",
                start.elapsed().as_secs_f64() - (sink.spent() - in_sink),
            );
            collected_total += batch.len();
            let start_seq = verdicts.next_seq();
            let hour_verdicts = layers.time_hour("detect.classify_hour", || {
                classifier.classify_hour(&batch, &engine, &exec)
            });
            let explanations = if explain {
                layers.time("observe.explanations", || {
                    ph_core::observe::explanations_from(start_seq)
                })
            } else {
                Vec::new()
            };
            layers.time_hour("serve.verdict_write", || -> io::Result<()> {
                for (i, (collected, verdict)) in batch.iter().zip(&hour_verdicts).enumerate() {
                    match explanations.get(i) {
                        Some(e) => verdicts.append_explained(collected, *verdict, e)?,
                        None => verdicts.append(collected, *verdict)?,
                    }
                }
                verdicts.flush()
            })?;
        }
        sink.record(layers);
    }
    layers.time("serve.drain", || -> io::Result<()> {
        monitor.finish(capacity);
        streaming.close(tap);
        store.sync()
    })?;
    if explain {
        layers.time("observe.drift_finalize", ph_core::observe::drift_finalize);
    }
    layers.time("store.write_telemetry", || {
        let journal = ph_telemetry::journal_snapshot();
        let points = ph_telemetry::run_series_points(m.hours.saturating_sub(1));
        store.write_telemetry(&journal, &points)
    })?;
    if explain {
        let retained = layers.time("store.write_explain", || -> io::Result<usize> {
            let explanations = ph_core::observe::explanations();
            ph_store::write_explain(&dir, &explanations)?;
            Ok(explanations.len())
        })?;
        layers.set("observe.retained", retained as f64);
        layers.time("store.write_drift", || {
            let (hours, alarms) = ph_core::observe::drift_results();
            ph_store::write_drift(&dir, &hours, &alarms)
        })?;
    }
    layers.set(
        "monitor.collect_ratio",
        collected_total as f64 / delivered_total.max(1) as f64,
    );
    layers.set(
        "serve.verdict_bytes",
        std::fs::metadata(&verdict_path)?.len() as f64,
    );
    layers.set(
        "store.bytes",
        dir_bytes(&dir, &["segment-", "checkpoints"]) as f64,
    );
    Ok(verdict_path)
}
