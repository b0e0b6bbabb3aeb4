//! The rtped repository benchmark.
//!
//! ```text
//! dasbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one seeded workload against the public APIs of `detect`,
//! `runtime`, `serve`, `hw` and `fleet`, checks its outputs, and prints
//! one JSON object as the last line of standard output: the end-to-end
//! metrics, or with `--trace 1` the per-layer metrics of a traced run.
//! Human-readable detail goes to standard error and to
//! `.dasbench/report-<workload>-<seed>-trace<t>.json`; the spans of a
//! traced run to `.dasbench/trace-<workload>-<seed>.json`. Run it from
//! the repository root. See `dasbench/README.md`.

mod common;
mod daemon;
mod fleet;
mod scenes;
mod stats;
mod stream;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use rtped_core::json::Json;
use rtped_core::Error;

use crate::stats::Summary;
use crate::trace::{Layers, Tracer};

/// Pool size of every detector, engine and daemon, and the number of
/// load-generator threads and connections: the 2-core host's `nproc`.
pub const THREADS: usize = 2;

/// Timed set-ups per run, after one untimed warm-up; `setup_s` is their
/// median.
pub const SETUP_REPS: usize = 31;

/// Where runs write their reports, traces and daemon journals.
pub const OUT_DIR: &str = ".dasbench";

const WORKLOADS: [&str; 4] = ["drive_1080p", "parked_720p", "daemon_mixed", "fleet_slice"];

/// End-to-end metrics: name and unit.
const END_TO_END: [(&str, &str); 8] = [
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("on_time_share", "share"),
    ("capacity_per_s", "1/s"),
    ("throughput_per_s", "1/s"),
    ("success_share", "share"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics: name and unit. Layers a workload does not reach
/// read 0.
const PER_LAYER: [(&str, &str); 58] = [
    ("hog.cells_ms", "ms"),
    ("hog.normalize_ms", "ms"),
    ("hog.pyramid_ms", "ms"),
    ("hog.quantize_ms", "ms"),
    ("detect.scan_ms", "ms"),
    ("detect.windows_scored", "count"),
    ("detect.nms_ms", "ms"),
    ("detect.nms_in", "count"),
    ("detect.nms_kept_share", "share"),
    ("detect.tracker_ms", "ms"),
    ("detect.temporal_ms", "ms"),
    ("detect.temporal_saved_ms", "ms"),
    ("detect.temporal_full_builds", "count"),
    ("detect.temporal_incremental", "count"),
    ("detect.temporal_unchanged", "count"),
    ("detect.temporal_reuse_share", "share"),
    ("input.dirty_row_share", "share"),
    ("runtime.serve_frame_ms", "ms"),
    ("runtime.overhead_ms", "ms"),
    ("runtime.degraded_frames", "count"),
    ("runtime.cost_model_ratio", "ratio"),
    ("serve.decode_ms", "ms"),
    ("serve.request_bytes", "bytes"),
    ("serve.encode_ms", "ms"),
    ("serve.response_bytes", "bytes"),
    ("serve.journal_append_ms", "ms"),
    ("serve.render_ms", "ms"),
    ("serve.engine_ms.software", "ms"),
    ("serve.engine_ms.integrity", "ms"),
    ("serve.round_trip_ms", "ms"),
    ("serve.unaccounted_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.errors", "count"),
    ("hw.serve_frame_ms.integrity_secded", "ms"),
    ("hw.serve_frame_ms.integrity_ecc_off", "ms"),
    ("hw.serve_frame_ms.integrity_shard2", "ms"),
    ("hw.serve_frame_ms.integrity_shard4", "ms"),
    ("hw.extract_ms", "ms"),
    ("hw.sim_cycles_per_frame", "cycles"),
    ("hw.host_ns_per_kcycle", "ns"),
    ("hw.ecc_corrected", "count"),
    ("hw.quarantines", "count"),
    ("hw.failovers", "count"),
    ("fleet.instance_ms.software_f32", "ms"),
    ("fleet.instance_ms.software_i16", "ms"),
    ("fleet.instance_ms.integrity_secded", "ms"),
    ("fleet.instance_ms.integrity_ecc_off", "ms"),
    ("fleet.instance_ms.integrity_shard2", "ms"),
    ("fleet.instance_ms.integrity_shard4", "ms"),
    ("load.late_p50_ms", "ms"),
    ("load.late_max_ms", "ms"),
    ("load.requests_detect_pixels", "count"),
    ("load.requests_detect_hw", "count"),
    ("load.requests_status", "count"),
    ("reconcile.gap_share", "share"),
    ("reconcile.stages_gap_share", "share"),
    ("trace.latency_p50_ms", "ms"),
    ("trace.span_cost_us", "us"),
];

/// Everything one workload run measured and checked.
pub struct Run {
    pub summary: Summary,
    pub setup_s: f64,
    pub layers: Layers,
    pub failed_checks: Vec<String>,
    pub info: Vec<String>,
    pub tracer: Option<Tracer>,
}

impl Run {
    pub fn new(summary: Summary, setup_s: f64, mut layers: Layers) -> Self {
        layers.set("load.late_p50_ms", summary.late_p50_ms);
        layers.set("load.late_max_ms", summary.late_max_ms);
        Run {
            summary,
            setup_s,
            layers,
            failed_checks: Vec::new(),
            info: Vec::new(),
            tracer: None,
        }
    }
}

pub type Outcome = Result<Run, Error>;

/// Runs `setup` once untimed, then [`SETUP_REPS`] times timed, and
/// returns the median time in seconds and the last result. The argument
/// is the repetition number.
pub fn timed_setup<T>(mut setup: impl FnMut(usize) -> Result<T, Error>) -> Result<(f64, T), Error> {
    let mut last = setup(0)?;
    let mut times = Vec::with_capacity(SETUP_REPS);
    for rep in 1..=SETUP_REPS {
        let clock = rtped_core::timer::Stopwatch::start();
        last = setup(rep)?;
        times.push(clock.elapsed().as_secs_f64());
    }
    Ok((stats::median(&times), last))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    reference_frames: Option<Vec<usize>>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut reference_frames = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            "--reference-frames" => {
                let list = value()?;
                let frames: Result<Vec<usize>, _> = list.split(',').map(str::parse).collect();
                reference_frames = Some(frames.map_err(|e| format!("--reference-frames: {e}"))?);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if let Some(frames) = &reference_frames {
        let ring = match workload.as_str() {
            "drive_1080p" | "parked_720p" => stream_spec(&workload).ring_len,
            _ => 0,
        };
        if frames.iter().any(|&k| k >= ring) {
            return Err(format!(
                "--reference-frames: {workload} has {ring} ring frames"
            ));
        }
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
        reference_frames,
    })
}

fn stream_spec(workload: &str) -> &'static stream::StreamSpec {
    if workload == "drive_1080p" {
        &stream::DRIVE
    } else {
        &stream::PARKED
    }
}

/// Stateless detections of `frames` of the workload's ring, computed by
/// this binary in a child process whose detector pool has one thread.
pub fn child_reference(workload: &str, seed: u64, frames: &[usize]) -> Result<Vec<u64>, Error> {
    let list: Vec<String> = frames.iter().map(usize::to_string).collect();
    let output = std::process::Command::new(std::env::current_exe()?)
        .env(rtped_core::par::THREADS_ENV, "1")
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--reference-frames", &list.join(",")])
        .output()?;
    if !output.status.success() {
        return Err(Error::format(format!(
            "reference process failed: {}",
            String::from_utf8_lossy(&output.stderr)
        )));
    }
    let digests: Result<Vec<u64>, _> = String::from_utf8_lossy(&output.stdout)
        .split_whitespace()
        .map(|hex| u64::from_str_radix(hex, 16))
        .collect();
    let digests = digests.map_err(|e| Error::format(format!("reference output: {e}")))?;
    if digests.len() != frames.len() {
        return Err(Error::format("reference process returned the wrong count"));
    }
    Ok(digests)
}

fn metric(value: f64, unit: &str) -> Json {
    Json::Object(vec![
        ("value".into(), value.into()),
        ("unit".into(), unit.into()),
    ])
}

fn end_to_end(run: &Run, peak_rss: f64) -> Vec<(&'static str, f64)> {
    let s = &run.summary;
    vec![
        ("latency_p50_ms", s.latency_p50_ms),
        ("latency_tail_ms", s.tail.value),
        ("on_time_share", s.on_time_share()),
        ("capacity_per_s", s.capacity_per_s),
        ("throughput_per_s", s.throughput_per_s),
        ("success_share", s.success_share()),
        ("setup_s", run.setup_s),
        ("peak_rss_mib", peak_rss),
    ]
}

fn write_out(name: &str, json: &Json) -> Result<(), Error> {
    let dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&dir)?;
    std::fs::write(dir.join(name), json.to_string_pretty())?;
    Ok(())
}

fn execute(args: &Args) -> Result<bool, Error> {
    if let Some(frames) = &args.reference_frames {
        let spec = stream_spec(&args.workload);
        for digest in stream::reference_digests(&args.workload, args.seed, spec, frames)? {
            println!("{digest:016x}");
        }
        return Ok(true);
    }
    let mut run = match args.workload.as_str() {
        "daemon_mixed" => daemon::run(args.seed, args.seconds, args.trace)?,
        "fleet_slice" => fleet::run(args.seed, args.seconds, args.trace)?,
        w => stream::run(w, stream_spec(w), args.seed, args.seconds, args.trace)?,
    };
    let peak_rss = common::peak_rss_mib()?;
    let e2e = end_to_end(&run, peak_rss);
    if args.trace {
        run.layers
            .set("trace.latency_p50_ms", run.summary.latency_p50_ms);
        run.layers.set("trace.span_cost_us", trace::span_cost_us());
    }

    let s = &run.summary;
    let tail = &s.tail;
    eprintln!(
        "dasbench {} seed {} trace {}: {} attempted, {} failed, {} missed the deadline",
        args.workload, args.seed, args.trace as u8, s.attempted, s.failed, s.missed
    );
    eprintln!(
        "latency_tail_ms = {:.3} at p{:.2} ({} samples, {} beyond); generator late p50 {:.3} ms, max {:.3} ms",
        tail.value, tail.percentile, tail.samples, tail.beyond, s.late_p50_ms, s.late_max_ms
    );
    for line in &run.info {
        eprintln!("{line}");
    }
    for check in &run.failed_checks {
        eprintln!("CHECK FAILED: {check}");
    }

    let correct = run.failed_checks.is_empty();
    let failed = s.failed;
    let metrics: Vec<(String, Json)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name.to_string(), metric(run.layers.get(name), unit)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(&e2e)
            .map(|(&(name, unit), &(_, value))| (name.to_string(), metric(value, unit)))
            .collect()
    };

    let tag = format!("{}-{}-trace{}", args.workload, args.seed, args.trace as u8);
    let detail = Json::Object(vec![
        ("workload".into(), args.workload.as_str().into()),
        ("seed".into(), args.seed.into()),
        ("seconds".into(), args.seconds.into()),
        ("threads".into(), THREADS.into()),
        (
            "host_parallelism".into(),
            std::thread::available_parallelism()
                .map_or(0, usize::from)
                .into(),
        ),
        ("attempted".into(), s.attempted.into()),
        ("failed".into(), failed.into()),
        ("deadline_missed".into(), s.missed.into()),
        ("tail_percentile".into(), tail.percentile.into()),
        ("tail_samples".into(), tail.samples.into()),
        ("tail_beyond".into(), tail.beyond.into()),
        (
            "end_to_end".into(),
            Json::Object(
                e2e.iter()
                    .map(|&(n, v)| (n.to_string(), v.into()))
                    .collect(),
            ),
        ),
        (
            "per_layer".into(),
            Json::Object(
                PER_LAYER
                    .iter()
                    .map(|&(n, _)| (n.to_string(), run.layers.get(n).into()))
                    .collect(),
            ),
        ),
        (
            "info".into(),
            Json::Array(run.info.iter().map(|l| l.as_str().into()).collect()),
        ),
        (
            "failed_checks".into(),
            Json::Array(
                run.failed_checks
                    .iter()
                    .map(|l| l.as_str().into())
                    .collect(),
            ),
        ),
    ]);
    write_out(&format!("report-{tag}.json"), &detail)?;
    if let Some(tracer) = &run.tracer {
        write_out(
            &format!("trace-{}-{}.json", args.workload, args.seed),
            &tracer.to_json(),
        )?;
    }

    let result = Json::Object(vec![
        ("correct".into(), correct.into()),
        ("attempted".into(), s.attempted.into()),
        ("failed".into(), failed.into()),
        ("metrics".into(), Json::Object(metrics)),
    ]);
    println!("{result}");
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("dasbench: {err}");
            return ExitCode::from(2);
        }
    };
    match execute(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("dasbench: output checks failed");
            ExitCode::FAILURE
        }
        Err(err) => {
            eprintln!("dasbench: {err}");
            ExitCode::FAILURE
        }
    }
}
