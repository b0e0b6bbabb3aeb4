//! `fleet_slice`: a seeded 192-instance slice of the full 2016-instance
//! `fleet::campaign` grid, run closed-loop by two client threads through
//! `fleet::execute`, without the chaos phase.
//!
//! The slice is 32 rounds of six instances, one per engine kind, all of
//! one fault kind. A client's request is one round: engine kinds differ
//! in cost by 16×, so a round, not an instance, is the unit whose
//! latency has a stable median.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use rtped_core::rng::{Rng, SeedRng};
use rtped_core::timer::Stopwatch;
use rtped_core::{Error, ToJson};
use rtped_fleet::{campaign, execute, CampaignScale, EngineKind, FleetAggregate, RunSpec};
use rtped_runtime::{RunReport, RuntimeConfig};
use rtped_serve::build_engine;
use rtped_serve::tenant::fnv1a;

use crate::common;
use crate::stats::{self, Clock, Sample, WallClock};
use crate::trace::{self, Layers, Tracer};
use crate::{Outcome, Run, THREADS};

/// Instances drawn from each of the 24 fault × engine cells.
const PER_CELL: usize = 8;
/// A round (six instances of twelve frames) slower than this is a miss.
const LIMIT_MS: f64 = 3_000.0;

/// Expands the full grid and draws the seeded slice: per fault kind,
/// [`PER_CELL`] rounds of one instance of every engine kind, the rounds
/// shuffled so every prefix covers the fault kinds evenly.
fn slice(seed: u64) -> Vec<Vec<RunSpec>> {
    let grid = campaign(CampaignScale::Full);
    let mut rng = SeedRng::seed_from_u64(seed).split(0xF1EE);
    let mut cells: Vec<Vec<&RunSpec>> = Vec::new();
    for spec in &grid {
        match cells
            .iter_mut()
            .find(|c| c[0].fault == spec.fault && c[0].engine == spec.engine)
        {
            Some(cell) => cell.push(spec),
            None => cells.push(vec![spec]),
        }
    }
    for cell in &mut cells {
        rng.shuffle(cell);
    }
    let mut faults = Vec::new();
    for cell in &cells {
        if !faults.contains(&cell[0].fault) {
            faults.push(cell[0].fault);
        }
    }
    let mut out = Vec::with_capacity(PER_CELL * faults.len());
    for pick in 0..PER_CELL {
        let mut order = faults.clone();
        rng.shuffle(&mut order);
        for fault in order {
            out.push(
                cells
                    .iter()
                    .filter(|c| c[0].fault == fault)
                    .map(|c| c[pick].clone())
                    .collect(),
            );
        }
    }
    out
}

/// The first instance of each fault × engine cell in grid order: the
/// same 24 instances for every seed, whose aggregate digest is recorded.
fn canary_slice() -> Vec<RunSpec> {
    let mut out: Vec<RunSpec> = Vec::new();
    for spec in campaign(CampaignScale::Full) {
        if !out
            .iter()
            .any(|s| s.fault == spec.fault && s.engine == spec.engine)
        {
            out.push(spec);
        }
    }
    out
}

fn report_digest(report: &RunReport) -> u64 {
    fnv1a(report.to_json().to_string().as_bytes())
}

/// One executed round.
struct Done {
    index: usize,
    sample: Sample,
    reports: Option<Vec<RunReport>>,
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let (setup_s, rounds) = crate::timed_setup(|_| Ok(slice(seed)))?;

    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::<Done>::new());
    let clock = WallClock::start();
    let limit_ms = seconds * 1e3;
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| loop {
                let start_ms = clock.now_ms();
                if start_ms >= limit_ms {
                    return;
                }
                let index = next.fetch_add(1, Ordering::Relaxed);
                let reports = execute(&rounds[index % rounds.len()], Some(1)).ok();
                let end_ms = clock.now_ms();
                let ok = reports
                    .as_ref()
                    .is_some_and(|r| r.iter().all(|r| r.integrity_escapes() == 0));
                let row = Done {
                    index,
                    sample: Sample {
                        due_ms: start_ms,
                        start_ms,
                        end_ms,
                        ok,
                    },
                    reports,
                };
                done.lock()
                    .expect("no client panics holding the lock")
                    .push(row);
            });
        }
    });
    let wall_s = clock.now_ms() / 1e3;
    let mut done = done
        .into_inner()
        .map_err(|_| Error::format("client panicked"))?;
    done.sort_by_key(|d| d.index);
    if done.is_empty() {
        return Err(Error::format("no round ran"));
    }

    // Output checks, outside the measured loop.
    let mut checks = Vec::new();
    let mut first: Vec<Option<Vec<u64>>> = vec![None; rounds.len()];
    let mut escapes = 0u64;
    for d in &mut done {
        let Some(reports) = &d.reports else {
            checks.push(format!("round {}: execute failed", d.index));
            continue;
        };
        escapes += reports
            .iter()
            .map(RunReport::integrity_escapes)
            .sum::<u64>();
        let digests: Vec<u64> = reports.iter().map(report_digest).collect();
        let seen = &mut first[d.index % rounds.len()];
        match seen {
            None => *seen = Some(digests),
            Some(earlier) if *earlier != digests => {
                d.sample.ok = false;
                checks.push(format!("round {}: a repeat run differs", d.index));
            }
            Some(_) => {}
        }
    }
    if escapes > 0 {
        checks.push(format!("{escapes} integrity escapes"));
    }
    let canary = canary_slice();
    let reports = execute(&canary, Some(THREADS))?;
    let rows: Vec<(RunSpec, RunReport)> = canary.into_iter().zip(reports).collect();
    let canary = FleetAggregate::from_runs(&rows).digest;
    if common::recorded("fleet_slice.canary") != Some(canary) {
        checks.push(format!(
            "canary aggregate digest {canary:016x} differs from the recorded fleet_slice.canary"
        ));
    }

    let samples: Vec<Sample> = done.iter().map(|d| d.sample).collect();
    let units: Vec<f64> = done
        .iter()
        .map(|d| {
            d.reports
                .as_ref()
                .map_or(0.0, |r| r.iter().map(|r| r.frames.len() as f64).sum())
        })
        .collect();
    let summary = stats::summarize(&samples, &units, LIMIT_MS, wall_s);
    let mut run = Run::new(summary, setup_s, Layers::default());
    run.failed_checks = checks;
    let executed: Vec<(&RunSpec, &RunReport)> = done
        .iter()
        .filter_map(|d| {
            Some(
                rounds[d.index % rounds.len()]
                    .iter()
                    .zip(d.reports.as_ref()?),
            )
        })
        .flatten()
        .collect();
    let per_pass: usize = rounds.iter().map(Vec::len).sum();
    if executed.len() >= per_pass {
        let rows: Vec<(RunSpec, RunReport)> = executed[..per_pass]
            .iter()
            .map(|&(s, r)| (s.clone(), r.clone()))
            .collect();
        run.info.push(format!(
            "slice: {per_pass} instances in {} rounds, first-pass aggregate digest {:016x}",
            rounds.len(),
            FleetAggregate::from_runs(&rows).digest
        ));
    }
    run.info.push(format!(
        "closed loop: {THREADS} clients ran {} rounds ({:.2} passes of the slice)",
        done.len(),
        done.len() as f64 / rounds.len() as f64
    ));
    for (_, report) in &executed {
        if let Some(integrity) = &report.integrity {
            let layers = &mut run.layers;
            layers.add(
                "hw.ecc_corrected",
                integrity.corrected.iter().sum::<u64>() as f64,
            );
            layers.add("hw.quarantines", integrity.shard_quarantines as f64);
            layers.add("hw.failovers", integrity.shard_failovers as f64);
        }
    }
    rerun(&mut run, &executed, traced.then(|| Tracer::new(clock.0)))?;
    Ok(run)
}

/// Re-runs one executed instance of every engine kind out of band and
/// checks its report: through `RunSpec::run` (timed as the instance
/// span), and with a tracer also frame by frame through
/// `Engine::serve_frame`, with the accelerator's feature extraction and
/// cycle count on the same frames.
fn rerun(
    run: &mut Run,
    executed: &[(&RunSpec, &RunReport)],
    mut tracer: Option<Tracer>,
) -> Result<(), Error> {
    let accelerator = common::accelerator()?;
    let (mut extract, mut cycles, mut host) = (Vec::new(), Vec::new(), Vec::new());
    for (k, kind) in EngineKind::all().into_iter().enumerate() {
        let Some((spec, report)) = executed.iter().find(|(s, _)| s.engine == kind) else {
            continue;
        };
        let request = k as u64;
        let clock = Stopwatch::start();
        let again = spec.run()?;
        let instance_ms = clock.elapsed_ms();
        if report_digest(&again) != report_digest(report) {
            run.failed_checks.push(format!(
                "{}: RunSpec::run differs from execute",
                kind.label()
            ));
        }
        let Some(tracer) = tracer.as_mut() else {
            continue;
        };
        run.layers
            .set(format!("fleet.instance_ms.{}", kind.label()), instance_ms);
        if !kind.tenant_name().starts_with("hw") {
            continue; // software engines have no accelerator
        }
        let config = RuntimeConfig::builder()
            .deadline_ms(spec.budget_ms)
            .datapath(kind.datapath())
            .ecc(kind.ecc())
            .build()?;
        let frames = spec.render_frames()?;
        let plan = spec.fault.plan(spec.seed);
        let mut engine = build_engine(&kind.tenant_name(), &config);
        engine.reset();
        let parent = tracer.open("fleet.instance", None, request);
        let mut serve_ms = Vec::new();
        for frame in &frames {
            let (_, id) = tracer.span("hw.serve_frame", Some(parent), request, || {
                engine.serve_frame(frame, &plan)
            });
            serve_ms.push(tracer.get(id).ms());
        }
        tracer.close(parent);
        if report_digest(&engine.take_report(plan.seed)) != report_digest(report) {
            run.failed_checks
                .push(format!("{}: frame-by-frame replay differs", kind.label()));
        }
        let mean_serve = trace::mean(serve_ms.iter().copied());
        run.layers
            .set(format!("hw.serve_frame_ms.{}", kind.label()), mean_serve);
        for frame in &frames {
            let (_, id) = tracer.span("hw.extract", None, request, || {
                accelerator.extract_features(frame)
            });
            extract.push(tracer.get(id).ms());
            let c = accelerator.process(frame).frame_cycles() as f64;
            cycles.push(c);
            host.push(mean_serve * 1e6 / (c / 1e3));
        }
    }
    if tracer.is_some() {
        let layers = &mut run.layers;
        layers.set("hw.extract_ms", trace::mean(extract.into_iter()));
        layers.set("hw.sim_cycles_per_frame", trace::mean(cycles.into_iter()));
        layers.set("hw.host_ns_per_kcycle", trace::mean(host.into_iter()));
    }
    run.tracer = tracer;
    Ok(())
}
