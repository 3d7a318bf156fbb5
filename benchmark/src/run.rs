//! One run of one workload: inputs from the seed, timed set-up, warm-up,
//! measured rounds, the correctness gate, and the report.
//!
//! With tracing off the run measures the end-to-end metrics: rounds of
//! passes, each timing metric computed per round and reported as the
//! **best round** (interference on a shared box only ever slows a round).
//! With tracing on it measures the per-layer metrics: one untraced and
//! one traced round (their ratio is the tracing overhead), then the layer
//! probes over the traced round's last pass.

use crate::inputs::{self, BuiltIndex, Inputs, Scale, Split, SplitMix64, POOL};
use crate::json::Json;
use crate::metrics::{MetricSet, END_TO_END, PER_LAYER};
use crate::probes;
use crate::stats;
use crate::trace::Recorder;
use crate::workloads::{
    self, engine_pass, serve_pass, Batch, Facts, Kind, Pass, RequestSpec, WorkloadSpec,
    TIERED_BATCH, TIERED_BATCHES, TIERED_SHARDS,
};
use anna_data::recall::recall_one;
use anna_engine::PlanOptions;
use anna_index::{BatchedScan, IvfPqIndex, KernelDispatch, ShardedIndex};
use anna_vector::Neighbor;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// All execution at one thread: the host has 2 shared CPUs, and one busy
/// core measures the program rather than the scheduler.
const THREADS: usize = 1;
const ROUNDS: usize = 16;
const WARMUP_S: f64 = 0.5;
const MAX_VIOLATIONS: usize = 16;

pub struct RunConfig {
    pub workload: &'static WorkloadSpec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Small data, one short round: a functional check, not a measurement.
    pub smoke: bool,
    /// Overrides the workload's recall floor (to demonstrate the gate).
    pub recall_floor: Option<f64>,
}

pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: MetricSet,
    /// Everything else worth keeping: provenance, per-round values,
    /// medians and spreads, gate violations, notes.
    pub detail: Json,
}

/// The benchmark's directory, for the files a run leaves behind.
pub fn benchmark_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

/// Scratch directory under `benchmark/out/`, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> std::io::Result<WorkDir> {
        let dir = benchmark_dir()
            .join("out")
            .join(format!("work-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory is ignored by git and harmless.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Where and with what the numbers were measured.
pub fn provenance() -> Json {
    let dir = benchmark_dir();
    Json::obj([
        (
            "git_commit",
            Json::str(command_line(
                "git",
                &["-C", &dir.to_string_lossy(), "rev-parse", "HEAD"],
            )),
        ),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        ("host_cpus", Json::Num(host_cpus() as f64)),
        (
            "kernel_dispatch",
            Json::str(KernelDispatch::current().name()),
        ),
        ("threads", Json::Num(THREADS as f64)),
    ])
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmRSS:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Failures counted against requests attempted, plus the violations that
/// make a run incorrect.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
}

impl Gate {
    fn violation(&mut self, message: String) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(message);
        }
    }
}

fn same_hits(a: &[Neighbor], b: &[Neighbor]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.id == y.id && x.score.to_bits() == y.score.to_bits())
}

/// The first pass of a run: every later pass must reproduce it exactly.
struct Reference {
    results: Vec<Vec<Neighbor>>,
    facts: Facts,
}

fn check_pass(pass: &Pass, reference: &Reference, gate: &mut Gate) {
    gate.attempted += pass.results.len() as u64;
    gate.failed += pass.failed;
    for message in &pass.verify_errors {
        gate.violation(format!("verify() failed: {message}"));
    }
    let differing = pass
        .results
        .iter()
        .zip(&reference.results)
        .filter(|(a, b)| !same_hits(a, b))
        .count()
        + pass.results.len().abs_diff(reference.results.len());
    if differing > 0 {
        gate.failed += differing as u64;
        gate.violation(format!(
            "{differing} request(s) returned results that differ from the first pass"
        ));
    }
    if pass.facts != reference.facts {
        gate.violation(format!(
            "deterministic counts changed between passes: {:?} vs first pass {:?}",
            pass.facts, reference.facts
        ));
    }
}

/// One measured round: passes until `min_s` of wall time has gone by.
struct Round {
    requests: u64,
    path_ns: u64,
    latencies_ns: Vec<u64>,
}

impl Round {
    fn qps(&self) -> f64 {
        self.requests as f64 / (self.path_ns as f64 / 1e9)
    }

    fn latency_ms(&mut self, p: f64) -> f64 {
        stats::percentile(&mut self.latencies_ns, p) as f64 / 1e6
    }
}

type PassFn<'a> = dyn FnMut(&mut Recorder, usize) -> Pass + 'a;

/// Runs one round and returns it with its last pass.
fn run_round(
    pass_fn: &mut PassFn,
    rec: &mut Recorder,
    threads: usize,
    min_s: f64,
    reference: &Reference,
    gate: &mut Gate,
) -> (Round, Pass) {
    let mut round = Round {
        requests: 0,
        path_ns: 0,
        latencies_ns: Vec::new(),
    };
    let start = Instant::now();
    loop {
        let pass = pass_fn(rec, threads);
        check_pass(&pass, reference, gate);
        round.requests += pass.latencies_ns.len() as u64;
        round.path_ns += pass.path_ns;
        round.latencies_ns.extend_from_slice(&pass.latencies_ns);
        if start.elapsed().as_secs_f64() >= min_s {
            return (round, pass);
        }
    }
}

/// What the probes need besides the replayed plans.
struct ProbeContext<'a> {
    inputs: &'a Inputs,
    /// Shard segment paths and per-shard cache bytes (tiered only).
    tiered: Option<(&'a [PathBuf], u64)>,
}

/// Times the program's set-up: train on the split's first rows, `add` the
/// rest, and (tiered only) write the shard segments into `dir`.
fn timed_setup(
    split: &Split,
    scale: Scale,
    spec: &WorkloadSpec,
    dir: &Path,
) -> Result<(BuiltIndex, Vec<PathBuf>, f64), String> {
    let start = Instant::now();
    let built = inputs::build_index(split, scale, spec.kstar);
    let shard_paths = if spec.kind == Kind::Tiered {
        ShardedIndex::write_shard_segments(&built.index, TIERED_SHARDS, dir)
            .map_err(|e| format!("writing shard segments: {e}"))?
    } else {
        Vec::new()
    };
    Ok((built, shard_paths, start.elapsed().as_secs_f64()))
}

/// Set-up is timed several times per run and `setup_s` is the fastest,
/// for the reason the timing metrics report their best round: this host's
/// speed drifts by tens of percent (set-up by up to 2x) over tens of
/// seconds, which only ever slows a repeat. The median of the repeats was
/// tried first and failed its own A/A check: two run sets of identical
/// code disagreed by 29 % and 54 % on one workload each. The repeats after
/// the first are spread over the measured rounds, because back-to-back
/// repeats would all sample the same phase of the drift.
struct SetupTimer<'a> {
    split: &'a Split,
    scale: Scale,
    spec: &'a WorkloadSpec,
    dir: &'a Path,
    /// The index the run measures; every repeat must rebuild it exactly.
    index: &'a IvfPqIndex,
    /// Repeats still to spread over the rounds.
    extra: usize,
    done: usize,
    setup_s: Vec<f64>,
    train_s: Vec<f64>,
    add_s: Vec<f64>,
}

impl SetupTimer<'_> {
    fn record(&mut self, built: &BuiltIndex, setup_s: f64) {
        self.setup_s.push(setup_s);
        self.train_s.push(built.train_s);
        self.add_s.push(built.add_s);
    }

    /// Runs the repeats due once `progress` (0 to 1) of the measured
    /// rounds are over.
    fn catch_up(&mut self, progress: f64) -> Result<(), String> {
        while self.done < (progress * self.extra as f64).floor() as usize {
            self.done += 1;
            let dir = self.dir.join(format!("repeat-{}", self.done));
            let (built, _, setup_s) = timed_setup(self.split, self.scale, self.spec, &dir)?;
            if built.index != *self.index {
                return Err("set-up is not deterministic: two builds of one input differ".into());
            }
            self.record(&built, setup_s);
        }
        Ok(())
    }
}

pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let spec = cfg.workload;
    let scale = if cfg.smoke { Scale::SMOKE } else { Scale::FULL };

    let inputs = inputs::generate(cfg.seed, scale);
    let work = WorkDir::create().map_err(|e| format!("creating the work directory: {e}"))?;
    let split = inputs::split(&inputs, scale);
    let (built, shard_paths, first_setup_s) = timed_setup(&split, scale, spec, &work.0)?;
    let index = &built.index;
    let mut setup = SetupTimer {
        split: &split,
        scale,
        spec,
        dir: &work.0,
        index,
        extra: if cfg.smoke { 0 } else { spec.setup_repeats - 1 },
        done: 0,
        setup_s: Vec::new(),
        train_s: Vec::new(),
        add_s: Vec::new(),
    };
    setup.record(&built, first_setup_s);
    let pool = &inputs.pool;
    // Row draws and the arrival trace come from the benchmark's own
    // generator, decorrelated from the dataset's use of the seed.
    let mut rng = SplitMix64::new(cfg.seed ^ 0xA11A_BE1C_4A11_5EED);

    let mut context = ProbeContext {
        inputs: &inputs,
        tiered: None,
    };
    match spec.kind {
        Kind::Closed {
            k,
            batch,
            two_phase,
        } => {
            let scan = if two_phase {
                BatchedScan::with_rerank_db(index, &inputs.db)
            } else {
                BatchedScan::new(index)
            };
            let options = PlanOptions {
                rerank: two_phase.then(workloads::two_phase_policy),
            };
            let rows: Vec<usize> = (0..POOL).collect();
            let batches: Vec<Batch> = rows
                .chunks(batch)
                .map(|rows| Batch::uniform(pool, rows.to_vec(), k))
                .collect();
            let requests: Vec<RequestSpec> = batches.iter().flat_map(Batch::requests).collect();
            let mut pass = |rec: &mut Recorder, threads: usize| {
                engine_pass(&scan, &batches, &options, threads, rec)
            };
            measure(cfg, &mut setup, &context, &requests, &mut pass)
        }
        Kind::Tiered => {
            // Total cache = half the encoded bytes, split evenly.
            let cache_per_shard = index.stats().code_bytes / 2 / TIERED_SHARDS as u64;
            let paths = &shard_paths;
            context.tiered = Some((paths, cache_per_shard));
            let options = PlanOptions::default();
            let batches: Vec<Batch> = (0..TIERED_BATCHES)
                .map(|_| Batch::uniform(pool, inputs::skewed_rows(&mut rng, TIERED_BATCH), 100))
                .collect();
            let requests: Vec<RequestSpec> = batches.iter().flat_map(Batch::requests).collect();
            // Re-opening per pass starts every pass from a cold cache, so
            // every cache count repeats exactly.
            let mut pass = |rec: &mut Recorder, threads: usize| {
                let engine = ShardedIndex::open_tiered(paths, cache_per_shard)
                    .expect("shard segments written during set-up must open");
                engine_pass(&engine, &batches, &options, threads, rec)
            };
            measure(cfg, &mut setup, &context, &requests, &mut pass)
        }
        Kind::Serve => {
            let scan = BatchedScan::new(index);
            let config = workloads::serve_config();
            let trace = inputs::poisson_trace(
                &mut rng,
                workloads::SERVE_REQUESTS,
                workloads::SERVE_RATE_PER_S,
                workloads::SERVE_DEADLINE_NS,
            );
            let requests: Vec<RequestSpec> = trace
                .iter()
                .map(|r| RequestSpec {
                    row: r.query_row,
                    k: r.k,
                })
                .collect();
            let mut pass = |rec: &mut Recorder, threads: usize| {
                serve_pass(&scan, pool, &trace, &config, threads, rec)
            };
            measure(cfg, &mut setup, &context, &requests, &mut pass)
        }
    }
}

fn recall10(inputs: &Inputs, requests: &[RequestSpec], results: &[Vec<Neighbor>]) -> f64 {
    requests
        .iter()
        .zip(results)
        .map(|(request, hits)| recall_one(&inputs.truth.ids[request.row], hits, request.k))
        .sum::<f64>()
        / requests.len() as f64
}

fn measure(
    cfg: &RunConfig,
    setup: &mut SetupTimer,
    context: &ProbeContext,
    requests: &[RequestSpec],
    pass_fn: &mut PassFn,
) -> Result<Report, String> {
    let spec = cfg.workload;
    let mut gate = Gate::default();
    let mut off = Recorder::disabled();

    // Warm-up; its first pass is the reference every later pass must equal.
    let first = pass_fn(&mut off, THREADS);
    let reference = Reference {
        results: first.results.clone(),
        facts: first.facts.clone(),
    };
    check_pass(&first, &reference, &mut gate);
    if reference.results.len() != requests.len() {
        return Err(format!(
            "a pass answered {} requests but the workload defines {}",
            reference.results.len(),
            requests.len()
        ));
    }
    if !cfg.smoke {
        run_round(pass_fn, &mut off, THREADS, WARMUP_S, &reference, &mut gate);
    }
    let rss_mb = rss_mb();

    let recall = recall10(context.inputs, requests, &reference.results);
    let floor = cfg
        .recall_floor
        .unwrap_or(if cfg.smoke { 0.0 } else { spec.recall_floor });
    if recall < floor {
        gate.violation(format!(
            "recall10 {recall:.4} is below the workload's floor {floor:.4}"
        ));
    }
    let facts = &reference.facts;
    let answered = facts.dispatched.max(1) as f64;

    let mut detail = vec![
        ("workload", Json::str(spec.name)),
        ("seed", Json::Num(cfg.seed as f64)),
        ("trace", Json::Bool(cfg.trace)),
        ("smoke", Json::Bool(cfg.smoke)),
        ("provenance", provenance()),
    ];

    let metrics = if cfg.trace {
        let round_s = if cfg.smoke { 0.5 } else { cfg.seconds / 4.0 };
        let mut layers = MetricSet::new(&PER_LAYER);
        let notes = measure_layers(
            cfg,
            setup,
            context,
            requests,
            pass_fn,
            &reference,
            &mut gate,
            round_s,
            &mut layers,
        )?;
        detail.push(("round_s", Json::Num(round_s)));
        detail.push((
            "notes",
            Json::Arr(notes.into_iter().map(Json::Str).collect()),
        ));
        layers
    } else {
        let (rounds, round_s) = if cfg.smoke {
            (1, 0.5)
        } else {
            (ROUNDS, cfg.seconds / ROUNDS as f64)
        };
        let (mut qps, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
        let mut samples = u64::MAX;
        for i in 0..rounds {
            let (mut round, _) =
                run_round(pass_fn, &mut off, THREADS, round_s, &reference, &mut gate);
            qps.push(round.qps());
            p50.push(round.latency_ms(0.5));
            p99.push(round.latency_ms(0.99));
            samples = samples.min(round.latencies_ns.len() as u64);
            setup.catch_up((i + 1) as f64 / rounds as f64)?;
        }
        let mut e2e = MetricSet::new(&END_TO_END);
        e2e.set("qps", stats::max(&qps));
        e2e.set("latency_p50_ms", stats::min(&p50));
        e2e.set("latency_p99_ms", stats::min(&p99));
        e2e.set("recall10", recall);
        e2e.set("bytes_per_query", facts.bytes as f64 / answered);
        e2e.set("setup_s", stats::min(&setup.setup_s));
        e2e.set("rss_mb", rss_mb);
        let rounds_json = |values: &[f64]| {
            Json::obj([
                ("rounds", Json::nums(values)),
                ("median", Json::Num(stats::median(values))),
                ("spread", Json::Num(stats::range_frac(values))),
            ])
        };
        detail.push(("round_s", Json::Num(round_s)));
        detail.push(("qps", rounds_json(&qps)));
        detail.push(("latency_p50_ms", rounds_json(&p50)));
        detail.push(("latency_p99_ms", rounds_json(&p99)));
        detail.push(("latency_samples_per_round", Json::Num(samples as f64)));
        e2e
    };

    for (name, _, value) in metrics.entries() {
        if !value.is_finite() {
            gate.violation(format!("metric {name} is not finite"));
        }
    }
    detail.push(("setup_s_repeats", Json::nums(&setup.setup_s)));
    detail.push((
        "violations",
        Json::Arr(gate.violations.iter().cloned().map(Json::Str).collect()),
    ));
    Ok(Report {
        correct: gate.violations.is_empty(),
        attempted: gate.attempted,
        failed: gate.failed,
        metrics,
        detail: Json::obj(detail),
    })
}

/// The traced half of the protocol. Fills `layers` and returns notes on
/// how to read the numbers.
#[allow(clippy::too_many_arguments)]
fn measure_layers(
    cfg: &RunConfig,
    setup: &mut SetupTimer,
    context: &ProbeContext,
    requests: &[RequestSpec],
    pass_fn: &mut PassFn,
    reference: &Reference,
    gate: &mut Gate,
    round_s: f64,
    layers: &mut MetricSet,
) -> Result<Vec<String>, String> {
    let spec = cfg.workload;
    let facts = &reference.facts;
    let per_pass = requests.len() as f64;
    let answered = facts.dispatched.max(1) as f64;
    let mut notes = Vec::new();

    let mut off = Recorder::disabled();
    let (untraced, _) = run_round(pass_fn, &mut off, THREADS, round_s, reference, gate);
    setup.catch_up(0.5)?;
    let mut rec = Recorder::enabled();
    let (mut traced, last) = run_round(pass_fn, &mut rec, THREADS, round_s, reference, gate);
    setup.catch_up(1.0)?;
    layers.set(
        "telemetry.overhead_frac",
        1.0 - traced.qps() / untraced.qps(),
    );

    // Span self times, per request of the traced round.
    let traced_requests = traced.requests.max(1) as f64;
    let selfs = rec.self_times();
    let self_us = |name: &str| selfs.get(name).map_or(0.0, |&(_, ns)| ns as f64 / 1e3);
    let mut accounted_us = 0.0;
    for name in [
        "engine.scope",
        "engine.plan",
        "engine.price",
        "engine.execute",
        "engine.verify",
        "serve.compose",
        "serve.execute",
    ] {
        accounted_us += self_us(name);
        layers.set(&format!("{name}_us"), self_us(name) / traced_requests);
    }
    layers.set(
        "engine.accounted_frac",
        accounted_us / (rec.total_ns("request") as f64 / 1e3),
    );
    let execute_us = (self_us("engine.execute") + self_us("serve.execute")) / traced_requests;

    let trace_path = benchmark_dir()
        .join("out")
        .join(format!("trace-{}.json", spec.name));
    std::fs::write(&trace_path, rec.chrome_trace().render())
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    notes.push(format!("chrome trace written to {}", trace_path.display()));
    let traced_p99_ms = traced.latency_ms(0.99);
    notes.push(format!(
        "traced round: {} requests, p99 {traced_p99_ms:.4} ms",
        traced.requests
    ));

    // Probes over the traced round's last pass.
    let us_per_request = |ns: u64| ns as f64 / 1e3 / per_pass;
    let per_s = |count: u64, ns: u64| {
        if ns == 0 {
            0.0
        } else {
            count as f64 / (ns as f64 / 1e9)
        }
    };
    if let Some((paths, cache_per_shard)) = context.tiered {
        let probe = probes::tiered(paths, cache_per_shard, &last.replay)
            .map_err(|e| format!("tiered probe: {e}"))?;
        if probe.counters != facts.tier {
            gate.violation(format!(
                "the tiered probe replayed other cache events than the engine: {:?} vs {:?}",
                probe.counters, facts.tier
            ));
        }
        let tier = &facts.tier;
        layers.set(
            "index.tiered.hit_rate",
            tier.cache_hits as f64 / (tier.cache_hits + tier.cache_misses).max(1) as f64,
        );
        layers.set("index.tiered.admissions", tier.cache_admissions as f64);
        layers.set("index.tiered.evictions", tier.cache_evictions as f64);
        layers.set(
            "index.tiered.fetch_us_per_cluster",
            probe.fetch_ns as f64 / 1e3 / probe.fetches.max(1) as f64,
        );
        layers.set(
            "index.tiered.disk_bytes_per_query",
            tier.disk_code_bytes as f64 / answered,
        );
        notes.push(
            "storage reads hit the OS page cache: tiered numbers show cache-policy and \
             shard-merge cost, not device latency"
                .into(),
        );
    } else {
        let probe = probes::cluster_major(
            setup.index,
            &context.inputs.db,
            &context.inputs.pool,
            &last.replay,
        );
        let wrong = probe
            .results
            .iter()
            .filter(|(request, hits)| !same_hits(hits, &reference.results[*request]))
            .count();
        if wrong > 0 || probe.results.len() as u64 != facts.dispatched {
            gate.violation(format!(
                "the probes replayed other work than the engine: {wrong} of {} results differ",
                probe.results.len()
            ));
        }
        let select_ns = probe.scan_select_ns.saturating_sub(probe.scan_ns);
        layers.set(
            "index.filter.dists_per_s",
            per_s(probe.filter_dists, probe.filter_ns),
        );
        layers.set("index.lut.tables", probe.lut_tables as f64);
        layers.set("index.lut.us", us_per_request(probe.lut_ns));
        layers.set(
            "index.lut.tables_per_s",
            per_s(probe.lut_tables, probe.lut_ns),
        );
        layers.set("index.scan.codes", probe.scan_codes as f64);
        layers.set("index.scan.us", us_per_request(probe.scan_ns));
        layers.set(
            "index.scan.codes_per_s",
            per_s(probe.scan_codes, probe.scan_ns),
        );
        layers.set(
            "index.scan.gbps",
            per_s(probe.scan_code_bytes, probe.scan_ns) / 1e9,
        );
        layers.set("index.select.us", us_per_request(select_ns));
        layers.set(
            "index.select.pruned_frac",
            probe.pruned as f64 / probe.scanned.max(1) as f64,
        );
        layers.set("index.rerank.candidates", probe.rerank_candidates as f64);
        layers.set(
            "index.rerank.f32_frac",
            probe.rerank_f32_candidates as f64 / probe.rerank_candidates.max(1) as f64,
        );
        layers.set("index.rerank.us", us_per_request(probe.rerank_ns));
        layers.set(
            "index.rerank.vectors_per_s",
            per_s(probe.rerank_candidates, probe.rerank_ns),
        );
        let probed_us = us_per_request(probe.lut_ns + probe.scan_ns + select_ns + probe.rerank_ns);
        layers.set("index.probe_coverage", probed_us / execute_us);
        notes.push(
            "index.scan.gbps is computed from code widths, not measured memory traffic".into(),
        );
    }

    // The parts of set-up.
    layers.set(
        "index.add.vectors_per_s",
        setup.split.rest.len() as f64 / stats::min(&setup.add_s),
    );
    layers.set("quant.train_s", stats::min(&setup.train_s));
    layers.set("data.generate_s", context.inputs.generate_s);
    layers.set("data.ground_truth_s", context.inputs.ground_truth_s);

    // Multi-thread scaling is a diagnostic, on the throughput workload only.
    layers.set("host_cpus", host_cpus() as f64);
    if spec.name == "batch_k16" {
        let threads = host_cpus().min(2);
        let (scaled, _) = run_round(pass_fn, &mut off, threads, round_s, reference, gate);
        layers.set("index.threads2_speedup", scaled.qps() / untraced.qps());
        notes.push(format!(
            "index.threads2_speedup ran at threads = {threads} on {} host cpus",
            host_cpus()
        ));
    }

    layers.set("plan.rounds", facts.plan_rounds as f64);
    layers.set("plan.clusters_fetched", facts.clusters_fetched as f64);
    layers.set("plan.spill_bytes", facts.spill_bytes as f64);

    if spec.kind == Kind::Serve {
        let mut waits = last.serve.queue_wait_ns.clone();
        let mut errors: Vec<u64> = last
            .serve
            .service_ns
            .iter()
            .map(|&(predicted, measured)| {
                // Parts per million, so the exact percentile works on integers.
                (predicted.abs_diff(measured) as f64 / measured.max(1) as f64 * 1e6) as u64
            })
            .collect();
        layers.set("serve.batches", facts.batches as f64);
        layers.set(
            "serve.mean_batch_size",
            facts.dispatched as f64 / facts.batches.max(1) as f64,
        );
        layers.set("serve.shapes_priced", facts.shapes_priced as f64);
        layers.set(
            "serve.queue_wait_p50_ms",
            stats::percentile(&mut waits, 0.5) as f64 / 1e6,
        );
        layers.set("serve.shed", facts.shed as f64);
        layers.set("serve.timed_out", facts.timed_out as f64);
        layers.set("serve.deadline_missed", last.serve.deadline_missed as f64);
        layers.set(
            "serve.service_pred_err_p95",
            stats::percentile(&mut errors, 0.95) as f64 / 1e6,
        );
        notes.push(
            "arrivals are virtual, so generator lateness is 0 by construction; latency is \
             virtual queue wait plus measured service time"
                .into(),
        );
    }
    Ok(notes)
}
