//! The repository benchmark. One command runs one workload:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mine_dense|mine_sparse|serve_rw> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! It generates the workload's inputs from the seed, measures for about
//! the given seconds, checks every output, prints each metric by name and
//! unit, and ends with one JSON line: `correct`, `attempted`, `failed` and
//! the end-to-end (`--trace 0`) or per-layer (`--trace 1`) metrics. Any
//! correctness mismatch makes it exit non-zero. `--check-determinism`
//! instead runs the traced workload at `seed`, `seed` and `seed + 1` in
//! child processes and checks that the count metrics repeat exactly for
//! one seed and differ across seeds. See `README.md`.

mod mining;
mod rng;
mod rss;
mod serving;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use setm_serve::json::Json;

use crate::mining::Gate;
use crate::rng::Rng;
use crate::spans::SpanLog;
use crate::stats::{median, percentile, quantile, Tail, Tally};
use crate::workloads::Pace;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Seconds after which a mining workload's serving probe is cut short.
const PROBE_BOUND_S: f64 = 60.0;

/// Shortest serving slice of a workload paced by a share of the time.
/// Slices are long so that few requests follow an idle connection: the
/// first requests after a pause meet other TCP acknowledgement timing
/// than the ones in a steady closed loop.
const SLICE_S: f64 = 2.0;

/// Slices a fixed serving probe is cut into, for the same reason.
const PROBE_SLICES: f64 = 8.0;

/// The end-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("mine_memory_s", "s"),
    ("mine_engine_s", "s"),
    ("mine_sql_s", "s"),
    ("peak_rss_mb", "MB"),
    ("serve_mine_p50_ms", "ms"),
    ("serve_mine_tail_ms", "ms"),
    ("serve_append_p50_ms", "ms"),
    ("serve_append_tail_ms", "ms"),
    ("serve_rps", "1/s"),
];

/// The per-layer metrics (`--trace 1`), with units.
const PER_LAYER: [(&str, &str); 47] = [
    ("memory.c1_s", "s"),
    ("memory.extend_s", "s"),
    ("memory.items_sort_s", "s"),
    ("memory.count_s", "s"),
    ("memory.shard_merge_s", "s"),
    ("memory.filter_s", "s"),
    ("memory.tid_sort_s", "s"),
    ("memory.sort_rows_per_s", "1/s"),
    ("memory.r_prime_rows", "count"),
    ("memory.r_rows", "count"),
    ("memory.c_total", "count"),
    ("memory.survival_ratio", "ratio"),
    ("engine.k1_s", "s"),
    ("engine.k2_s", "s"),
    ("engine.k3plus_s", "s"),
    ("engine.page_accesses", "count"),
    ("engine.seq_reads", "count"),
    ("engine.rand_reads", "count"),
    ("engine.writes", "count"),
    ("engine.cache_hits", "count"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.pool_steals", "count"),
    ("engine.estimated_io_ms", "ms"),
    ("sql.parse_s", "s"),
    ("sql.extend_s", "s"),
    ("sql.count_s", "s"),
    ("sql.filter_s", "s"),
    ("sql.ddl_s", "s"),
    ("sql.statements", "count"),
    ("rules.generate_s", "s"),
    ("rules.count", "count"),
    ("serve.accept_ms", "ms"),
    ("serve.outcome_wait_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.mine_ms", "ms"),
    ("serve.serialize_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.cache_share", "ratio"),
    ("serve.delta_share", "ratio"),
    ("serve.full_share", "ratio"),
    ("serve.bytes_out_per_req", "bytes"),
    ("serve.rejected", "count"),
    ("serve.rate_limited", "count"),
    ("obs.trace_overhead_frac", "ratio"),
    ("obs.span_coverage", "ratio"),
];

/// The counts `--check-determinism` compares.
const DETERMINISTIC: [&str; 5] = [
    "memory.r_prime_rows",
    "memory.c_total",
    "engine.page_accesses",
    "sql.statements",
    "rules.count",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    check_determinism: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        check_determinism: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--check-determinism" {
            args.check_determinism = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !workloads::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}",
            workloads::WORKLOADS
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    // `Miner::run` honours SETM_FORCE_PLAN, which would silently replace
    // the planner's choices in every measured mine.
    if std::env::var_os("SETM_FORCE_PLAN").is_some() {
        eprintln!("perfbench: refusing to run with SETM_FORCE_PLAN set; unset it");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.check_determinism {
        return check_determinism(&args);
    }
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Run one workload and print its report. `Ok(false)` on a correctness
/// mismatch.
fn run(args: &Args) -> Result<bool, String> {
    // Set up several times; keep the last.
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        if let Some((_, server)) = prepared.take() {
            serving::Running::stop(server).map_err(|e| format!("stopping the server: {e}"))?;
        }
        let t = Instant::now();
        let inputs = workloads::generate(&args.workload, args.seed).ok_or("unknown workload")?;
        let server = serving::start(&inputs.serve).map_err(|e| format!("serving set-up: {e}"))?;
        setup_times.push(t.elapsed().as_secs_f64());
        prepared = Some((inputs, server));
    }
    let (inputs, server) = prepared.expect("at least one set-up");
    let mut rng = Rng::new(args.seed ^ 0x5E7A_11BE_4C4D);

    let origin = Instant::now();
    let mut log = SpanLog::new(origin);
    let mut tally = Tally::default();
    // The host's speed drifts over seconds, so serving runs in slices
    // between the mines and both sample the whole run. The first mining
    // round runs alone: it gives the mining workloads' peak memory.
    let session = serving::Session::start(&inputs.serve, &server, args.trace);
    let mut pacer = Pacer {
        session,
        pace: inputs.pace,
        origin: None,
        end: origin + Duration::from_secs_f64(args.seconds),
    };
    let (mine_times, mut layers) = mine_phase(
        &inputs,
        args,
        &mut rng,
        &mut tally,
        &mut log,
        &mut |round| pacer.serve(round),
    );
    let served = pacer.finish(&mut log);
    server
        .stop()
        .map_err(|e| format!("stopping the server: {e}"))?;
    tally.absorb(served.tally);
    let wall_s = log.now_s();

    let mut report: Vec<(String, f64, &str, String)> = Vec::new();
    if args.trace {
        layers.extend(served.layers.iter().cloned());
        let get = |layers: &BTreeMap<String, f64>, k: &str| layers.get(k).copied().unwrap_or(0.0);
        let traced = get(&layers, "obs.traced_s") + get(&layers, "obs.serve_traced_s");
        let untraced = get(&layers, "obs.untraced_s") + get(&layers, "obs.serve_untraced_s");
        let overhead = if untraced > 0.0 {
            traced / untraced - 1.0
        } else {
            0.0
        };
        layers.insert("obs.trace_overhead_frac".into(), overhead);
        layers.insert("obs.span_coverage".into(), log.coverage(0.0, wall_s));
        let get = |k: &str| get(&layers, k);
        println!(
            "traced run: {} mining rounds, {} served requests, {wall_s:.3} s after set-up",
            get("obs.mine_rounds"),
            served.requests
        );
        for (name, unit) in PER_LAYER {
            report.push((name.to_string(), get(name), unit, String::new()));
        }
        print_span_summary(&log);
        let mut counts: Vec<String> = DETERMINISTIC
            .iter()
            .map(|k| format!("{k}={}", get(k)))
            .collect();
        if let Some(via) = &served.first_pass_via {
            counts.push(format!("serve.first_pass_via={via}"));
        }
        println!("counts: {}", counts.join(" "));
    } else if let Some(mine_times) = mine_times {
        let med = |xs: &[f64]| median(xs).unwrap_or(0.0);
        let low = |xs: &[f64]| quantile(xs, 0.25).unwrap_or(0.0);
        let per_run = &mine_times.per_run_s;
        let p50 = |xs: &[f64]| percentile(xs, 500).unwrap_or(0.0);
        let (mine_p50, mine_tail) = (p50(&served.mine_ms), served.mine_tail);
        let (append_p50, append_tail) = (p50(&served.append_ms), served.append_tail);
        let tail_note = |t: Option<Tail>| {
            t.map(|t| {
                format!(
                    "p{} of {} samples, {} beyond; median of {} passes",
                    t.percentile, t.samples, t.beyond, served.tail_passes
                )
            })
            .unwrap_or_default()
        };
        let values = [
            (med(&setup_times), format!("median of {SETUP_REPS} set-ups")),
            (
                low(&per_run[0]),
                format!(
                    "lower quartile of {} rounds; median {:.6}",
                    per_run[0].len(),
                    med(&per_run[0])
                ),
            ),
            (
                low(&per_run[1]),
                format!(
                    "lower quartile of {} rounds; median {:.6}",
                    per_run[1].len(),
                    med(&per_run[1])
                ),
            ),
            (
                low(&per_run[2]),
                format!(
                    "lower quartile of {} rounds; median {:.6}",
                    per_run[2].len(),
                    med(&per_run[2])
                ),
            ),
            match inputs.pace {
                Pace::Share(_) => (served.peak_mb, "serving clients' first pass".to_string()),
                Pace::Spread => (
                    mine_times.first_round_peak_mb,
                    "first mining round".to_string(),
                ),
            },
            (mine_p50, format!("{} served mines", served.mine_ms.len())),
            (mine_tail.map_or(0.0, |t| t.value), tail_note(mine_tail)),
            (append_p50, format!("{} appends", served.append_ms.len())),
            (append_tail.map_or(0.0, |t| t.value), tail_note(append_tail)),
            (
                served.rps,
                format!("{} clients, closed loop", served.clients),
            ),
        ];
        for ((name, unit), (value, note)) in END_TO_END.iter().zip(values) {
            report.push((name.to_string(), value, unit, note));
        }
    }
    for (name, value, unit, note) in &report {
        println!("{name:<28} {value:>16.6} {unit:<6} {note}");
    }
    println!(
        "fail_frac {:.6} ({} failed or refused, {} wrong, of {} attempted)",
        tally.fail_frac(),
        tally.failed,
        tally.wrong,
        tally.attempted
    );
    println!("provenance: {}", provenance(args));
    let metrics = Json::Obj(
        report
            .iter()
            .map(|(name, value, unit, _)| {
                (
                    name.clone(),
                    Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
                )
            })
            .collect(),
    );
    let result = Json::obj([
        ("correct", Json::Bool(tally.correct())),
        ("attempted", Json::u64(tally.attempted.max(1))),
        ("failed", Json::u64(tally.bad())),
        ("metrics", metrics),
    ]);
    println!("{result}");
    Ok(tally.correct())
}

/// Paces serving between mines. Nothing is served during the first
/// mining round; after it, each call serves until serving has caught up
/// with its pace over the rest of the run.
struct Pacer<'a> {
    session: serving::Session<'a>,
    pace: Pace,
    /// When pacing started (the first call after the first round).
    origin: Option<Instant>,
    end: Instant,
}

impl Pacer<'_> {
    fn serve(&mut self, round: usize) {
        if round == 0 {
            return;
        }
        let now = Instant::now();
        let origin = *self.origin.get_or_insert(now);
        let elapsed = (now - origin).as_secs_f64();
        match self.pace {
            Pace::Share(share) => {
                // Serving for `owed` seconds brings its share of the paced
                // time back to `share`; short slices are left to pile up.
                let owed = (share * elapsed - self.session.busy_s()) / (1.0 - share);
                if owed >= SLICE_S {
                    self.session
                        .advance(now + Duration::from_secs_f64(owed), usize::MAX);
                }
            }
            Pace::Spread => {
                let window = self.end.saturating_duration_since(origin).as_secs_f64();
                let frac = if window > 0.0 {
                    (elapsed / window).min(1.0)
                } else {
                    1.0
                };
                let slices = (frac * PROBE_SLICES).floor() / PROBE_SLICES;
                let (done, total) = self.session.progress();
                let due = (total as f64 * slices).ceil() as usize;
                if due > done {
                    self.session
                        .advance(now + Duration::from_secs_f64(PROBE_BOUND_S), due - done);
                }
            }
        }
    }

    /// Serve what is still owed when mining ends, then verify.
    fn finish(mut self, log: &mut SpanLog) -> serving::ServeResult {
        let now = Instant::now();
        let owed = match self.pace {
            Pace::Share(share) => {
                let elapsed = self.origin.map_or(0.0, |o| (now - o).as_secs_f64());
                let owed = (share * elapsed - self.session.busy_s()) / (1.0 - share);
                // A run too short to pace still serves one slice.
                if self.session.busy_s() > 0.0 {
                    owed
                } else {
                    owed.max(SLICE_S)
                }
            }
            Pace::Spread => PROBE_BOUND_S,
        };
        if !self.session.done() && owed > 0.0 {
            self.session
                .advance(now + Duration::from_secs_f64(owed), usize::MAX);
        }
        self.session.finish(log, None)
    }
}

/// The mining phase (timings untraced, per-layer metrics traced), calling
/// `between` after every mine.
fn mine_phase(
    inputs: &workloads::Inputs,
    args: &Args,
    rng: &mut Rng,
    tally: &mut Tally,
    log: &mut SpanLog,
    between: &mut dyn FnMut(usize),
) -> (Option<mining::MineTimes>, BTreeMap<String, f64>) {
    let mut gate = Gate::new(inputs.cases.len());
    if args.trace {
        (
            None,
            mining::run_traced(
                &inputs.cases,
                &mut gate,
                args.seconds,
                rng,
                tally,
                log,
                between,
            ),
        )
    } else {
        (
            Some(mining::run_untraced(
                &inputs.cases,
                &mut gate,
                args.seconds,
                rng,
                tally,
                between,
            )),
            BTreeMap::new(),
        )
    }
}

/// Per span name: count, total and self time, to stderr.
fn print_span_summary(log: &SpanLog) {
    let mut by_name: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
    for (id, span) in log.spans().iter().enumerate() {
        let e = by_name.entry(span.name).or_default();
        e.0 += 1;
        e.1 += span.duration_s();
        e.2 += log.self_time_s(id);
    }
    eprintln!(
        "{:<24} {:>8} {:>12} {:>12}",
        "span", "count", "total_s", "self_s"
    );
    for (name, (n, total, own)) in by_name {
        eprintln!("{name:<24} {n:>8} {total:>12.6} {own:>12.6}");
    }
}

fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn provenance(args: &Args) -> Json {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    Json::obj([
        ("workload", Json::str(args.workload.clone())),
        ("seed", Json::u64(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", Json::str(command_output("nproc", &["--all"]))),
        ("available_parallelism", Json::u64(parallelism)),
        ("rustc", Json::str(command_output("rustc", &["--version"]))),
        (
            "git_commit",
            Json::str(command_output("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

/// Run the traced workload at `seed`, `seed` and `seed + 1` as child
/// processes and compare their count lines.
fn check_determinism(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let mut counts = Vec::new();
    for seed in [args.seed, args.seed, args.seed + 1] {
        let out = Command::new(&exe)
            .args(["--workload", &args.workload, "--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string(), "--trace", "1"])
            .stderr(Stdio::inherit())
            .output();
        let line = out.ok().filter(|o| o.status.success()).and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .find_map(|l| l.strip_prefix("counts: ").map(str::to_string))
        });
        match line {
            Some(line) => {
                println!("seed {seed}: {line}");
                counts.push(line);
            }
            None => {
                eprintln!("perfbench: traced run at seed {seed} failed");
                return ExitCode::from(1);
            }
        }
    }
    let repeats = counts[0] == counts[1];
    let differs = counts[0] != counts[2];
    println!("repeat within seed: {repeats}; differ across seeds: {differs}");
    if repeats && differs {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
