//! The in-process mining phase: `Miner::run` on the three backends, the
//! correctness gate between them, and, in a traced run, the per-layer
//! replays through each layer's public operators.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use setm_core::setm::memory::{count_groups, count_items, filter_supported, merge_scan_extend};
use setm_core::setm::shard::partition_by_weight;
use setm_core::{
    generate_rules, Backend, CountRelation, Dataset, EngineConfig, ExecutionReport, Item,
    MinSupport, Miner, MiningOutcome, MiningParams, PatternRelation, Rule, TransId,
};
use setm_obs::{ObsEvent, ObsSink};
use setm_sql::{ExecOutcome, Params, SqlEngine};

use crate::rng::Rng;
use crate::rss;
use crate::spans::SpanLog;
use crate::stats::{median, Tally};

pub const MIN_CONFIDENCE: f64 = 0.5;

/// Itemsets per case checked against `Dataset::support_of`.
const SUPPORT_SAMPLE: usize = 32;

/// One mining request of a workload.
pub struct MineCase {
    pub label: String,
    pub dataset: Arc<Dataset>,
    pub support: f64,
    pub threads: usize,
}

impl MineCase {
    pub fn miner(&self, backend: Backend) -> Miner {
        Miner::new(MiningParams::new(
            MinSupport::Fraction(self.support),
            MIN_CONFIDENCE,
        ))
        .backend(backend)
        .threads(self.threads)
    }

    fn min_count(&self) -> u64 {
        MinSupport::Fraction(self.support).to_count(self.dataset.n_transactions().max(1))
    }
}

pub const BACKENDS: [&str; 3] = ["memory", "engine", "sql"];

pub fn backend(i: usize) -> Backend {
    match i {
        0 => Backend::Memory,
        1 => Backend::Engine(EngineConfig::default()),
        _ => Backend::Sql,
    }
}

/// What every backend must reproduce exactly for one case.
struct Reference {
    itemsets: Vec<(setm_core::ItemVec, u64)>,
    rules: Vec<Rule>,
    c_series: Vec<u64>,
}

fn c_series(outcome: &MiningOutcome) -> Vec<u64> {
    outcome.result.trace.iter().map(|t| t.c_len).collect()
}

/// The correctness gate shared by both phases: the first outcome of a
/// case becomes its reference (after a sampled support check), every
/// later one must match it exactly.
pub struct Gate {
    refs: Vec<Option<Reference>>,
}

impl Gate {
    pub fn new(n_cases: usize) -> Self {
        Gate {
            refs: (0..n_cases).map(|_| None).collect(),
        }
    }

    fn check(
        &mut self,
        i: usize,
        case: &MineCase,
        b: usize,
        outcome: &MiningOutcome,
        rng: &mut Rng,
        tally: &mut Tally,
    ) {
        let got = Reference {
            itemsets: outcome.frequent_itemsets(),
            rules: outcome.rules.clone(),
            c_series: c_series(outcome),
        };
        match &self.refs[i] {
            Some(r) => {
                let what = format!(
                    "{} on {}: itemsets, rules or |C_k| differ",
                    BACKENDS[b], case.label
                );
                tally.check(
                    r.itemsets == got.itemsets
                        && r.rules == got.rules
                        && r.c_series == got.c_series,
                    &what,
                );
            }
            None => {
                for _ in 0..SUPPORT_SAMPLE.min(got.itemsets.len()) {
                    let (set, count) = &got.itemsets[rng.below(got.itemsets.len())];
                    let truth = case.dataset.support_of(set.as_slice());
                    tally.check(
                        truth == *count,
                        &format!(
                            "{}: support of {:?} is {truth}, mined {count}",
                            case.label,
                            set.as_slice()
                        ),
                    );
                }
                self.refs[i] = Some(got);
            }
        }
    }
}

fn timed_run(miner: &Miner, dataset: &Dataset, tally: &mut Tally) -> Option<(f64, MiningOutcome)> {
    let t = Instant::now();
    let run = miner.run(dataset);
    let elapsed = t.elapsed().as_secs_f64();
    tally.record(run.is_ok());
    match run {
        Ok(outcome) => Some((elapsed, outcome)),
        Err(e) => {
            eprintln!("perfbench: mine failed: {e}");
            None
        }
    }
}

/// What the untraced phase measured.
pub struct MineTimes {
    /// Per backend, one value per round: the mean wall time of one run
    /// over the round's cases.
    pub per_run_s: [Vec<f64>; 3],
    /// Peak resident memory of the first round (every case on every
    /// backend once, before anything else runs between the mines), in MB.
    pub first_round_peak_mb: f64,
}

/// Untraced: rounds of every case on every backend (backend order rotated
/// per round) until the budget would be overrun; at least one round.
/// `between(round)` is called after every mine.
pub fn run_untraced(
    cases: &[MineCase],
    gate: &mut Gate,
    budget_s: f64,
    rng: &mut Rng,
    tally: &mut Tally,
    between: &mut dyn FnMut(usize),
) -> MineTimes {
    let mut times = MineTimes {
        per_run_s: Default::default(),
        first_round_peak_mb: 0.0,
    };
    let start = Instant::now();
    let mut round = 0usize;
    rss::reset_peak();
    loop {
        let round_start = Instant::now();
        let mut sums = [(0.0, 0usize); 3];
        for (i, case) in cases.iter().enumerate() {
            for j in 0..3 {
                let b = (j + round) % 3;
                if let Some((secs, outcome)) =
                    timed_run(&case.miner(backend(b)), &case.dataset, tally)
                {
                    sums[b].0 += secs;
                    sums[b].1 += 1;
                    gate.check(i, case, b, &outcome, rng, tally);
                }
                between(round);
            }
        }
        if round == 0 {
            times.first_round_peak_mb = rss::peak_mb();
        }
        for (b, (sum, n)) in sums.into_iter().enumerate() {
            if n > 0 {
                times.per_run_s[b].push(sum / n as f64);
            }
        }
        round += 1;
        let last = round_start.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + last > budget_s {
            return times;
        }
    }
}

/// Timestamps each iteration event of an observed run.
struct IterationClock {
    marks: Mutex<Vec<(usize, Instant)>>,
}

impl ObsSink for IterationClock {
    fn on_event(&self, event: &ObsEvent) {
        if let ObsEvent::Iteration(s) = event {
            self.marks
                .lock()
                .expect("iteration clock lock")
                .push((s.k, Instant::now()));
        }
    }
}

impl IterationClock {
    fn new() -> Arc<Self> {
        Arc::new(IterationClock {
            marks: Mutex::new(Vec::new()),
        })
    }

    /// Seconds spent in k = 1, k = 2 and k >= 3 of a run spanning
    /// `start..end`.
    fn split(&self, start: Instant, end: Instant) -> [f64; 3] {
        let marks = self.marks.lock().expect("iteration clock lock");
        let at = |k: usize| marks.iter().find(|(mk, _)| *mk == k).map(|(_, t)| *t);
        let k1 = at(1).unwrap_or(end);
        let k2 = at(2).unwrap_or(end);
        let secs = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64();
        [secs(start, k1), secs(k1, k2), secs(k2, end)]
    }
}

/// Per-layer sums of one traced round, by metric name.
type Layers = BTreeMap<&'static str, f64>;

fn add(layers: &mut Layers, name: &'static str, v: f64) {
    *layers.entry(name).or_insert(0.0) += v;
}

/// Traced: per round and case, each backend runs once plain and once
/// observed (their ratio is the tracing overhead), then the memory loop
/// and the `threads(1)` SQL statements are replayed operator by operator
/// and the rules are regenerated; `between(round)` is called after each
/// backend. Returns the per-layer metrics: times are medians over rounds
/// of the per-round sums, counts are per-round sums (identical in every
/// round, or the gate fails).
pub fn run_traced(
    cases: &[MineCase],
    gate: &mut Gate,
    budget_s: f64,
    rng: &mut Rng,
    tally: &mut Tally,
    log: &mut SpanLog,
    between: &mut dyn FnMut(usize),
) -> BTreeMap<String, f64> {
    let mut rounds: Vec<Layers> = Vec::new();
    let start = Instant::now();
    loop {
        let round_start = Instant::now();
        let round = log.open("mine.round", None);
        let mut layers = Layers::new();
        let n_round = rounds.len();
        let mut between = || between(n_round);
        for (i, case) in cases.iter().enumerate() {
            trace_case(
                i,
                case,
                gate,
                rng,
                tally,
                log,
                round,
                &mut layers,
                &mut between,
            );
        }
        log.close(round);
        rounds.push(layers);
        let last = round_start.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + last > budget_s {
            break;
        }
    }
    summarize(&rounds, tally)
}

#[allow(clippy::too_many_arguments)]
fn trace_case(
    i: usize,
    case: &MineCase,
    gate: &mut Gate,
    rng: &mut Rng,
    tally: &mut Tally,
    log: &mut SpanLog,
    round: usize,
    layers: &mut Layers,
    between: &mut dyn FnMut(),
) {
    let mut memory_outcome = None;
    for b in 0..3 {
        between();
        let plain = log.open("mine.plain", Some(round));
        let untraced = timed_run(&case.miner(backend(b)), &case.dataset, tally);
        log.close(plain);
        let clock = IterationClock::new();
        let observed = log.open("mine.observed", Some(round));
        let miner = case.miner(backend(b)).observer(clock.clone());
        let t0 = Instant::now();
        let traced = timed_run(&miner, &case.dataset, tally);
        let t1 = Instant::now();
        log.close(observed);
        let (Some((untraced_s, plain_outcome)), Some((traced_s, outcome))) = (untraced, traced)
        else {
            continue;
        };
        add(layers, "obs.untraced_s", untraced_s);
        add(layers, "obs.traced_s", traced_s);
        gate.check(i, case, b, &plain_outcome, rng, tally);
        gate.check(i, case, b, &outcome, rng, tally);
        let rules = log.open("rules.generate", Some(round));
        let regenerated = generate_rules(&outcome.result, MIN_CONFIDENCE);
        log.close(rules);
        add(layers, "rules.generate_s", log.spans()[rules].duration_s());
        if b == 0 {
            add(layers, "rules.count", regenerated.len() as f64);
        }
        tally.check(
            regenerated == outcome.rules,
            &format!("{}: regenerated rules differ", case.label),
        );
        match &outcome.report {
            ExecutionReport::Engine(report) => {
                let [k1, k2, k3] = clock.split(t0, t1);
                add(layers, "engine.k1_s", k1);
                add(layers, "engine.k2_s", k2);
                add(layers, "engine.k3plus_s", k3);
                let io = &report.io;
                add(layers, "engine.page_accesses", report.page_accesses as f64);
                add(layers, "engine.seq_reads", io.seq_reads as f64);
                add(layers, "engine.rand_reads", io.rand_reads as f64);
                add(layers, "engine.writes", io.writes() as f64);
                add(layers, "engine.cache_hits", io.cache_hits as f64);
                add(layers, "engine.reads", io.reads() as f64);
                add(layers, "engine.pool_steals", io.pool_steals as f64);
                add(layers, "engine.estimated_io_ms", report.estimated_io_ms);
            }
            ExecutionReport::Memory => memory_outcome = Some(outcome),
            _ => {}
        }
    }
    if let Some(outcome) = memory_outcome {
        let replay = log.open("memory.replay", Some(round));
        let got = replay_memory(case, &outcome, log, replay, layers);
        log.close(replay);
        tally.check(
            got == c_series(&outcome),
            &format!("{}: memory replay |C_k| {got:?}", case.label),
        );
    }

    let sequential = log.open("sql.sequential_run", Some(round));
    let sql = case.miner(Backend::Sql).threads(1).run(&case.dataset);
    log.close(sequential);
    tally.record(sql.is_ok());
    if let Ok(sql) = sql {
        let statements = sql.report.statements().unwrap_or_default();
        let replay = log.open("sql.replay", Some(round));
        let got = replay_sql(case, statements, log, replay, layers, tally);
        log.close(replay);
        add(layers, "sql.statements", statements.len() as f64);
        tally.check(
            got == c_series(&sql),
            &format!("{}: SQL replay |C_k| {got:?}", case.label),
        );
    }
}

/// Replays the Figure 4 loop of a recorded memory run through the public
/// operators, following each iteration's recorded plan (shard count and
/// sort reuse). Sharded steps run one `thread::scope` per operator, so
/// each operator's span is its wall time. Returns the |C_k| series.
fn replay_memory(
    case: &MineCase,
    outcome: &MiningOutcome,
    log: &mut SpanLog,
    parent: usize,
    layers: &mut Layers,
) -> Vec<u64> {
    let min_count = case.min_count();
    let (sales, c1, mut r_prev) = log.time("memory.c1", Some(parent), || {
        let sales: Vec<(TransId, Vec<Item>)> = case
            .dataset
            .transactions()
            .map(|(t, items)| (t, items.to_vec()))
            .collect();
        let c1 = count_items(&case.dataset, min_count);
        let n_rows = sales.iter().map(|(_, items)| items.len()).sum();
        let mut r1 = PatternRelation::with_capacity(1, n_rows);
        for (tid, items) in &sales {
            for &it in items {
                r1.push(*tid, &[it]);
            }
        }
        (sales, c1, r1)
    });
    let weights: Vec<usize> = sales.iter().map(|(_, items)| items.len()).collect();
    let mut c_series = vec![c1.len() as u64];
    let (mut r_prime_rows, mut r_rows, mut sorted_rows) = (0u64, 0u64, 0u64);
    let mut tid_sorted = true;
    for it in outcome.result.trace.iter().skip(1) {
        let Some(plan) = it.plan else { break };
        if !tid_sorted {
            sorted_rows += r_prev.n_tuples() as u64;
            log.time("memory.tid_sort", Some(parent), || {
                r_prev.sort_by_tid_items()
            });
        }
        let ranges = partition_by_weight(&weights, plan.shards.max(1));
        let mut tasks = Vec::with_capacity(ranges.len());
        let mut row_start = 0usize;
        for range in &ranges {
            let row_end = match sales.get(range.end) {
                Some(&(boundary, _)) => first_row_at(&r_prev, row_start, boundary),
                None => r_prev.n_tuples(),
            };
            tasks.push((range.clone(), row_start..row_end));
            row_start = row_end;
        }
        let mut parts: Vec<PatternRelation> = log.time("memory.extend", Some(parent), || {
            par_map(&tasks, |(txns, rows)| {
                merge_scan_extend(&r_prev, rows.clone(), &sales[txns.clone()])
            })
        });
        let rows: u64 = parts.iter().map(|p| p.n_tuples() as u64).sum();
        r_prime_rows += rows;
        sorted_rows += rows;
        log.time("memory.items_sort", Some(parent), || {
            std::thread::scope(|s| {
                for part in parts.iter_mut() {
                    s.spawn(move || part.sort_by_items());
                }
            })
        });
        let locals: Vec<CountRelation> = log.time("memory.count", Some(parent), || {
            par_map(&parts, count_groups)
        });
        let c_k = log.time("memory.shard_merge", Some(parent), || {
            CountRelation::merge_sum_filter(&locals, min_count)
        });
        let mut r_k = log.time("memory.filter", Some(parent), || {
            let kept = par_map(&parts, |p| filter_supported(p, &c_k));
            let total = kept.iter().map(|p| p.n_tuples()).sum();
            let mut r_k = PatternRelation::with_capacity(r_prev.k() + 1, total);
            for part in &kept {
                for (tid, items) in part.iter() {
                    r_k.push(tid, items);
                }
            }
            r_k
        });
        r_rows += r_k.n_tuples() as u64;
        c_series.push(c_k.len() as u64);
        if plan.reuse_sort {
            sorted_rows += r_k.n_tuples() as u64;
            log.time("memory.tid_sort", Some(parent), || r_k.sort_by_tid_items());
            tid_sorted = true;
        } else {
            tid_sorted = false;
        }
        r_prev = r_k;
    }
    let child = |name| {
        log.spans()
            .iter()
            .filter(|s| s.parent == Some(parent) && s.name == name)
            .map(|s| s.duration_s())
            .sum::<f64>()
    };
    let times = [
        ("memory.c1_s", child("memory.c1")),
        ("memory.extend_s", child("memory.extend")),
        ("memory.items_sort_s", child("memory.items_sort")),
        ("memory.count_s", child("memory.count")),
        ("memory.shard_merge_s", child("memory.shard_merge")),
        ("memory.filter_s", child("memory.filter")),
        ("memory.tid_sort_s", child("memory.tid_sort")),
    ];
    for (name, v) in times {
        add(layers, name, v);
    }
    add(layers, "memory.sorted_rows", sorted_rows as f64);
    add(layers, "memory.r_prime_rows", r_prime_rows as f64);
    add(layers, "memory.r_rows", r_rows as f64);
    add(
        layers,
        "memory.c_total",
        c_series.iter().sum::<u64>() as f64,
    );
    c_series
}

/// Map `f` over `items` on one scoped thread each.
fn par_map<T: Sync, U: Send>(items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = items.iter().map(|item| s.spawn(move || f(item))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay worker panicked"))
            .collect()
    })
}

/// First row of the tid-sorted `r` at or after `tid`, searching from `from`.
fn first_row_at(r: &PatternRelation, from: usize, tid: TransId) -> usize {
    let (mut lo, mut hi) = (from, r.n_tuples());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if r.row(mid).0 < tid {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The span a recorded SQL statement's execution is charged to.
fn statement_kind(sql: &str) -> &'static str {
    let head = sql.lines().next().unwrap_or("");
    if head.starts_with("CREATE") || head.starts_with("DROP") {
        "sql.ddl"
    } else if head.starts_with("INSERT INTO R") && head.ends_with("_PRIME") {
        "sql.extend"
    } else if head.starts_with("INSERT INTO C") {
        "sql.count"
    } else if head.starts_with("INSERT INTO R") {
        "sql.filter"
    } else {
        "sql.other"
    }
}

/// Replays recorded `threads(1)` statements on a fresh session with
/// `SALES` bulk-loaded. Returns the |C_k| series (rows inserted into each
/// `C_k`).
fn replay_sql(
    case: &MineCase,
    statements: &[String],
    log: &mut SpanLog,
    parent: usize,
    layers: &mut Layers,
    tally: &mut Tally,
) -> Vec<u64> {
    let mut engine = SqlEngine::new();
    let rows = case.dataset.sales_rows();
    let loaded = log.time("sql.load", Some(parent), || {
        engine.load_table(
            "SALES",
            &["trans_id", "item"],
            rows.iter().map(|r| r.as_slice()),
        )
    });
    tally.check(loaded.is_ok(), "SQL replay: SALES load failed");
    let params = Params::new().with("minsupport", case.min_count());
    let mut c_series = Vec::new();
    for sql in statements {
        let parsed = log.time("sql.parse", Some(parent), || setm_sql::parse(sql));
        let Ok(stmt) = parsed else {
            tally.check(false, &format!("SQL replay: cannot parse {sql:?}"));
            continue;
        };
        let kind = statement_kind(sql);
        let out = log.time(kind, Some(parent), || {
            engine.execute_statement(&stmt, &params)
        });
        match out {
            Ok(ExecOutcome::Inserted(n)) if kind == "sql.count" => c_series.push(n),
            Ok(_) => {}
            Err(e) => tally.check(false, &format!("SQL replay: {e} in {sql:?}")),
        }
    }
    for (metric, span) in [
        ("sql.parse_s", "sql.parse"),
        ("sql.extend_s", "sql.extend"),
        ("sql.count_s", "sql.count"),
        ("sql.filter_s", "sql.filter"),
        ("sql.ddl_s", "sql.ddl"),
    ] {
        let v: f64 = log
            .spans()
            .iter()
            .filter(|s| s.parent == Some(parent) && s.name == span)
            .map(|s| s.duration_s())
            .sum();
        add(layers, metric, v);
    }
    c_series
}

/// Round medians for times, round-identical sums for counts, and the
/// derived ratios.
fn summarize(rounds: &[Layers], tally: &mut Tally) -> BTreeMap<String, f64> {
    // Counts that must repeat exactly in every round (the determinism
    // gate); other counts are reported from the first round.
    const GATED: [&str; 6] = [
        "memory.r_prime_rows",
        "memory.r_rows",
        "memory.c_total",
        "engine.page_accesses",
        "sql.statements",
        "rules.count",
    ];
    const COUNTS: [&str; 8] = [
        "memory.sorted_rows",
        "engine.seq_reads",
        "engine.rand_reads",
        "engine.writes",
        "engine.cache_hits",
        "engine.reads",
        "engine.pool_steals",
        "engine.estimated_io_ms",
    ];
    let mut out = BTreeMap::new();
    for &name in rounds.iter().flat_map(|r| r.keys()) {
        let values: Vec<f64> = rounds
            .iter()
            .map(|r| r.get(name).copied().unwrap_or(0.0))
            .collect();
        let v = if GATED.contains(&name) {
            tally.check(
                values.iter().all(|v| *v == values[0]),
                &format!("{name} varies between rounds: {values:?}"),
            );
            values[0]
        } else if COUNTS.contains(&name) {
            values[0]
        } else {
            median(&values).unwrap_or(0.0)
        };
        out.insert(name.to_string(), v);
    }
    let get = |k: &str| out.get(k).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let derived = [
        (
            "memory.survival_ratio",
            ratio(get("memory.r_rows"), get("memory.r_prime_rows")),
        ),
        (
            "memory.sort_rows_per_s",
            ratio(
                get("memory.sorted_rows"),
                get("memory.items_sort_s") + get("memory.tid_sort_s"),
            ),
        ),
        (
            "engine.cache_hit_ratio",
            ratio(
                get("engine.cache_hits"),
                get("engine.cache_hits") + get("engine.reads"),
            ),
        ),
        ("obs.mine_rounds", rounds.len() as f64),
    ];
    for (name, v) in derived {
        out.insert(name.to_string(), v);
    }
    out
}
