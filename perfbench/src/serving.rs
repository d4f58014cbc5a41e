//! The serving phase: an in-process `Server` on loopback driven by
//! closed-loop client connections (each sends its next request only after
//! the previous one completed; two on `serve_rw`, one in the mining
//! workloads' probe) in slices between the mines, then a byte-for-byte
//! check of every served outcome against the in-process `outcome_to_json`.
//!
//! Each client owns a seeded script of operations and a disjoint set of
//! min-supports (and, on `serve_rw`, its own registered dataset), so the
//! cache / delta / full route of each request depends on that client's
//! script alone, not on how the two clients interleave.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use setm_core::{Dataset, MinSupport, Miner, MiningParams, TransId};
use setm_serve::client::{Client, ClientError};
use setm_serve::json::Json;
use setm_serve::{outcome_to_json, Registry, ServeConfig, Server};

use crate::mining::{backend, MIN_CONFIDENCE};
use crate::rss;
use crate::spans::SpanLog;
use crate::stats::{median, tail, Tail, Tally};

const WORKERS: usize = 2;

/// Where a mine or an append goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    /// A builtin dataset of the server's catalog, by name.
    Builtin(&'static str),
    /// The client's own registered dataset at a version (`serve_rw`).
    Own(u64),
    /// The workload's preloaded dataset at version 1 (mining workloads).
    Shared,
}

#[derive(Debug, Clone)]
pub enum Op {
    Mine {
        target: Target,
        backend: usize,
        support: f64,
        threads: usize,
    },
    Append {
        own: bool,
        batch: Vec<(TransId, Vec<u32>)>,
    },
}

/// One client's operations. On `serve_rw` the script repeats in passes,
/// each against a freshly registered copy of the client's own dataset, so
/// every pass serves byte-identical outcomes.
pub struct Script {
    pub ops: Vec<Op>,
    /// Version `v` of the client's own dataset is `own_versions[v - 1]`.
    pub own_versions: Vec<Arc<Dataset>>,
    pub repeat: bool,
}

/// A served workload: the server's catalog, the scripts, and the
/// references served outcomes are checked against.
pub struct ServeSpec {
    /// Name of the preloaded dataset for [`Target::Shared`].
    pub shared_name: &'static str,
    pub shared: Option<Arc<Dataset>>,
    pub builtins: bool,
    pub scripts: Vec<Script>,
    /// Builtin mines `(dataset, backend, support)` served once during
    /// set-up, so the builtins are loaded and their outcomes cached before
    /// timing starts, as on a server that has been up for a while.
    pub warm: Vec<(&'static str, usize, f64)>,
}

/// Connections the set-up warms the cache over at once (below the
/// scheduler's default queue bound of 32).
const WARM_CONNECTIONS: usize = 8;

fn own_name(client: usize, pass: usize) -> String {
    format!("rw-{client}-{pass}")
}

fn transactions(ds: &Dataset) -> Vec<(TransId, Vec<u32>)> {
    ds.transactions()
        .map(|(t, items)| (t, items.to_vec()))
        .collect()
}

fn mine_request(support: f64, b: usize, threads: usize) -> Miner {
    Miner::new(MiningParams::new(
        MinSupport::Fraction(support),
        MIN_CONFIDENCE,
    ))
    .backend(backend(b))
    .threads(threads)
}

/// A running server and the thread that runs it.
pub struct Running {
    addr: SocketAddr,
    handle: JoinHandle<()>,
}

impl Running {
    /// Drain and stop the server, waiting for its accept loop to return.
    pub fn stop(self) -> Result<(), ClientError> {
        let sent = Client::connect(self.addr)
            .map_err(ClientError::from)
            .and_then(|mut c| c.shutdown());
        self.handle.join().expect("server thread panicked");
        sent.map(|_| ())
    }
}

/// Start the server, register each client's first own dataset and load
/// the builtins the scripts mine. This is the workload's serving set-up.
pub fn start(spec: &ServeSpec) -> Result<Running, ClientError> {
    let mut registry = if spec.builtins {
        Registry::with_builtins()
    } else {
        Registry::empty()
    };
    if let Some(ds) = &spec.shared {
        registry.register_dataset(spec.shared_name, "benchmark dataset", (**ds).clone());
    }
    let config = ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    };
    let server = Server::bind(config, registry)?;
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    let running = Running { addr, handle };
    let warmed = (|| {
        let mut client = Client::connect(addr)?;
        for (c, script) in spec.scripts.iter().enumerate() {
            if let Some(base) = script.own_versions.first() {
                client.register_dataset(&own_name(c, 0), &transactions(base))?;
            }
        }
        for chunk in spec.warm.chunks(WARM_CONNECTIONS) {
            std::thread::scope(|s| {
                let handles: Vec<_> = chunk
                    .iter()
                    .map(|&(name, b, support)| {
                        s.spawn(move || {
                            Client::connect(addr)?
                                .mine(name, mine_request(support, b, 1))
                                .map(|_| ())
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .try_for_each(|h| h.join().expect("warm-up thread panicked"))
            })?;
        }
        client.status().map(|_| ())
    })();
    match warmed {
        Ok(()) => Ok(running),
        Err(e) => {
            let _ = running.stop();
            Err(e)
        }
    }
}

struct MineSample {
    client: usize,
    latency_ms: f64,
    accept_ms: f64,
    wait_ms: f64,
    pass: usize,
    served_via: String,
}

struct TracedSample {
    /// Client-side latency plus the trace fetch that followed.
    with_fetch_ms: f64,
    queue_ms: Option<f64>,
    mine_ms: Option<f64>,
    transport_ms: Option<f64>,
}

#[derive(Default)]
struct ClientLog {
    mines: Vec<MineSample>,
    traced: Vec<TracedSample>,
    untraced_ms: Vec<f64>,
    /// `(pass, latency)` of every append.
    appends_ms: Vec<(usize, f64)>,
    /// Versions returned by appends to the shared dataset (checked for
    /// gaps and duplicates afterwards).
    shared_versions: Vec<u64>,
    /// The first served outcome of each script position; every later
    /// pass must serve the same bytes.
    raw: HashMap<usize, String>,
    /// Client-side interval of every request, for the span log.
    intervals: Vec<(&'static str, Instant, Instant)>,
    requests: u64,
    passes_done: usize,
    /// The process's peak resident memory when this client finished its
    /// first pass of a repeating script.
    first_pass_peak_mb: Option<f64>,
    tally: Tally,
}

fn dataset_spec(spec: &ServeSpec, client: usize, pass: usize, target: Target) -> String {
    match target {
        Target::Builtin(name) => name.to_string(),
        Target::Own(v) => format!("{}@{v}", own_name(client, pass)),
        Target::Shared => format!("{}@1", spec.shared_name),
    }
}

/// Labels of the server's span log, relative to the job's start.
fn marks(spans: &[(String, f64)]) -> (Option<f64>, Option<f64>, Option<f64>) {
    let at = |label: &str| spans.iter().find(|(l, _)| l == label).map(|(_, t)| *t);
    let queued = at("queued");
    let planned = at("planned");
    let done = at("serialized").or_else(|| at("served_from_cache"));
    (queued, planned, done)
}

/// One client's connection and place in its script, kept across the
/// serving slices of a run.
struct ClientState {
    c: usize,
    conn: Option<Client>,
    log: ClientLog,
    pass: usize,
    i: usize,
    own_version: u64,
    done: bool,
}

impl ClientState {
    fn connect(c: usize, addr: SocketAddr) -> Self {
        let mut log = ClientLog::default();
        let conn = match Client::connect(addr) {
            Ok(client) => Some(client),
            Err(e) => {
                eprintln!("perfbench: client {c} cannot connect: {e}");
                log.tally.record(false);
                None
            }
        };
        ClientState {
            c,
            done: conn.is_none(),
            conn,
            log,
            pass: 0,
            i: 0,
            own_version: 1,
        }
    }

    /// Run operations until `deadline` passes, `max_ops` of them ran, or
    /// the script ends (or the connection fails).
    fn advance(&mut self, spec: &ServeSpec, deadline: Instant, max_ops: usize, traced: bool) {
        let mut ran = 0;
        while !self.done && ran < max_ops && Instant::now() < deadline {
            self.step(spec, traced);
            ran += 1;
        }
    }

    /// One operation of the script (preceded, at the end of a repeating
    /// script, by registering the next pass's dataset).
    fn step(&mut self, spec: &ServeSpec, traced: bool) {
        let ClientState {
            c,
            conn,
            log,
            pass,
            i,
            own_version,
            done,
        } = self;
        let (c, script) = (*c, &spec.scripts[*c]);
        let Some(client) = conn.as_mut() else {
            *done = true;
            return;
        };
        if *i == script.ops.len() {
            if !script.repeat {
                log.passes_done = 1;
                *done = true;
                return;
            }
            *pass += 1;
            log.passes_done = *pass;
            if *pass == 1 {
                log.first_pass_peak_mb = Some(rss::peak_mb());
            }
            *i = 0;
            *own_version = 1;
            let base = transactions(&script.own_versions[0]);
            let t0 = Instant::now();
            let ok = client.register_dataset(&own_name(c, *pass), &base);
            log.intervals.push(("serve.register", t0, Instant::now()));
            log.requests += 1;
            log.tally.record(ok.is_ok());
            if ok.is_err() {
                *done = true;
                return;
            }
        }
        let (pass, i) = (*pass, *i);
        let result = match &script.ops[i] {
            Op::Mine {
                target,
                backend,
                support,
                threads,
            } => {
                let name = dataset_spec(spec, c, pass, *target);
                let t0 = Instant::now();
                let job = client.submit(&name, mine_request(*support, *backend, *threads));
                let t1 = Instant::now();
                let reply = job.and_then(|_| client.wait_outcome());
                let t2 = Instant::now();
                log.intervals.push(("serve.mine", t0, t2));
                log.requests += 1;
                reply.and_then(|reply| {
                    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
                    let latency_ms = ms(t0, t2);
                    let stored = log
                        .raw
                        .entry(i)
                        .or_insert_with(|| reply.raw_outcome.clone());
                    if *stored != reply.raw_outcome {
                        log.tally.mismatch(&format!(
                            "client {c} op {i}: pass {pass} served other bytes than pass 0"
                        ));
                    }
                    // Every other mine of a traced run fetches its
                    // server-side span log; the rest are its untraced
                    // twins for the overhead ratio.
                    if traced && i % 2 == 0 {
                        let spans = client.trace(reply.job);
                        log.requests += 1;
                        let t3 = Instant::now();
                        log.intervals.push(("serve.trace_fetch", t2, t3));
                        let (queued, planned, done) =
                            spans.as_deref().map(marks).unwrap_or_default();
                        log.traced.push(TracedSample {
                            with_fetch_ms: ms(t0, t3),
                            queue_ms: queued.zip(planned).map(|(q, p)| p - q),
                            mine_ms: planned.zip(done).map(|(p, d)| d - p),
                            transport_ms: done.map(|d| latency_ms - d),
                        });
                        spans.map(|_| ())?;
                    } else if traced {
                        log.untraced_ms.push(latency_ms);
                    }
                    log.mines.push(MineSample {
                        client: c,
                        latency_ms,
                        accept_ms: ms(t0, t1),
                        wait_ms: ms(t1, t2),
                        pass,
                        served_via: reply.served_via.unwrap_or_default(),
                    });
                    Ok(())
                })
            }
            Op::Append { own, batch } => {
                let name = if *own {
                    own_name(c, pass)
                } else {
                    spec.shared_name.to_string()
                };
                let t0 = Instant::now();
                let version = client.append_batch(&name, batch);
                let t1 = Instant::now();
                log.intervals.push(("serve.append", t0, t1));
                log.appends_ms.push((pass, (t1 - t0).as_secs_f64() * 1e3));
                log.requests += 1;
                version.map(|v| {
                    if *own {
                        *own_version += 1;
                        if v != *own_version {
                            log.tally.mismatch(&format!(
                                "client {c}: append returned version {v}, expected {own_version}"
                            ));
                        }
                    } else {
                        log.shared_versions.push(v);
                    }
                })
            }
        };
        log.tally.record(result.is_ok());
        match result {
            Ok(()) => {}
            Err(ClientError::Server { code, message, .. }) => {
                eprintln!("perfbench: client {c} op {i} refused: {code}: {message}");
            }
            Err(e) => {
                eprintln!("perfbench: client {c} op {i} failed: {e}");
                *done = true;
            }
        }
        self.i += 1;
    }
}

/// Metrics the serving phase reports.
pub struct ServeResult {
    pub mine_ms: Vec<f64>,
    pub append_ms: Vec<f64>,
    /// Tails over a fixed unit of work: per complete pass (every client's
    /// script once), the median pass's tail. A faster server runs more
    /// passes, not a higher percentile.
    pub mine_tail: Option<Tail>,
    pub append_tail: Option<Tail>,
    pub tail_passes: usize,
    pub rps: f64,
    pub layers: Vec<(String, f64)>,
    /// `cache/delta/full` counts over each client's first pass of a
    /// repeating script: a pure function of the seed. `None` when a
    /// client did not complete its first pass.
    pub first_pass_via: Option<String>,
    pub requests: u64,
    pub clients: usize,
    /// Peak resident memory from the session's start to the end of the
    /// clients' first pass of a repeating script (or, when a pass did not
    /// complete, to the end of serving; reference checks excluded).
    pub peak_mb: f64,
    pub tally: Tally,
}

fn counter(m: &Json, name: &str) -> f64 {
    m.get(name).and_then(Json::as_f64).unwrap_or(0.0)
}

fn histogram(m: &Json, name: &str, field: &str) -> f64 {
    m.get(name)
        .and_then(|h| h.get(field))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// A serving run in slices: each client keeps its connection and its
/// place in the script between slices, so serving can alternate with
/// mining over the whole of a run.
pub struct Session<'a> {
    spec: &'a ServeSpec,
    addr: SocketAddr,
    traced: bool,
    clients: Vec<ClientState>,
    before: Option<(Json, u64)>,
    busy: Duration,
}

impl<'a> Session<'a> {
    /// Connect the clients to a started server. The serving peak memory
    /// is measured from here.
    pub fn start(spec: &'a ServeSpec, server: &Running, traced: bool) -> Self {
        let before = traced.then(|| snapshot(server.addr)).flatten();
        rss::reset_peak();
        let clients = (0..spec.scripts.len())
            .map(|c| ClientState::connect(c, server.addr))
            .collect();
        Session {
            spec,
            addr: server.addr,
            traced,
            clients,
            before,
            busy: Duration::ZERO,
        }
    }

    /// Serve until `deadline`, or until each client ran `max_ops` more
    /// operations; each client closed-loop on a thread of its own (a lone
    /// client on the calling thread).
    pub fn advance(&mut self, deadline: Instant, max_ops: usize) {
        let t = Instant::now();
        let (spec, traced) = (self.spec, self.traced);
        if let [only] = self.clients.as_mut_slice() {
            only.advance(spec, deadline, max_ops, traced);
        } else {
            std::thread::scope(|s| {
                for client in &mut self.clients {
                    s.spawn(move || client.advance(spec, deadline, max_ops, traced));
                }
            });
        }
        self.busy += t.elapsed();
    }

    /// Seconds spent serving so far.
    pub fn busy_s(&self) -> f64 {
        self.busy.as_secs_f64()
    }

    /// Operations of the current passes run so far, and in all scripts.
    pub fn progress(&self) -> (usize, usize) {
        let done = self.clients.iter().map(|c| c.i).sum();
        let total = self.spec.scripts.iter().map(|s| s.ops.len()).sum();
        (done, total)
    }

    /// Every client's script ended (or its connection failed).
    pub fn done(&self) -> bool {
        self.clients.iter().all(|c| c.done)
    }

    /// Verify every served outcome and compute the serving metrics.
    pub fn finish(self, spans: &mut SpanLog, parent: Option<usize>) -> ServeResult {
        let Session {
            spec,
            addr,
            traced,
            clients,
            before,
            busy,
        } = self;
        let wall_s = busy.as_secs_f64();
        let logs: Vec<ClientLog> = clients.into_iter().map(|c| c.log).collect();
        let loop_peak_mb = rss::peak_mb();
        let pass_peaks: Option<Vec<f64>> = logs.iter().map(|l| l.first_pass_peak_mb).collect();
        let peak_mb = pass_peaks.map_or(loop_peak_mb, |p| p.into_iter().fold(0.0, f64::max));
        let after = traced.then(|| snapshot(addr)).flatten();
        summarize(
            spec, logs, wall_s, peak_mb, traced, before, after, spans, parent,
        )
    }
}

#[allow(clippy::too_many_arguments)]
fn summarize(
    spec: &ServeSpec,
    logs: Vec<ClientLog>,
    wall_s: f64,
    peak_mb: f64,
    traced: bool,
    before: Option<(Json, u64)>,
    after: Option<(Json, u64)>,
    spans: &mut SpanLog,
    parent: Option<usize>,
) -> ServeResult {
    let mut tally = Tally::default();
    let mut serialize_ms = Vec::new();
    let verifying = spans.open("serve.verify", parent);
    verify(spec, &logs, &mut tally, &mut serialize_ms);
    spans.close(verifying);
    for log in &logs {
        for &(name, a, b) in &log.intervals {
            spans.push(name, parent, a, b);
        }
    }

    let mines: Vec<&MineSample> = logs.iter().flat_map(|l| l.mines.iter()).collect();
    let appends: Vec<(usize, f64)> = logs
        .iter()
        .flat_map(|l| l.appends_ms.iter().copied())
        .collect();
    let completed = (mines.len() + appends.len()) as f64;
    let tail_passes = logs.iter().map(|l| l.passes_done).min().unwrap_or(0);
    let mine_tail = pass_tail(
        mines.iter().map(|m| (m.pass, m.latency_ms)).collect(),
        tail_passes,
    );
    let append_tail = pass_tail(appends.clone(), tail_passes);
    let complete = spec.scripts.iter().all(|s| s.repeat) && tail_passes > 0;
    let first_pass_via = complete.then(|| {
        let per_client: Vec<String> = (0..spec.scripts.len())
            .map(|c| {
                let count = |via: &str| {
                    mines
                        .iter()
                        .filter(|m| m.client == c && m.pass == 0 && m.served_via == via)
                        .count()
                };
                format!(
                    "c{c}:{}/{}/{}",
                    count("cache"),
                    count("delta"),
                    count("full")
                )
            })
            .collect();
        per_client.join(",")
    });
    let requests: u64 = logs.iter().map(|l| l.requests).sum();

    let mut layers = Vec::new();
    if traced {
        let med = |xs: Vec<f64>| median(&xs).unwrap_or(0.0);
        let samples: Vec<&TracedSample> = logs.iter().flat_map(|l| l.traced.iter()).collect();
        let untraced: Vec<f64> = logs
            .iter()
            .flat_map(|l| l.untraced_ms.iter().copied())
            .collect();
        layers.push((
            "serve.accept_ms".into(),
            med(mines.iter().map(|m| m.accept_ms).collect()),
        ));
        layers.push((
            "serve.outcome_wait_ms".into(),
            med(mines.iter().map(|m| m.wait_ms).collect()),
        ));
        layers.push((
            "serve.queue_ms".into(),
            med(samples.iter().filter_map(|s| s.queue_ms).collect()),
        ));
        layers.push((
            "serve.mine_ms".into(),
            med(samples.iter().filter_map(|s| s.mine_ms).collect()),
        ));
        layers.push((
            "serve.transport_ms".into(),
            med(samples.iter().filter_map(|s| s.transport_ms).collect()),
        ));
        layers.push(("serve.serialize_ms".into(), med(serialize_ms)));
        // What the traced requests cost, with their trace fetches, over
        // what as many untraced requests cost.
        let traced_ms: f64 = samples.iter().map(|s| s.with_fetch_ms).sum();
        let mean_untraced = untraced.iter().sum::<f64>() / untraced.len().max(1) as f64;
        let untraced_ms = mean_untraced * samples.len() as f64;
        layers.push(("obs.serve_traced_s".into(), traced_ms / 1e3));
        layers.push(("obs.serve_untraced_s".into(), untraced_ms / 1e3));
        if let (Some(b), Some(a)) = (&before, &after) {
            let delta = |name: &str| counter(&a.0, name) - counter(&b.0, name);
            let (hits, via_delta, full) = (
                delta("setm_cache_hits_total"),
                delta("setm_served_delta_total"),
                delta("setm_served_full_total"),
            );
            let served = (hits + via_delta + full).max(1.0);
            layers.push(("serve.cache_share".into(), hits / served));
            layers.push(("serve.delta_share".into(), via_delta / served));
            layers.push(("serve.full_share".into(), full / served));
            layers.push((
                "serve.bytes_out_per_req".into(),
                delta("setm_conn_bytes_out_total") / (requests.max(1)) as f64,
            ));
            layers.push((
                "serve.rate_limited".into(),
                delta("setm_conn_rate_limited_total"),
            ));
            layers.push(("serve.rejected".into(), (a.1 - b.1) as f64));
            layers.push((
                "serve.queue_wait_p50_ms".into(),
                histogram(&a.0, "setm_scheduler_queue_wait_ms", "p50_ms"),
            ));
            layers.push((
                "serve.queue_wait_p99_ms".into(),
                histogram(&a.0, "setm_scheduler_queue_wait_ms", "p99_ms"),
            ));
        } else {
            tally.check(false, "metrics / status verbs failed");
        }
    }

    for log in &logs {
        tally.absorb(log.tally);
    }
    ServeResult {
        mine_ms: mines.iter().map(|m| m.latency_ms).collect(),
        append_ms: appends.iter().map(|a| a.1).collect(),
        mine_tail,
        append_tail,
        tail_passes,
        rps: completed / wall_s,
        layers,
        first_pass_via,
        requests,
        clients: spec.scripts.len(),
        peak_mb,
        tally,
    }
}

/// The server's metrics registry and its `rejected` status counter.
fn snapshot(addr: SocketAddr) -> Option<(Json, u64)> {
    let mut client = Client::connect(addr).ok()?;
    let metrics = client.metrics().ok()?;
    let status = client.status().ok()?;
    Some((metrics, status.rejected))
}

/// What makes two served mines the same request: target, the owning
/// client for an own dataset, backend, support bits and threads.
type RequestKey = (Target, Option<usize>, usize, u64, usize);

/// Check every served outcome against the in-process `outcome_to_json`
/// of the same request on the same dataset version, computing each
/// distinct reference once.
fn verify(spec: &ServeSpec, logs: &[ClientLog], tally: &mut Tally, serialize_ms: &mut Vec<f64>) {
    let local = spec.builtins.then(Registry::with_builtins);
    let mut refs: HashMap<RequestKey, Option<String>> = HashMap::new();
    for (c, log) in logs.iter().enumerate() {
        let script = &spec.scripts[c];
        let mut positions: Vec<_> = log.raw.iter().collect();
        positions.sort_by_key(|(i, _)| **i);
        for (&i, served) in positions {
            let Op::Mine {
                target,
                backend,
                support,
                threads,
            } = &script.ops[i]
            else {
                continue;
            };
            let own_client = matches!(target, Target::Own(_)).then_some(c);
            let key = (*target, own_client, *backend, support.to_bits(), *threads);
            let expected = refs.entry(key).or_insert_with(|| {
                let dataset = match target {
                    Target::Builtin(name) => local.as_ref().and_then(|r| r.get(name).ok()),
                    Target::Own(v) => script.own_versions.get(*v as usize - 1).cloned(),
                    Target::Shared => spec.shared.clone(),
                };
                let outcome =
                    dataset.and_then(|d| mine_request(*support, *backend, *threads).run(&d).ok());
                outcome.map(|o| {
                    let t = Instant::now();
                    let json = outcome_to_json(&o).to_string();
                    serialize_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    json
                })
            });
            let what = match expected {
                None => "has no in-process reference",
                Some(expected) if expected != served => "differs from the in-process one",
                Some(_) => "",
            };
            tally.check(
                what.is_empty(),
                &format!("client {c} op {i} ({target:?}): served outcome {what}"),
            );
        }
    }
    // Appends to the shared dataset must have produced
    // versions 2, 3, ... with no gap and no duplicate.
    let mut shared: Vec<u64> = logs
        .iter()
        .flat_map(|l| l.shared_versions.iter().copied())
        .collect();
    shared.sort_unstable();
    tally.check(
        shared.iter().enumerate().all(|(j, &v)| v == j as u64 + 2),
        &format!("shared appends returned versions {shared:?}"),
    );
}

/// The median of the per-pass tails of `(pass, latency)` samples over the
/// first `passes` passes (the lower middle one, so it is a real pass's
/// tail); all samples' tail when no pass completed.
fn pass_tail(samples: Vec<(usize, f64)>, passes: usize) -> Option<Tail> {
    let mut tails: Vec<Tail> = (0..passes)
        .filter_map(|p| {
            tail(
                &samples
                    .iter()
                    .filter(|s| s.0 == p)
                    .map(|s| s.1)
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    if tails.is_empty() {
        return tail(&samples.iter().map(|s| s.1).collect::<Vec<_>>());
    }
    tails.sort_by(|a, b| a.value.total_cmp(&b.value));
    Some(tails[(tails.len() - 1) / 2])
}
