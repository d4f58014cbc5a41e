//! The three workloads and the inputs each generates from its seed.
//!
//! * `mine_dense` — Quest T20.I6, 20,000 transactions (~422K rows) sampled
//!   from a fixed 40,000-transaction population, 1% support: `R'_2` is
//!   millions of rows, far beyond the engine's 256-frame pool and the CPU
//!   caches, so the bulk operators (items-sort, extension join, external
//!   sort, SQL join) dominate.
//! * `mine_sparse` — the paper's retail stand-in (46,873 transactions,
//!   115,568 rows), 0.1% support: `R'_2` is small and `R_1` fits the pool,
//!   so per-iteration and per-statement fixed costs dominate.
//! * `serve_rw` — mining is tiny; transport, protocol, scheduler,
//!   registry, outcome cache and the incremental frontier do the work.
//!
//! Every workload reports every metric: the mining workloads also serve
//! their own dataset (a fixed probe of cached mines and appends to the big
//! dataset), and `serve_rw` also mines its datasets in-process, which is
//! the floor its served latency sits on.

use std::sync::Arc;

use setm_core::{Dataset, TransId};
use setm_datagen::{QuestConfig, RetailConfig};
use setm_serve::Registry;

use crate::mining::MineCase;
use crate::rng::Rng;
use crate::serving::{Op, Script, ServeSpec, Target};

pub const WORKLOADS: [&str; 3] = ["mine_dense", "mine_sparse", "serve_rw"];

/// A workload's generated inputs.
pub struct Inputs {
    pub cases: Vec<MineCase>,
    pub serve: ServeSpec,
    pub pace: Pace,
}

/// How a workload's serving is spread over its run. Serving runs in
/// slices between mines from the second mining round on, so that mining
/// and serving each sample most of the run, not one stretch of it.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Serve this share of the wall time (repeating scripts).
    Share(f64),
    /// Spread the script's operations evenly (a fixed probe).
    Spread,
}

pub fn generate(workload: &str, seed: u64) -> Option<Inputs> {
    let mut rng = Rng::new(seed);
    match workload {
        "mine_dense" => {
            let population = QuestConfig::t20_i6(40_000).generate();
            let dataset = sample_transactions(&population, 20_000, &mut rng);
            // The probe mines at 2%: its outcome (13-19 KB) stays well
            // inside one loopback segment on every seed, where 1% (38-86
            // KB) straddles it and the served latency would flip between
            // two TCP regimes from seed to seed.
            Some(mining_inputs("dense", dataset, 0.01, 0.02, &mut rng))
        }
        "mine_sparse" => {
            let mut config = RetailConfig::paper();
            config.seed = rng.next_u64();
            Some(mining_inputs(
                "sparse",
                config.generate(),
                0.001,
                0.001,
                &mut rng,
            ))
        }
        "serve_rw" => Some(serve_rw(&mut rng)),
        _ => None,
    }
}

/// `n` transactions drawn without replacement from `population`, renumbered
/// 1..=n in population order.
///
/// The seed draws a sample from a fixed Quest population instead of
/// regenerating the pattern table: a new pattern table moves Σ|R'_k| by
/// ±10% from seed to seed (which patterns happen to be frequent at 1%),
/// a new sample by about ±1%, so a seed changes the inputs without
/// changing how much work they are.
fn sample_transactions(population: &Dataset, n: usize, rng: &mut Rng) -> Dataset {
    let txns: Vec<&[u32]> = population.transactions().map(|(_, items)| items).collect();
    let mut order: Vec<usize> = (0..txns.len()).collect();
    let n = n.min(order.len());
    for i in 0..n {
        let j = i + rng.below(order.len() - i);
        order.swap(i, j);
    }
    let mut picked = order[..n].to_vec();
    picked.sort_unstable();
    Dataset::from_transactions(picked.iter().zip(1..).map(|(&k, tid)| (tid, txns[k])))
}

/// Mines in a mining workload's serving probe, and appends.
const PROBE_MINES: usize = 120;
const PROBE_APPENDS: usize = 64;

fn mining_inputs(
    name: &'static str,
    dataset: Dataset,
    support: f64,
    probe_support: f64,
    rng: &mut Rng,
) -> Inputs {
    let dataset = Arc::new(dataset);
    let label = format!(
        "{name} ({} txns, {} rows) at {support}",
        dataset.n_transactions(),
        dataset.n_rows()
    );
    // One client: an append copies the whole large snapshot, and a second
    // client's appends would land on the first client's mines at random.
    let mut next_tid = dataset.tids().last().map_or(1, |t| t + 1);
    let mut ops: Vec<Op> = (0..PROBE_MINES)
        .map(|_| Op::Mine {
            target: Target::Shared,
            backend: 0,
            support: probe_support,
            threads: 2,
        })
        .collect();
    for _ in 0..PROBE_APPENDS {
        let batch = copy_transactions(&dataset, 1 + rng.below(4), &mut next_tid, rng);
        let at = 1 + rng.below(ops.len());
        ops.insert(at, Op::Append { own: false, batch });
    }
    let scripts = vec![Script {
        ops,
        own_versions: Vec::new(),
        repeat: false,
    }];
    Inputs {
        cases: vec![MineCase {
            label,
            dataset: Arc::clone(&dataset),
            support,
            threads: 2,
        }],
        serve: ServeSpec {
            shared_name: name,
            shared: Some(dataset),
            builtins: false,
            scripts,
            warm: Vec::new(),
        },
        pace: Pace::Spread,
    }
}

/// `n` new transactions, each a copy of a random existing one, under fresh
/// trans_ids.
fn copy_transactions(
    ds: &Dataset,
    n: usize,
    next_tid: &mut TransId,
    rng: &mut Rng,
) -> Vec<(TransId, Vec<u32>)> {
    let txns = ds.n_transactions() as usize;
    (0..n)
        .map(|_| {
            let pick = rng.below(txns);
            let items = ds
                .transactions()
                .nth(pick)
                .map(|(_, items)| items.to_vec())
                .unwrap_or_default();
            let tid = *next_tid;
            *next_tid += 1;
            (tid, items)
        })
        .collect()
}

const BUILTINS: [&str; 3] = ["example", "retail-small", "quest-t5"];
/// Transactions of each `serve_rw` client's own dataset.
const OWN_TXNS: u32 = 800;
/// Operations in one pass of a `serve_rw` client script.
const SCRIPT_OPS: usize = 256;
/// Each client's min-supports; disjoint, so no request key is shared.
const SUPPORTS: [[f64; 3]; 2] = [[0.02, 0.04, 0.08], [0.03, 0.05, 0.1]];

fn serve_rw(rng: &mut Rng) -> Inputs {
    let local = Registry::with_builtins();
    let mut scripts = Vec::with_capacity(SUPPORTS.len());
    for (c, supports) in SUPPORTS.iter().enumerate() {
        let mut rng = rng.fork(c as u64);
        // The retail generator pins its shape statistics for any seed, so
        // the mining cost of the own dataset varies little from seed to
        // seed.
        let config = RetailConfig::small(OWN_TXNS, rng.next_u64());
        let mut versions = vec![Arc::new(config.generate())];
        let mut next_tid = versions[0].tids().last().map_or(1, |t| t + 1);
        let mut ops = Vec::with_capacity(SCRIPT_OPS);
        for _ in 0..SCRIPT_OPS {
            // About 1/8 writes: a small batch appended to the client's
            // own dataset, so its next memory mines route via delta.
            if rng.below(8) == 0 {
                let latest = Arc::clone(versions.last().expect("base version"));
                let batch = copy_transactions(&latest, 1 + rng.below(6), &mut next_tid, &mut rng);
                let rows = latest.iter_rows().chain(
                    batch
                        .iter()
                        .flat_map(|(t, items)| items.iter().map(move |&i| (*t, i))),
                );
                versions.push(Arc::new(Dataset::from_pairs(rows)));
                ops.push(Op::Append { own: true, batch });
            } else {
                let t = rng.below(BUILTINS.len() + 1);
                let target = match BUILTINS.get(t) {
                    Some(name) => Target::Builtin(name),
                    None => Target::Own(versions.len() as u64),
                };
                let (backend, support) = (rng.below(3), supports[rng.below(supports.len())]);
                ops.push(Op::Mine {
                    target,
                    backend,
                    support,
                    threads: 1,
                });
            }
        }
        scripts.push(Script {
            ops,
            own_versions: versions,
            repeat: true,
        });
    }
    // Every builtin request key of both clients, served once in set-up.
    let warm = BUILTINS
        .iter()
        .flat_map(|&name| {
            SUPPORTS
                .iter()
                .flatten()
                .flat_map(move |&s| (0..3).map(move |b| (name, b, s)))
        })
        .collect();
    let dataset = |name: &str| local.get(name).expect("builtin dataset");
    let mut cases: Vec<MineCase> = BUILTINS
        .iter()
        .map(|name| MineCase {
            label: name.to_string(),
            dataset: dataset(name),
            support: 0.05,
            threads: 1,
        })
        .collect();
    cases.push(MineCase {
        label: "rw-0 base".into(),
        dataset: Arc::clone(&scripts[0].own_versions[0]),
        support: 0.05,
        threads: 1,
    });
    Inputs {
        cases,
        serve: ServeSpec {
            shared_name: "",
            shared: None,
            builtins: true,
            scripts,
            warm,
        },
        pace: Pace::Share(0.7),
    }
}
