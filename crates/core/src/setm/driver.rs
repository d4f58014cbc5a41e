//! The one Figure 4 loop every execution runs.
//!
//! [`drive`] owns the algorithm's control: the resolved support count
//! and length cap, the k = 1 row, re-planning each iteration from the
//! live statistics of the previous one, recording every trace row (and
//! reporting it to the run's sink the moment it exists), collecting the
//! non-empty `C_k`, and stopping when `R_k = {}`. A backend only
//! supplies its physical operators through [`Figure4`], so the three
//! executions cannot drift apart in anything but how they touch data.

use crate::data::Dataset;
use crate::pattern::CountRelation;
use crate::setm::plan::{LiveStats, PhysicalPlan, Planner};
use crate::setm::{ExecCtx, IterationTrace, SetmResult};
use setm_obs::ObsEvent;

/// One execution's operators for the Figure 4 loop. [`drive`] calls
/// `count_c1` once, `start_loop` once if there is a k = 2 iteration,
/// `iterate` once per k ≥ 2, and `finish` last.
///
/// Trace rows returned by the operators carry only what the execution
/// measured (`r_prime_tuples`, `r_tuples`, `r_kbytes`, the I/O fields
/// and, for k ≥ 2, `candidates_pruned`); the driver stamps `k`,
/// `c_len`, `plan` and the k = 1 `candidates_pruned`.
pub(crate) trait Figure4 {
    type Output;
    type Error;

    /// `C_1` under the run's constraints (support filter applied) and
    /// the k = 1 row for the unfiltered `SALES` relation.
    fn count_c1(&mut self, min_count: u64) -> Result<(CountRelation, IterationTrace), Self::Error>;

    /// Set up the loop from k = 2. `c1` is `C_1` unless it came out
    /// empty. Returns the planner and the statistics it sees at k = 2
    /// (`r_prev_tuples` = `|R_1|`; the driver fills `c_prev_len`).
    fn start_loop(&mut self, c1: Option<&CountRelation>) -> (Planner, LiveStats);

    /// Iteration `k` under `plan`: extend, sort, count and filter, and
    /// leave `R_k` as the next `R_{k-1}`. An execution whose topology is
    /// fixed pins `plan.shards` to the shards it actually ran.
    fn iterate(
        &mut self,
        k: usize,
        plan: &mut PhysicalPlan,
        min_count: u64,
    ) -> Result<(CountRelation, IterationTrace), Self::Error>;

    /// Wrap the finished result in the execution's own report.
    fn finish(self, result: SetmResult) -> Result<Self::Output, Self::Error>;
}

/// Run Algorithm SETM over `exec`'s operators.
pub(crate) fn drive<X: Figure4>(
    dataset: &Dataset,
    ctx: &ExecCtx,
    mut exec: X,
) -> Result<X::Output, X::Error> {
    let n_txns = dataset.n_transactions();
    let min_count = ctx.params.min_support.to_count(n_txns.max(1));
    let max_len = ctx.params.max_pattern_len.unwrap_or(usize::MAX);
    let mut counts: Vec<CountRelation> = Vec::new();
    let mut trace: Vec<IterationTrace> = Vec::new();
    let mut record = |row: IterationTrace| {
        ctx.sink.on_event(&ObsEvent::Iteration(row.snapshot()));
        trace.push(row);
    };

    // k = 1: sort R1 on item; C1 := generate counts from R1.
    let (c1, row) = exec.count_c1(min_count)?;
    let c1_len = c1.len() as u64;
    record(IterationTrace {
        k: 1,
        c_len: c1_len,
        candidates_pruned: k1_pruned(dataset, ctx),
        plan: None,
        ..row
    });
    if !c1.is_empty() {
        counts.push(c1);
    }

    // A cap of 1 — or 0, which the facade rejects up front — stops after
    // C1 on every backend.
    if max_len > 1 && n_txns > 0 {
        let (planner, mut stats) = exec.start_loop(counts.first());
        stats.c_prev_len = c1_len;
        for k in 2.. {
            let mut plan = planner.plan_iteration(k, &stats);
            let (c_k, row) = exec.iterate(k, &mut plan, min_count)?;
            let row = IterationTrace { k, c_len: c_k.len() as u64, plan: Some(plan), ..row };
            record(row);
            stats.r_prev_tuples = row.r_tuples;
            stats.c_prev_len = row.c_len;
            if !c_k.is_empty() {
                counts.push(c_k);
            }
            // until R_k = {}
            if row.r_tuples == 0 || k >= max_len {
                break;
            }
        }
    }

    exec.finish(SetmResult { counts, trace, n_transactions: n_txns, min_support_count: min_count })
}

/// The k = 1 row of an execution that keeps `SALES` as plain rows of
/// two 4-byte columns (the memory and SQL executions).
pub(crate) fn sales_row(dataset: &Dataset) -> IterationTrace {
    let n_rows = dataset.n_rows();
    IterationTrace {
        r_prime_tuples: n_rows,
        r_tuples: n_rows,
        r_kbytes: n_rows as f64 * 8.0 / 1024.0,
        ..IterationTrace::default()
    }
}

/// The k = 1 `candidates_pruned`: `SALES` rows whose item may not start
/// a pattern under the run's constraints.
fn k1_pruned(dataset: &Dataset, ctx: &ExecCtx) -> u64 {
    let cc = ctx.constraints;
    if cc.is_empty() {
        return 0;
    }
    dataset.items().iter().filter(|&&it| !cc.allows_at(0, it)).count() as u64
}
