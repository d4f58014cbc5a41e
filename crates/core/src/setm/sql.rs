//! SQL-driven execution of Algorithm SETM.
//!
//! The paper's major claim is that "at least some aspects of data mining
//! can be carried out by using general query languages such as SQL,
//! rather than by developing specialized black box algorithms". This
//! module makes that claim executable: each iteration *emits the
//! Section 4.1 SQL statements as text* — the `R'_k` extension join, the
//! `C_k` count query, and the `R_k` support filter with its trailing
//! `ORDER BY` — and runs them through `setm-sql` against the paged
//! engine. No mining logic lives here; it is all in the SQL.
//!
//! The emitted statements are recorded verbatim in [`SqlRun::statements`]
//! so examples and tests can display exactly what was executed.
//!
//! # Partitioned parallel execution
//!
//! With more than one worker thread ([`ExecCtx::threads`] /
//! `Miner::threads`) the statement pipeline itself is
//! sharded over contiguous `trans_id` partitions — the same
//! weight-balanced partitioner as the in-memory and paged-engine
//! executions ([`crate::setm::shard`]). Each shard is its own
//! [`SqlEngine`] session on its own pager (one connection and one disk
//! per worker, via [`setm_sql::ShardPool`]) holding only its slice of
//! `SALES`; every iteration runs, concurrently on all shards,
//!
//! ```text
//! INSERT INTO Rk_PRIME_SHARD_<i> SELECT p.trans_id, .., q.item FROM .. ;
//! INSERT INTO Ck_PART_<i>  SELECT .., COUNT(*) .. GROUP BY ..          ;   -- no HAVING
//! ```
//!
//! then ships the shard-local count partials to a coordinator session
//! (a `UNION ALL` realized as bulk data movement, like the initial
//! `SALES` load) where the *global* threshold is applied by one merge
//! statement —
//!
//! ```text
//! INSERT INTO Ck SELECT p.item_1, .., SUM(p.cnt) FROM Ck_PARTS p
//! GROUP BY p.item_1, .. HAVING SUM(p.cnt) >= :minsupport
//! ```
//!
//! — and finally broadcasts the merged `C_k` back so each shard filters
//! and `ORDER BY`-sorts its own `R_k` in parallel. Because the shards
//! partition transactions exactly, itemsets, rules, and the
//! `|R'_k|`/`|R_k|`/`|C_k|` trace series are identical to the sequential
//! plan at every thread count (`tests/sql_equivalence.rs` proves it);
//! the recorded statement trace interleaves each round's per-shard
//! statements (in shard order) with the coordinator's merge statements.
//! A failing shard statement surfaces as a typed
//! [`SqlError::Shard`](setm_sql::SqlError) naming the shard; statement
//! atomicity (an `INSERT` either fully replaces its target table or
//! leaves it untouched) means no partially-populated result table is
//! ever observable afterwards.

use crate::constraints::CompiledConstraints;
use crate::data::Dataset;
use crate::pattern::CountRelation;
use crate::setm::driver::{drive, sales_row, Figure4};
use crate::setm::plan::{JoinStrategy, LiveStats, PhysicalPlan, Planner, PlannerConfig};
use crate::setm::shard::{partition_by_weight, resolve_threads};
use crate::setm::{ExecCtx, IterationTrace, SetmResult};
use setm_sql::{ExecOptions, ExecOutcome, JoinPreference, Params, Result, ShardPool, SqlEngine};

/// Outcome of a SQL-driven run.
#[derive(Debug)]
pub struct SqlRun {
    pub result: SetmResult,
    /// Every SQL statement executed, in order. In a partitioned run each
    /// round lists the per-shard statements in shard order, then the
    /// coordinator's merge statements.
    pub statements: Vec<String>,
}

/// Mine `dataset` by generating and executing the paper's SQL.
///
/// Mined results and the trace series are identical for every thread
/// count and plan. The session topology (one connection per shard) is
/// fixed when the first statement runs, so the plan's shard dimension is
/// taken from the k = 2 plan and held for the whole script; recorded
/// per-iteration plans carry the actual session count. The join strategy
/// and sort workspace are honored per iteration
/// ([`SqlEngine::set_options`], plus a `CREATE INDEX` on `SALES` the
/// first time a session runs a nested-loop extension join). `reuse_sort`
/// is recorded but has no SQL-level realization: the Section 4.1 script
/// never re-sorts `R_{k-1}` — the closing `ORDER BY` is its only
/// ordering step.
///
/// Compiled constraints become `IN` / `NOT IN` conjuncts on the Section
/// 4.1 statements themselves, so the set-oriented plan prunes candidates
/// inside the relational engine. With constraints active, each extension
/// round also runs an *audit* statement — the paper's unconstrained join
/// into a scratch table — whose insert count, minus the constrained
/// insert count, is the iteration's `candidates_pruned`. Unconstrained
/// runs execute the paper's statement text byte-identically. The
/// constraints are in *mining space*: with a require-constraint the
/// [`crate::Miner`] facade hands this function the remapped dataset, so
/// the anchor literals in the emitted SQL are the remapped item ids
/// `0, 1, ..`.
///
/// Sink events fire on the coordinator thread only (never inside a
/// shard session), so the emitted SQL is identical to an unobserved
/// run's. This is the low-level execution behind [`crate::Backend::Sql`];
/// prefer the [`crate::Miner`] facade, which validates inputs and
/// returns the shared [`crate::MiningOutcome`] / [`crate::SetmError`]
/// types.
pub fn run(dataset: &Dataset, ctx: &ExecCtx) -> Result<SqlRun> {
    run_with_prepare(dataset, ctx, &|_, _| {})
}

/// Test seam: [`run`] with `prepare` applied to every session that
/// holds `SALES`, right after the load — shard `i` of a partitioned
/// run, session 0 of the single-session script (e.g. to inject pager
/// faults into one shard). Not part of the stable API.
#[doc(hidden)]
pub fn run_with_prepare(
    dataset: &Dataset,
    ctx: &ExecCtx,
    prepare: &(dyn Fn(usize, &mut SqlEngine) + Sync),
) -> Result<SqlRun> {
    let n_txns = dataset.n_transactions();
    let max_shards = resolve_threads(ctx.threads).min(n_txns.max(1) as usize);
    let planner = Planner::new(ctx.plan_mode, PlannerConfig::with_max_shards(max_shards));
    let max_txn_len = dataset.transactions().map(|(_, items)| items.len() as u64).max();
    let stats = LiveStats {
        n_txns,
        sales_tuples: dataset.n_rows(),
        max_txn_len: max_txn_len.unwrap_or(0),
        r_prev_tuples: dataset.n_rows(),
        c_prev_len: 1,
    };
    // Loading SALES(trans_id, item) is data preparation, not SQL mining,
    // so it uses the bulk API.
    let load = |engine: &mut SqlEngine, rows: &[[u32; 2]]| {
        engine.load_table("SALES", &["trans_id", "item"], rows.iter().map(|r| r.as_slice()))
    };
    let layout = planner.plan_iteration(2, &stats).shards;
    let sessions = if layout <= 1 {
        let mut engine = SqlEngine::new();
        load(&mut engine, &dataset.sales_rows())?;
        prepare(0, &mut engine);
        Sessions::One(engine)
    } else {
        // Contiguous trans_id shards, weight-balanced by row count —
        // the same partitioner as the in-memory and paged-engine
        // executions; each shard session loads only its slice.
        let weights: Vec<usize> = dataset.transactions().map(|(_, items)| items.len()).collect();
        let ranges = partition_by_weight(&weights, layout);
        let mut pool = ShardPool::new(ranges.len());
        let mut txns = dataset.transactions();
        for (i, range) in ranges.iter().enumerate() {
            let mut rows: Vec<[u32; 2]> = Vec::new();
            for (tid, items) in txns.by_ref().take(range.len()) {
                rows.extend(items.iter().map(|&it| [tid, it]));
            }
            load(pool.shard_mut(i), &rows)?;
            prepare(i, pool.shard_mut(i));
        }
        Sessions::Partitioned { pool, merge: SqlEngine::new() }
    };
    let exec = SqlExec {
        dataset,
        cc: ctx.constraints,
        planner,
        stats,
        sessions,
        bind: Params::new(),
        statements: Vec::new(),
    };
    drive(dataset, ctx, exec)
}

/// Where the script runs.
enum Sessions {
    /// The paper's sequential Section 4.1 script on one session. Its
    /// statement text is byte-identical to the pre-parallel releases'
    /// whenever the planner keeps the merge-scan join; a nested-loop
    /// iteration adds only its `CREATE INDEX` DDL.
    One(SqlEngine),
    /// The partitioned script: one session per `trans_id` shard running
    /// the same statements on its own tables (`…_SHARD_<i>`, count
    /// partials `C<k>_PART_<i>` without `HAVING`), plus the coordinator
    /// session that `SUM`-merges the partials under the global threshold
    /// and holds the authoritative `C_k`, broadcast back for the
    /// per-shard filter. See the module docs.
    Partitioned { pool: ShardPool, merge: SqlEngine },
}

/// The SQL operators: the statement pipeline on [`Sessions`], every
/// statement recorded in order.
struct SqlExec<'a> {
    dataset: &'a Dataset,
    cc: &'a CompiledConstraints,
    planner: Planner,
    stats: LiveStats,
    sessions: Sessions,
    /// `:minsupport`, bound once `C_1` is counted.
    bind: Params,
    statements: Vec<String>,
}

impl Figure4 for SqlExec<'_> {
    type Output = SqlRun;
    type Error = setm_sql::SqlError;

    /// C1 — the Section 3.1 query, verbatim (a constrained run inserts
    /// its anchor/exclusion predicate as a WHERE clause).
    fn count_c1(&mut self, min_count: u64) -> Result<(CountRelation, IterationTrace)> {
        self.bind = Params::new().with("minsupport", min_count);
        let (cc, bind) = (self.cc, &self.bind);
        let c1 = match &mut self.sessions {
            Sessions::One(engine) => {
                let mut s = Script { engine, stmts: &mut self.statements, bind, shard: None };
                s.count(1, "r1.item", &format!("SALES r1{}", c1_where(cc)))?;
                read_counts(engine, 1)?
            }
            Sessions::Partitioned { pool, merge } => {
                // Shard-local item counts, *without* HAVING: the support
                // threshold is global, so it applies only at the
                // coordinator merge.
                let shard_stmts = pool.run(|i, engine| {
                    let mut stmts = Vec::new();
                    let mut s = Script { engine, stmts: &mut stmts, bind, shard: Some(i) };
                    s.count(1, "r1.item", &format!("SALES r1{}", c1_where(cc)))?;
                    Ok(stmts)
                })?;
                self.statements.extend(shard_stmts.into_iter().flatten());
                merge_shard_counts(merge, pool, &mut self.statements, bind, 1)?
            }
        };
        Ok((c1, sales_row(self.dataset)))
    }

    fn start_loop(&mut self, _c1: Option<&CountRelation>) -> (Planner, LiveStats) {
        (self.planner, self.stats)
    }

    fn iterate(
        &mut self,
        k: usize,
        plan: &mut PhysicalPlan,
        _min_count: u64,
    ) -> Result<(CountRelation, IterationTrace)> {
        let (cc, bind) = (self.cc, &self.bind);
        let (c_k, r_prime_tuples, audit_tuples, r_tuples) = match &mut self.sessions {
            Sessions::One(engine) => {
                // One session: the shard dimension is pinned to it.
                plan.shards = 1;
                let mut s = Script { engine, stmts: &mut self.statements, bind, shard: None };
                let (r_prime, audit) = extend_and_count(&mut s, k, plan, cc)?;
                let c_k = read_counts(s.engine, k)?;
                let r = filter_and_order(&mut s, k)?;
                (c_k, r_prime, audit, r)
            }
            Sessions::Partitioned { pool, merge } => {
                // The session topology is fixed at connect time: the
                // shard dimension is pinned to the pool.
                plan.shards = pool.len();
                let plan = *plan;

                // Phase 1 (parallel): extension join + local counts per
                // shard, via the plan's access path.
                let phase1 = pool.run(|i, engine| {
                    let mut stmts = Vec::new();
                    let mut s = Script { engine, stmts: &mut stmts, bind, shard: Some(i) };
                    let (r_prime, audit) = extend_and_count(&mut s, k, &plan, cc)?;
                    Ok((stmts, r_prime, audit))
                })?;
                let r_prime: u64 = phase1.iter().map(|(_, n, _)| n).sum();
                let audit: u64 = phase1.iter().map(|(_, _, a)| a).sum();
                self.statements.extend(phase1.into_iter().flat_map(|(stmts, _, _)| stmts));

                // Global C_k: union the partials, SUM-merge under the
                // threshold on the coordinator.
                let c_k = merge_shard_counts(merge, pool, &mut self.statements, bind, k)?;

                // Phase 2 (parallel): broadcast C_k (data movement, like
                // the SALES load), filter + ORDER BY per shard, drop R'_k.
                let c_rows = c_k.to_engine_rows();
                let bcast_cols = count_table_cols(k);
                let phase2 = pool.run(|i, engine| {
                    let mut stmts = Vec::new();
                    engine.set_options(merge_options(plan.sort_buffer_pages));
                    let col_refs: Vec<&str> = bcast_cols.iter().map(String::as_str).collect();
                    engine.load_table(
                        &format!("C{k}"),
                        &col_refs,
                        c_rows.iter().map(|r| r.as_slice()),
                    )?;
                    let mut s = Script { engine, stmts: &mut stmts, bind, shard: Some(i) };
                    let r = filter_and_order(&mut s, k)?;
                    Ok((stmts, r))
                })?;
                let r: u64 = phase2.iter().map(|(_, n)| n).sum();
                self.statements.extend(phase2.into_iter().flat_map(|(stmts, _)| stmts));
                (c_k, r_prime, audit, r)
            }
        };
        let row = IterationTrace {
            r_prime_tuples,
            r_tuples,
            r_kbytes: r_tuples as f64 * ((k + 1) * 4) as f64 / 1024.0,
            candidates_pruned: if cc.is_empty() {
                0
            } else {
                audit_tuples.saturating_sub(r_prime_tuples)
            },
            ..IterationTrace::default()
        };
        Ok((c_k, row))
    }

    fn finish(self, result: SetmResult) -> Result<SqlRun> {
        Ok(SqlRun { result, statements: self.statements })
    }
}

/// One session's statement stream: the session, the log its statements
/// are recorded in, and which part of `SALES` the session holds.
struct Script<'a> {
    engine: &'a mut SqlEngine,
    stmts: &'a mut Vec<String>,
    bind: &'a Params,
    /// `Some(i)` on shard `i` of the partitioned script; `None` on a
    /// session that sees every transaction (the paper's single session,
    /// and the coordinator).
    shard: Option<usize>,
}

impl Script<'_> {
    /// Execute one statement, recording its text (recorded even on
    /// failure, so a trace always shows the statement that broke).
    fn exec(&mut self, sql: String) -> Result<ExecOutcome> {
        let outcome = self.engine.execute(&sql, self.bind);
        self.stmts.push(sql);
        outcome
    }

    /// Execute an `INSERT`, returning the rows it inserted.
    fn insert(&mut self, sql: String) -> Result<u64> {
        Ok(match self.exec(sql)? {
            ExecOutcome::Inserted(n) => n,
            _ => 0,
        })
    }

    /// Suffix of the session's own pattern tables (`R'_k`, `R_k`, the
    /// audit): empty, or `_SHARD_<i>`.
    fn sfx(&self) -> String {
        self.shard.map_or(String::new(), |i| format!("_SHARD_{i}"))
    }

    /// `C_k` — group `from` on `cols` and count (Sections 3.1 / 4.1) —
    /// into the global `C<k>` under the support threshold, or, on shard
    /// `i`, into the threshold-free partial `C<k>_PART_<i>`: support is
    /// global, so only the coordinator's `SUM` merge can apply it.
    fn count(&mut self, k: usize, cols: &str, from: &str) -> Result<()> {
        let (table, having) = match self.shard {
            None => (format!("C{k}"), "\nHAVING COUNT(*) >= :minsupport"),
            Some(i) => (format!("C{k}_PART_{i}"), ""),
        };
        self.exec(format!("CREATE TABLE {table} ({})", count_col_defs(k)))?;
        self.exec(format!(
            "INSERT INTO {table}\n\
             SELECT {cols}, COUNT(*)\n\
             FROM {from}\n\
             GROUP BY {cols}{having}"
        ))?;
        Ok(())
    }
}

/// The first half of one session's iteration `k` (Section 4.1): `R'_k`
/// by the extension join under the plan's access path, the constrained
/// run's audit, and the `C_k` count. Returns `(|R'_k|, audited pairs)`.
fn extend_and_count(
    s: &mut Script,
    k: usize,
    plan: &PhysicalPlan,
    cc: &CompiledConstraints,
) -> Result<(u64, u64)> {
    let sfx = s.sfx();
    s.engine.set_options(merge_options(plan.sort_buffer_pages));
    let rk_prime = format!("R{k}_PRIME{sfx}");
    s.exec(format!("CREATE TABLE {rk_prime} ({})", pattern_col_defs(k)))?;
    if plan.join == JoinStrategy::NestedLoop {
        prepare_nested_loop(s, plan.sort_buffer_pages)?;
    }
    let r_prime = s.insert(extension_sql(&rk_prime, k, &sfx, &extension_conjuncts(k, cc)))?;
    s.engine.set_options(merge_options(plan.sort_buffer_pages));

    // Audit (constrained runs only): the paper's unconstrained join into
    // a scratch table; its insert count minus the constrained one is the
    // pruned-candidate count.
    let audited = if cc.is_empty() {
        0
    } else {
        let audit = format!("R{k}_AUDIT{sfx}");
        s.exec(format!("CREATE TABLE {audit} ({})", pattern_col_defs(k)))?;
        let n = s.insert(extension_sql(&audit, k, &sfx, ""))?;
        s.exec(format!("DROP TABLE {audit}"))?;
        n
    };

    s.count(k, &item_cols("p", k), &format!("{rk_prime} p"))?;
    Ok((r_prime, audited))
}

/// The second half of one session's iteration `k`: `R_k` — retain the
/// supported tuples of `R'_k` (joined with this session's `C<k>`),
/// sorted for the next pass (Section 4.1's final `INSERT` with
/// `ORDER BY`) — then discard `R'_k` as the paper does. Returns `|R_k|`.
fn filter_and_order(s: &mut Script, k: usize) -> Result<u64> {
    let sfx = s.sfx();
    let items = item_cols("p", k);
    let join_cond: String =
        (1..=k).map(|i| format!("p.item_{i} = q.item_{i}")).collect::<Vec<_>>().join(" AND ");
    s.exec(format!("CREATE TABLE R{k}{sfx} ({})", pattern_col_defs(k)))?;
    let r = s.insert(format!(
        "INSERT INTO R{k}{sfx}\n\
         SELECT p.trans_id, {items}\n\
         FROM R{k}_PRIME{sfx} p, C{k} q\n\
         WHERE {join_cond}\n\
         ORDER BY p.trans_id, {items}"
    ))?;
    s.exec(format!("DROP TABLE R{k}_PRIME{sfx}"))?;
    Ok(r)
}

/// The Section 4.1 extension join into `target`, from the session's
/// `R_{k-1}` (`SALES` itself at k = 2) and `SALES`, plus `extra`
/// constraint conjuncts.
fn extension_sql(target: &str, k: usize, sfx: &str, extra: &str) -> String {
    let (prev, prev_items, prev_last) = if k == 2 {
        ("SALES".to_string(), "p.item".to_string(), "p.item".to_string())
    } else {
        (format!("R{}{sfx}", k - 1), item_cols("p", k - 1), format!("p.item_{}", k - 1))
    };
    format!(
        "INSERT INTO {target}\n\
         SELECT p.trans_id, {prev_items}, q.item\n\
         FROM {prev} p, SALES q\n\
         WHERE q.trans_id = p.trans_id AND q.item > {prev_last}{extra}"
    )
}

/// The probe index a nested-loop plan creates on each session's `SALES`
/// (the Section 3.2 transaction index). Recorded in the statement trace
/// the first time a session builds it.
const SALES_INDEX: &str = "SALES_TID_ITEM";

/// Build the `(trans_id, item)` index on a session's `SALES` if it does
/// not exist yet, recording the DDL in the statement trace; then aim the
/// planner preference at it for the next statement.
fn prepare_nested_loop(s: &mut Script, sort_buffer_pages: usize) -> Result<()> {
    if s.engine.database().find_index_on("SALES", &[0]).is_none() {
        s.engine.database_mut().create_index(SALES_INDEX, "SALES", &["trans_id", "item"])?;
        s.stmts.push(format!("CREATE INDEX {SALES_INDEX} ON SALES (trans_id, item)"));
    }
    s.engine.set_options(ExecOptions { join: JoinPreference::IndexNestedLoop, sort_buffer_pages });
    Ok(())
}

/// Per-iteration session options for everything except a nested-loop
/// extension join: explicit sort-merge (what the default preference
/// resolves to on an index-free session) at the plan's sort workspace.
fn merge_options(sort_buffer_pages: usize) -> ExecOptions {
    ExecOptions { join: JoinPreference::SortMerge, sort_buffer_pages }
}

/// Column list `item_1, .., item_k` with an optional qualifier.
fn item_cols(qualifier: &str, k: usize) -> String {
    (1..=k)
        .map(|i| {
            if qualifier.is_empty() {
                format!("item_{i}")
            } else {
                format!("{qualifier}.item_{i}")
            }
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// Column definitions of a pattern table: `trans_id INT, item_1 INT, ..`.
fn pattern_col_defs(k: usize) -> String {
    format!("trans_id INT, {}", item_col_defs(k))
}

/// Column definitions of a count table: `item_1 INT, .., cnt INT`.
fn count_col_defs(k: usize) -> String {
    format!("{}, cnt INT", item_col_defs(k))
}

fn item_col_defs(k: usize) -> String {
    (1..=k).map(|i| format!("item_{i} INT")).collect::<Vec<_>>().join(", ")
}

/// Column names `item_1, .., item_k, cnt` (the shape of every count
/// table), owned, for bulk loads.
fn count_table_cols(k: usize) -> Vec<String> {
    (1..=k).map(|i| format!("item_{i}")).chain(std::iter::once("cnt".to_string())).collect()
}

/// The compiled-constraint conjunct for one pattern position, as SQL
/// over `col`: `IN` pinning an anchored position to its anchor item,
/// `NOT IN` rejecting the exclusion list at a free position, or nothing
/// when the position is unconstrained.
fn position_clause(col: &str, pos: usize, cc: &CompiledConstraints) -> Option<String> {
    if pos < cc.anchor_len() {
        Some(format!("{col} IN ({pos})"))
    } else if !cc.excluded().is_empty() {
        let list =
            cc.excluded().iter().map(|i| i.to_string()).collect::<Vec<_>>().join(", ");
        Some(format!("{col} NOT IN ({list})"))
    } else {
        None
    }
}

/// Extra `AND …` conjuncts the constrained extension join appends to
/// the paper's `WHERE` clause. Empty for an unconstrained run, keeping
/// the emitted text byte-identical to the paper's. The k = 2 join reads
/// prefixes from the *unfiltered* `SALES`, so position 0 is constrained
/// there too; for k >= 3 the prefix is already clean (`R_{k-1}` was
/// filtered against the anchored `C_{k-1}`).
fn extension_conjuncts(k: usize, cc: &CompiledConstraints) -> String {
    let mut out = String::new();
    if cc.is_empty() {
        return out;
    }
    if k == 2 {
        if let Some(clause) = position_clause("p.item", 0, cc) {
            out.push_str(" AND ");
            out.push_str(&clause);
        }
    }
    if let Some(clause) = position_clause("q.item", k - 1, cc) {
        out.push_str(" AND ");
        out.push_str(&clause);
    }
    out
}

/// The `WHERE` clause of the constrained `C_1` count (between `FROM`
/// and `GROUP BY`); empty for an unconstrained run.
fn c1_where(cc: &CompiledConstraints) -> String {
    if cc.is_empty() {
        return String::new();
    }
    match position_clause("r1.item", 0, cc) {
        Some(clause) => format!("\nWHERE {clause}"),
        None => String::new(),
    }
}

/// The coordinator half of a partitioned `GROUP BY`: ship every shard's
/// `C{k}_PART_{i}` rows into one `C{k}_PARTS` table (the `UNION ALL`,
/// done as bulk data movement), then apply the global threshold with one
/// `GROUP BY … HAVING SUM(cnt) >= :minsupport` merge statement and read
/// the result back.
fn merge_shard_counts(
    merge: &mut SqlEngine,
    pool: &mut ShardPool,
    statements: &mut Vec<String>,
    bind: &Params,
    k: usize,
) -> Result<CountRelation> {
    let mut union_rows: Vec<Vec<u32>> = Vec::new();
    for i in 0..pool.len() {
        // Reading a shard's partials touches that shard's storage, so a
        // fault here must still name the shard (same contract as
        // `ShardPool::run`).
        let shard_err = |e: setm_sql::SqlError| setm_sql::SqlError::Shard {
            shard: i,
            source: Box::new(e),
        };
        let table = pool
            .shard_mut(i)
            .database()
            .table(&format!("C{k}_PART_{i}"))
            .map_err(|e| shard_err(e.into()))?;
        union_rows.extend(table.file.rows().map_err(|e| shard_err(e.into()))?);
    }
    let col_names = count_table_cols(k);
    let col_refs: Vec<&str> = col_names.iter().map(String::as_str).collect();
    merge.load_table(&format!("C{k}_PARTS"), &col_refs, union_rows.iter().map(|r| r.as_slice()))?;

    let items = item_cols("p", k);
    let mut s = Script { engine: merge, stmts: statements, bind, shard: None };
    s.exec(format!("CREATE TABLE C{k} ({})", count_col_defs(k)))?;
    s.exec(format!(
        "INSERT INTO C{k}\n\
         SELECT {items}, SUM(p.cnt)\n\
         FROM C{k}_PARTS p\n\
         GROUP BY {items}\n\
         HAVING SUM(p.cnt) >= :minsupport"
    ))?;
    s.exec(format!("DROP TABLE C{k}_PARTS"))?;
    read_counts(merge, k)
}

/// Read `C_k` back into memory. Its rows are already in lexicographic
/// pattern order (the grouped output is sorted on the group columns).
fn read_counts(engine: &mut SqlEngine, k: usize) -> Result<CountRelation> {
    let cols = item_cols("", k);
    let rows = engine.query(&format!("SELECT {cols}, cnt FROM C{k}"), &Params::new())?;
    let mut c = CountRelation::new(k);
    for row in &rows.rows {
        c.push(&row[..k], row[k] as u64);
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Dataset, MinSupport, MiningParams};
    use crate::example;
    use crate::setm::memory;

    fn mine_on(d: &Dataset, params: &MiningParams, threads: usize) -> Result<SqlRun> {
        run(d, &ExecCtx { threads, ..ExecCtx::new(*params) })
    }

    #[test]
    fn sql_run_matches_memory_on_worked_example() {
        let d = example::paper_example_dataset();
        let params = example::paper_example_params();
        let mem = memory::run(&d, &ExecCtx::new(params));
        let sql = mine_on(&d, &params, 1).unwrap();
        assert_eq!(sql.result.frequent_itemsets(), mem.frequent_itemsets());
        // Tuple counts per iteration agree (|R'_k|, |R_k|, |C_k|).
        for (a, b) in mem.trace.iter().zip(sql.result.trace.iter()) {
            assert_eq!(
                (a.k, a.r_prime_tuples, a.r_tuples, a.c_len),
                (b.k, b.r_prime_tuples, b.r_tuples, b.c_len)
            );
        }
    }

    #[test]
    fn emitted_sql_is_the_papers_text() {
        let d = example::paper_example_dataset();
        let sql = mine_on(&d, &example::paper_example_params(), 1).unwrap();
        let all = sql.statements.join("\n---\n");
        // The Section 3.1 C1 query.
        assert!(all.contains("HAVING COUNT(*) >= :minsupport"));
        // The Section 4.1 extension join.
        assert!(all.contains("WHERE q.trans_id = p.trans_id AND q.item > p.item"));
        // The Section 4.1 filter with ORDER BY.
        assert!(all.contains("ORDER BY p.trans_id"));
        // Three iterations of tables were created.
        assert!(all.contains("CREATE TABLE R3"));
        // The sequential plan stays the paper's: no shard tables.
        assert!(!all.contains("SHARD"));
    }

    /// The single-session script is the reference text: the paper's
    /// Section 3.1 / 4.1 statements, byte for byte. The partitioned
    /// script is built from the same statement builders.
    #[test]
    fn single_session_script_is_the_papers_text_verbatim() {
        let d = example::paper_example_dataset();
        let sql = mine_on(&d, &example::paper_example_params(), 1).unwrap();
        let expected = [
            "CREATE TABLE C1 (item_1 INT, cnt INT)",
            "INSERT INTO C1\nSELECT r1.item, COUNT(*)\nFROM SALES r1\nGROUP BY r1.item\n\
             HAVING COUNT(*) >= :minsupport",
            "CREATE TABLE R2_PRIME (trans_id INT, item_1 INT, item_2 INT)",
            "INSERT INTO R2_PRIME\nSELECT p.trans_id, p.item, q.item\nFROM SALES p, SALES q\n\
             WHERE q.trans_id = p.trans_id AND q.item > p.item",
            "CREATE TABLE C2 (item_1 INT, item_2 INT, cnt INT)",
            "INSERT INTO C2\nSELECT p.item_1, p.item_2, COUNT(*)\nFROM R2_PRIME p\n\
             GROUP BY p.item_1, p.item_2\nHAVING COUNT(*) >= :minsupport",
            "CREATE TABLE R2 (trans_id INT, item_1 INT, item_2 INT)",
            "INSERT INTO R2\nSELECT p.trans_id, p.item_1, p.item_2\nFROM R2_PRIME p, C2 q\n\
             WHERE p.item_1 = q.item_1 AND p.item_2 = q.item_2\n\
             ORDER BY p.trans_id, p.item_1, p.item_2",
            "DROP TABLE R2_PRIME",
            "CREATE TABLE R3_PRIME (trans_id INT, item_1 INT, item_2 INT, item_3 INT)",
            "INSERT INTO R3_PRIME\nSELECT p.trans_id, p.item_1, p.item_2, q.item\n\
             FROM R2 p, SALES q\nWHERE q.trans_id = p.trans_id AND q.item > p.item_2",
        ];
        assert_eq!(&sql.statements[..expected.len()], expected);
    }

    #[test]
    fn partitioned_run_matches_sequential_on_worked_example() {
        let d = example::paper_example_dataset();
        let params = example::paper_example_params();
        let seq = mine_on(&d, &params, 1).unwrap();
        for threads in [2usize, 3, 4, 8] {
            let par = mine_on(&d, &params, threads).unwrap();
            assert_eq!(
                par.result.frequent_itemsets(),
                seq.result.frequent_itemsets(),
                "threads={threads}"
            );
            assert_eq!(par.result.trace.len(), seq.result.trace.len());
            for (a, b) in seq.result.trace.iter().zip(par.result.trace.iter()) {
                assert_eq!(
                    (a.k, a.r_prime_tuples, a.r_tuples, a.c_len),
                    (b.k, b.r_prime_tuples, b.r_tuples, b.c_len),
                    "threads={threads}"
                );
            }
        }
    }

    #[test]
    fn partitioned_statements_name_shards_and_merge_with_sum() {
        let d = example::paper_example_dataset();
        let sql = mine_on(&d, &example::paper_example_params(), 2).unwrap();
        let all = sql.statements.join("\n---\n");
        assert!(all.contains("R2_PRIME_SHARD_0"), "{all}");
        assert!(all.contains("R2_PRIME_SHARD_1"), "{all}");
        assert!(all.contains("C1_PART_0"), "{all}");
        assert!(all.contains("HAVING SUM(p.cnt) >= :minsupport"), "{all}");
        // Shard-local counts carry no threshold — it is global.
        assert!(!all.contains("COUNT(*)\nFROM R2_PRIME_SHARD_0 p\nGROUP BY p.item_1, p.item_2\nHAVING"));
    }

    #[test]
    fn sql_run_matches_memory_on_pseudorandom_data() {
        let mut txns = Vec::new();
        let mut state = 12345u32;
        for tid in 0..40u32 {
            let mut items = Vec::new();
            for _ in 0..5 {
                state = state.wrapping_mul(1103515245).wrapping_add(12345);
                items.push(1 + (state >> 16) % 10);
            }
            items.sort_unstable();
            items.dedup();
            txns.push((tid, items));
        }
        let d = Dataset::from_transactions(txns.iter().map(|(t, i)| (*t, i.as_slice())));
        let params = MiningParams::new(MinSupport::Fraction(0.15), 0.5);
        let mem = memory::run(&d, &ExecCtx::new(params));
        for threads in [1usize, 4] {
            let sql = mine_on(&d, &params, threads).unwrap();
            assert_eq!(
                sql.result.frequent_itemsets(),
                mem.frequent_itemsets(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn empty_dataset_is_handled() {
        let d = Dataset::from_pairs(std::iter::empty());
        for threads in [1usize, 4] {
            let run = mine_on(&d, &MiningParams::new(MinSupport::Count(1), 0.5), threads)
                .unwrap();
            assert_eq!(run.result.max_pattern_len(), 0);
        }
    }
}
