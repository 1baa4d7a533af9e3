//! Parallel bottom-up scheduler for the interprocedural pass (§5.2).
//!
//! The call graph (a DAG — recursion is rejected by sema) is condensed into
//! *levels*: `level(p) = 1 + max(level(callees))`, leaves at level 0.  All
//! procedures of one level have their callee flows ready, so a level is
//! summarized concurrently by a pool of scoped workers pulling procedures
//! off a shared claim counter.
//!
//! Parallel results are bit-identical to the sequential pass because
//! [`summarize_proc`] draws fresh symbols from each procedure's own id block
//! ([`crate::AnalysisCtx::with_fresh_block`]) and array ids are interned
//! before the pass starts — no observable state depends on thread placement
//! or completion order.  The final [`ArrayDataFlow`] is merged in deterministic
//! bottom-up order after all levels complete.
//!
//! When a [`SummaryCache`] is supplied, each procedure is looked up under
//! its content key from the [`FactPlan`] and the summarization is skipped
//! on a hit — this is what makes the daemon's `reload` incremental.

use crate::cache::SummaryCache;
use crate::pipeline::Executor;
use crate::plan::FactPlan;
use crate::summarize::{summarize_proc, ArrayDataFlow, ProcFlow};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use suif_ir::{CallGraph, ProcId};

/// One finished procedure: (pid, flow, seconds spent, served from cache).
type LevelResult = (ProcId, Arc<ProcFlow>, f64, bool);

/// How the bottom-up pass should run.
#[derive(Clone, Debug, Default)]
pub struct ScheduleOptions {
    /// Worker threads; `0` means one per available core.
    pub threads: usize,
}

impl ScheduleOptions {
    /// Run on the current thread only.
    pub fn sequential() -> ScheduleOptions {
        ScheduleOptions { threads: 1 }
    }

    /// The effective worker count (honoring the `SUIF_EXECUTOR_THREADS`
    /// override and `0` → cores), shared with [`Executor::resolve`].
    pub fn resolved_threads(&self) -> usize {
        Executor::resolve(self.threads)
    }

    /// An [`Executor`] sized by these options.
    pub fn executor(&self) -> Executor {
        Executor::new(self.threads)
    }
}

/// What the scheduler did: sizes, cache traffic, and timing.
#[derive(Clone, Debug, Default)]
pub struct ScheduleStats {
    /// Worker threads used.
    pub threads: usize,
    /// Number of call-graph levels.
    pub levels: usize,
    /// Total procedures.
    pub procs: usize,
    /// Procedures actually summarized this run (= cache misses, or all
    /// procedures when no cache is attached).
    pub summarized: usize,
    /// Procedures served from the summary cache.
    pub cache_hits: usize,
    /// Wall-clock seconds of the whole bottom-up pass.
    pub wall_secs: f64,
    /// Summed busy seconds across workers; utilization is
    /// `busy_secs / (threads * wall_secs)`.
    pub busy_secs: f64,
    /// Busy seconds per worker id, accumulated across levels (the server's
    /// `stats` surfaces these individually, not only the total).
    pub worker_busy_secs: Vec<f64>,
    /// Per-procedure summarize seconds, bottom-up order (cache hits report
    /// the lookup time, effectively 0).
    pub proc_secs: Vec<(ProcId, f64)>,
}

impl ScheduleStats {
    /// Fraction of worker capacity spent summarizing, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.threads == 0 || self.wall_secs <= 0.0 {
            return 0.0;
        }
        (self.busy_secs / (self.threads as f64 * self.wall_secs)).min(1.0)
    }
}

/// Condense the call graph into bottom-up levels; within a level,
/// procedures are sorted by id (a stable, schedule-independent order).
pub fn levels(cg: &CallGraph) -> Vec<Vec<ProcId>> {
    let mut level: HashMap<ProcId, usize> = HashMap::new();
    let mut out: Vec<Vec<ProcId>> = Vec::new();
    for &p in cg.bottom_up() {
        let l = cg
            .callees_of(p)
            .iter()
            .map(|c| level[c] + 1)
            .max()
            .unwrap_or(0);
        level.insert(p, l);
        if out.len() <= l {
            out.resize_with(l + 1, Vec::new);
        }
        out[l].push(p);
    }
    for lv in &mut out {
        lv.sort_unstable();
    }
    out
}

/// Run the bottom-up pass over the plan's program and return the merged
/// data-flow result plus scheduling statistics.
pub fn run(
    plan: &FactPlan<'_>,
    opts: &ScheduleOptions,
    cache: Option<&SummaryCache>,
) -> (ArrayDataFlow, ScheduleStats) {
    let t0 = Instant::now();
    let (ctx, keys) = (&plan.ctx, &plan.proc_keys);
    let lvls = levels(&ctx.cg);
    let exec = opts.executor();
    let threads = exec.threads().max(1);
    let mut flows: HashMap<ProcId, Arc<ProcFlow>> = HashMap::new();
    let mut stats = ScheduleStats {
        threads,
        levels: lvls.len(),
        procs: ctx.cg.bottom_up().len(),
        ..ScheduleStats::default()
    };
    let mut proc_secs: HashMap<ProcId, f64> = HashMap::new();

    for level in &lvls {
        let done: Mutex<Vec<LevelResult>> = Mutex::new(Vec::with_capacity(level.len()));
        let level_stats = exec.run(level.len(), |i| {
            let pid = level[i];
            let p0 = Instant::now();
            let (flow, hit) = match cache {
                Some(c) => match c.get(keys[&pid]) {
                    Some(f) => (f, true),
                    None => {
                        let f = Arc::new(summarize_proc(ctx, pid, &flows));
                        c.insert(keys[&pid], f.clone());
                        (f, false)
                    }
                },
                None => (Arc::new(summarize_proc(ctx, pid, &flows)), false),
            };
            done.lock()
                .push((pid, flow, p0.elapsed().as_secs_f64(), hit));
        });
        stats.busy_secs += level_stats.busy_secs();
        if stats.worker_busy_secs.len() < level_stats.worker_busy_secs.len() {
            stats
                .worker_busy_secs
                .resize(level_stats.worker_busy_secs.len(), 0.0);
        }
        for (w, secs) in level_stats.worker_busy_secs.iter().enumerate() {
            stats.worker_busy_secs[w] += secs;
        }
        for (pid, flow, secs, hit) in done.into_inner() {
            if hit {
                stats.cache_hits += 1;
            } else {
                stats.summarized += 1;
            }
            proc_secs.insert(pid, secs);
            flows.insert(pid, flow);
        }
    }

    // Deterministic merge, independent of completion order.
    let mut df = ArrayDataFlow::default();
    for &pid in ctx.cg.bottom_up() {
        df.merge_proc(pid, &flows[&pid]);
        stats
            .proc_secs
            .push((pid, proc_secs.get(&pid).copied().unwrap_or(0.0)));
    }
    stats.wall_secs = t0.elapsed().as_secs_f64();
    (df, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnalysisCtx, ParallelizeConfig};
    use suif_ir::parse_program;

    const SRC: &str = "program t
proc leaf1(real q[*]) { q[1] = 0 }
proc leaf2(real q[*]) { q[2] = 0 }
proc mid(real q[*]) { call leaf1(q) call leaf2(q) }
proc main() {
 real b[8]
 int i
 do 1 i = 1, 4 {
  call mid(b)
 }
}";

    #[test]
    fn levels_respect_call_depth() {
        let p = parse_program(SRC).unwrap();
        let ctx = AnalysisCtx::new(&p);
        let lv = levels(&ctx.cg);
        assert_eq!(lv.len(), 3);
        assert_eq!(lv[0].len(), 2); // leaf1, leaf2
        assert_eq!(lv[1].len(), 1); // mid
        assert_eq!(lv[2].len(), 1); // main
    }

    fn df_fingerprint(df: &ArrayDataFlow) -> String {
        use std::collections::BTreeMap;
        let procs: BTreeMap<_, _> = df
            .proc_summary
            .iter()
            .map(|(k, v)| (k.0, format!("{v:?}")))
            .collect();
        let stmts: BTreeMap<_, _> = df
            .stmt_summary
            .iter()
            .map(|(k, v)| (k.0, format!("{v:?}")))
            .collect();
        let iters: BTreeMap<_, _> = df
            .loop_iter
            .iter()
            .map(|(k, v)| (k.0, format!("{v:?}")))
            .collect();
        format!("{procs:?}|{stmts:?}|{iters:?}")
    }

    #[test]
    fn parallel_matches_sequential_bit_for_bit() {
        let p = parse_program(SRC).unwrap();
        let plan = FactPlan::new(&p, &ParallelizeConfig::default());
        let seq = ArrayDataFlow::analyze(&plan.ctx);
        let (par, stats) = run(&plan, &ScheduleOptions { threads: 4 }, None);
        assert_eq!(df_fingerprint(&seq), df_fingerprint(&par));
        assert_eq!(stats.summarized, 4);
        assert_eq!(stats.cache_hits, 0);
    }

    #[test]
    fn warm_cache_summarizes_nothing() {
        let p = parse_program(SRC).unwrap();
        let plan = FactPlan::new(&p, &ParallelizeConfig::default());
        let cache = SummaryCache::new();
        let (cold, s1) = run(&plan, &ScheduleOptions::sequential(), Some(&cache));
        assert_eq!(s1.summarized, 4);
        let (warm, s2) = run(&plan, &ScheduleOptions { threads: 4 }, Some(&cache));
        assert_eq!(s2.summarized, 0, "warm run must re-summarize nothing");
        assert_eq!(s2.cache_hits, 4);
        assert_eq!(df_fingerprint(&cold), df_fingerprint(&warm));
    }
}
