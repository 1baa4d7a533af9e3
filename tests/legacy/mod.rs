//! The stamp-vector Dynamic Dependence Analyzer, kept verbatim as the
//! test-only oracle for `suif_dynamic::DynDepAnalyzer`.
//!
//! Every store records the full `(loop, invocation, iteration)` stack of the
//! active monitored loops; a load scans the common prefix of that stamp and
//! the current stack, outermost first.  The library analyzer answers the
//! same question from one clock value per address; `dyndep_differential.rs`
//! checks the two report identical `deps`.

use std::collections::{HashMap, HashSet};
use suif_dynamic::{DynDepConfig, DynDepReport, Hooks};
use suif_ir::{StmtId, VarId};

/// A stamp identifying a point in the dynamic loop-iteration space:
/// `(loop, invocation, iteration)` for every active monitored loop,
/// outermost first.
type IterVec = Box<[(StmtId, u64, i64)]>;

/// The analyzer: plug into a [`crate::Machine`] as its hooks.
pub struct DynDepAnalyzer {
    config: DynDepConfig,
    /// Active monitored loops, outermost first.
    active: Vec<ActiveLoop>,
    /// Most recent write stamp per address.
    last_write: HashMap<usize, IterVec>,
    /// Observed loop-carried flow dependences: loop → variables.
    deps: HashMap<StmtId, HashSet<VarId>>,
    /// Per-loop invocation counters.
    invocations: HashMap<StmtId, u64>,
    /// Nesting depth at which tracking was suspended by sampling (if any).
    suspended_at: Option<usize>,
}

struct ActiveLoop {
    stmt: StmtId,
    invocation: u64,
    iter: i64,
    iters_seen: u64,
}

impl DynDepAnalyzer {
    /// Fresh analyzer.
    pub fn new(config: DynDepConfig) -> DynDepAnalyzer {
        DynDepAnalyzer {
            config,
            active: Vec::new(),
            last_write: HashMap::new(),
            deps: HashMap::new(),
            invocations: HashMap::new(),
            suspended_at: None,
        }
    }

    fn monitored(&self, stmt: StmtId) -> bool {
        match &self.config.monitor {
            Some(set) => set.contains(&stmt),
            None => true,
        }
    }

    fn tracking(&self) -> bool {
        self.suspended_at.is_none()
    }

    fn stamp(&self) -> IterVec {
        self.active
            .iter()
            .map(|a| (a.stmt, a.invocation, a.iter))
            .collect()
    }

    /// Finish and extract the report.
    pub fn report(self) -> DynDepReport {
        DynDepReport { deps: self.deps }
    }
}

impl Hooks for DynDepAnalyzer {
    fn loop_enter(&mut self, stmt: StmtId, _ops: u64) {
        if !self.monitored(stmt) {
            return;
        }
        let inv = self.invocations.entry(stmt).or_insert(0);
        *inv += 1;
        self.active.push(ActiveLoop {
            stmt,
            invocation: *inv,
            iter: 0,
            iters_seen: 0,
        });
    }

    fn loop_iter(&mut self, stmt: StmtId, iter: i64) {
        if !self.monitored(stmt) {
            return;
        }
        let depth = self.active.len().saturating_sub(1);
        if let Some(top) = self.active.last_mut() {
            if top.stmt == stmt {
                top.iter = iter;
                top.iters_seen += 1;
                if let Some(cap) = self.config.max_iterations_per_invocation {
                    if top.iters_seen > cap && self.suspended_at.is_none() {
                        self.suspended_at = Some(depth);
                    }
                }
            }
        }
    }

    fn loop_exit(&mut self, stmt: StmtId, _ops: u64) {
        if !self.monitored(stmt) {
            return;
        }
        if let Some(top) = self.active.last() {
            if top.stmt == stmt {
                let depth = self.active.len() - 1;
                if self.suspended_at == Some(depth) {
                    self.suspended_at = None;
                }
                self.active.pop();
            }
        }
    }

    fn load(&mut self, var: VarId, addr: usize) {
        if !self.tracking() || self.config.ignore_vars.contains(&var) || self.active.is_empty() {
            return;
        }
        let Some(w) = self.last_write.get(&addr) else {
            return;
        };
        // Scan the common prefix of the write stamp and the current stack,
        // outermost first.
        for (k, a) in self.active.iter().enumerate() {
            let Some(&(ws, winv, witer)) = w.get(k) else {
                // Write happened outside this loop (before it started):
                // upwards-exposed read from pre-loop data, no carried dep.
                break;
            };
            if ws != a.stmt || winv != a.invocation {
                // Different loop structure or an earlier invocation at this
                // level — the write precedes this loop instance entirely.
                break;
            }
            if witer != a.iter {
                // Same loop instance, different iteration: loop-carried
                // flow dependence at this loop.
                if !self.config.ignore_loop_vars.contains(&(a.stmt, var)) {
                    self.deps.entry(a.stmt).or_default().insert(var);
                }
                break;
            }
        }
    }

    fn store(&mut self, var: VarId, addr: usize) {
        if !self.tracking() || self.config.ignore_vars.contains(&var) {
            return;
        }
        self.last_write.insert(addr, self.stamp());
    }
}
