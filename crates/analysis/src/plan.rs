//! Fact identity: the one place every pass's input hash is derived.
//!
//! A reused fact is recognised by its `(key, input hash)` pair — across
//! assertions, tenants and restarts.  [`FactPlan`] computes all of those
//! pairs once per (program, config): `Parallelizer::analyze_in` demands
//! facts under them, speculation demands a subset of them, and the warm-start
//! validator ([`crate::Parallelizer::expected_fact_hashes`]) compares
//! persisted hashes against exactly the same map.  Because there is one
//! derivation, a demand and the validator cannot disagree.

use crate::cache::{self, Fnv128};
use crate::context::AnalysisCtx;
use crate::liveness::LivenessMode;
use crate::parallelize::{Assertion, ParallelizeConfig};
use crate::pipeline::{FactKey, PassId, Scope};
use std::collections::{HashMap, HashSet};
use suif_ir::{ProcId, Program, StmtId};
use suif_poly::ArrayId;

/// Resolved assertion marks `(loop, object)` of one kind.
pub type AssertionMarks = HashSet<(StmtId, ArrayId)>;

/// Every fact's identity for one (program, config): the analysis context,
/// the content keys, the resolved assertions and each pass's input hash.
pub struct FactPlan<'p> {
    /// Shared context (region tree, call graph, array interner).
    pub ctx: AnalysisCtx<'p>,
    /// Content key of every procedure, folded bottom-up.
    pub proc_keys: HashMap<ProcId, u128>,
    /// Whole-program content key: the `Summarize@Program` input hash.
    pub program_key: u128,
    /// Liveness mode and the `Liveness@Program` input hash (`None` when
    /// liveness is disabled).
    pub liveness: Option<(LivenessMode, u128)>,
    /// Resolved "privatizable" assertion marks.
    pub assert_private: AssertionMarks,
    /// Resolved "independent" assertion marks.
    pub assert_independent: AssertionMarks,
    /// Warnings for assertions that named a missing loop or variable.
    pub warnings: Vec<String>,
    /// Input hash of every demand-driven advisory (`Contract`, `Decomp`,
    /// `Split`) and the seed of each loop's `Deps` hash.
    pub epoch_hash: u128,
    /// `Classify@Loop` input hash per loop, in `ctx.tree.loops` order.
    pub classify_hashes: Vec<u128>,
}

impl<'p> FactPlan<'p> {
    /// Derive every fact identity of `program` under `config`, without
    /// running any pass.
    pub fn new(program: &'p Program, config: &ParallelizeConfig) -> FactPlan<'p> {
        let ctx = AnalysisCtx::new(program);
        let proc_keys = cache::all_proc_keys(&ctx);
        let program_key = cache::program_key(&ctx, &proc_keys);
        let liveness = config.liveness.map(|mode| {
            let mut h = Fnv128::new();
            h.write_u128(program_key);
            h.write(format!("{mode:?}").as_bytes());
            (mode, h.0)
        });
        let (assert_private, assert_independent, warnings) = resolve_assertions(&ctx, config);
        let mut h = Fnv128::new();
        h.write_u128(program_key);
        write_config(&mut h, config);
        write_assertion_marks(&mut h, None, &assert_private, &assert_independent);
        let epoch_hash = h.0;
        let classify_hashes = ctx
            .tree
            .loops
            .iter()
            .map(|li| {
                // The program key is part of the hash because classification
                // reads whole-program facts (summaries and top-down liveness).
                let mut h = Fnv128::new();
                h.write_u128(program_key);
                h.write_u128(cache::loop_key(li, &proc_keys));
                write_config(&mut h, config);
                write_assertion_marks(&mut h, Some(li.stmt), &assert_private, &assert_independent);
                h.0
            })
            .collect();
        FactPlan {
            ctx,
            proc_keys,
            program_key,
            liveness,
            assert_private,
            assert_independent,
            warnings,
            epoch_hash,
            classify_hashes,
        }
    }

    /// The input hash of every fact an analysis of this (program, config)
    /// can demand — the warm-start validator's expected `(key, hash)` map.
    pub fn fact_hashes(&self) -> HashMap<FactKey, u128> {
        let mut out = HashMap::new();
        out.insert(
            FactKey::new(PassId::Summarize, Scope::Program),
            self.program_key,
        );
        if let Some((_, h)) = self.liveness {
            out.insert(FactKey::new(PassId::Liveness, Scope::Program), h);
        }
        for (li, &h) in self.ctx.tree.loops.iter().zip(&self.classify_hashes) {
            let scope = Scope::Loop(li.stmt);
            out.insert(FactKey::new(PassId::Classify, scope), h);
            out.insert(
                FactKey::new(PassId::Deps, scope),
                deps_hash(self.epoch_hash, li.stmt),
            );
        }
        for pass in [PassId::Contract, PassId::Decomp, PassId::Split] {
            out.insert(FactKey::new(pass, Scope::Program), self.epoch_hash);
        }
        out
    }
}

/// Input hash of one loop's `Deps` fact under the analysis epoch.
pub(crate) fn deps_hash(epoch_hash: u128, loop_stmt: StmtId) -> u128 {
    let mut h = Fnv128::new();
    h.write_u128(epoch_hash);
    h.write_u32(loop_stmt.0);
    h.0
}

/// The configuration axes the epoch and classify hashes both cover: the
/// liveness mode and the reduction switch.
fn write_config(h: &mut Fnv128, config: &ParallelizeConfig) {
    h.write(format!("{:?}", config.liveness).as_bytes());
    h.write(&[config.enable_reduction as u8]);
}

/// Resolve the configured assertions against the region tree; unresolved
/// ones produce warnings instead of being silently dropped.
///
/// Warnings are sorted by source position (the named loop's `do` line, with
/// loop-less warnings last) and then text, so the order is deterministic
/// regardless of assertion order or demand schedule.
fn resolve_assertions(
    ctx: &AnalysisCtx<'_>,
    config: &ParallelizeConfig,
) -> (AssertionMarks, AssertionMarks, Vec<String>) {
    let program = ctx.program;
    let mut assert_private = AssertionMarks::new();
    let mut assert_independent = AssertionMarks::new();
    let mut warnings: Vec<(u32, String)> = Vec::new();
    for a in &config.assertions {
        let (kind, loop_name, var, set) = match a {
            Assertion::Privatizable { loop_name, var } => {
                ("privatizable", loop_name, var, &mut assert_private)
            }
            Assertion::Independent { loop_name, var } => {
                ("independent", loop_name, var, &mut assert_independent)
            }
        };
        let Some(li) = ctx.tree.loops.iter().find(|l| &l.name == loop_name) else {
            warnings.push((
                u32::MAX,
                format!("unresolved assertion: no loop `{loop_name}` (asserted {kind} `{var}`)"),
            ));
            continue;
        };
        let proc_name = &program.proc(li.proc).name;
        match program.var_by_name(proc_name, var) {
            Some(v) => {
                set.insert((li.stmt, ctx.array_of(v)));
            }
            None => {
                warnings.push((
                    li.line,
                    format!(
                        "unresolved assertion: no variable `{var}` in `{proc_name}` (asserted {kind} on `{loop_name}`)"
                    ),
                ));
            }
        }
    }
    warnings.sort();
    warnings.dedup();
    let warnings = warnings.into_iter().map(|(_, w)| w).collect();
    (assert_private, assert_independent, warnings)
}

/// Fingerprint of the resolved assertions restricted to one loop (or to all
/// loops, for the epoch hash): sorted, so set iteration order is immaterial.
fn write_assertion_marks(
    h: &mut Fnv128,
    only_loop: Option<StmtId>,
    assert_private: &AssertionMarks,
    assert_independent: &AssertionMarks,
) {
    let mut marks: Vec<(u32, u32, u8)> = Vec::new();
    for &(s, id) in assert_private {
        if only_loop.map(|l| l == s).unwrap_or(true) {
            marks.push((s.0, id.0, 1));
        }
    }
    for &(s, id) in assert_independent {
        if only_loop.map(|l| l == s).unwrap_or(true) {
            marks.push((s.0, id.0, 2));
        }
    }
    marks.sort_unstable();
    for (s, id, kind) in marks {
        h.write_u32(s);
        h.write_u32(id);
        h.write(&[kind]);
    }
}
