//! Differential test of the clock-stamped Dynamic Dependence Analyzer and
//! the fused instrumented run.
//!
//! The oracle is the stamp-vector analyzer the library used before
//! (`tests/legacy`): every store records the full stack of active monitored
//! loop instances and iterations, every load compares stamp prefixes.  For
//! each program the library analyzer runs *fused* with a [`LoopProfiler`]
//! — one machine over the pair `(profiler, analyzer)`, as
//! `Explorer::with_store` runs it — and must report exactly the oracle's
//! `deps` under five configurations:
//!
//! 1. the default (every loop monitored, nothing ignored);
//! 2. the compiler-derived [`dyndep_config`] the Explorer uses;
//! 3. a `monitor` subset holding every other loop;
//! 4. `max_iterations_per_invocation = Some(2)`;
//! 5. `max_iterations_per_invocation = Some(8)`.
//!
//! The fused profiler's report must equal a solo profiler run's (per-loop
//! invocations, iterations, ops and dynamic ancestors, and total ops), and
//! its invocation and iteration counts must equal a plain count of the
//! machine's loop events.
//! Programs: every ch4/ch5/ch6 application at `Scale::Test` with its input,
//! and 200 `minif-gen` corpus programs.

mod legacy;

use std::collections::{HashMap, HashSet};
use suif_analysis::{ParallelizeConfig, Parallelizer};
use suif_benchmarks::{ch4_apps, ch5_apps, ch6_apps, Scale};
use suif_dynamic::machine::{Hooks, Machine};
use suif_dynamic::{DynDepAnalyzer, DynDepConfig, LoopProfiler, ProfileReport};
use suif_explorer::explorer::dyndep_config;
use suif_ir::{Program, RegionTree, StmtId};

const GENERATED_PROGRAMS: u64 = 200;

fn run(program: &Program, input: &[f64], hooks: &mut dyn Hooks) -> u64 {
    let mut m = Machine::new(program, hooks).expect("layout");
    m.set_input(input.to_vec());
    m.run().expect("sequential run");
    m.ops()
}

fn solo_profile(program: &Program, input: &[f64]) -> ProfileReport {
    let mut profiler = LoopProfiler::new();
    run(program, input, &mut profiler);
    profiler.report()
}

/// Independent count of loop events: loop → (invocations, iterations).
#[derive(Default)]
struct LoopEvents(HashMap<StmtId, (u64, u64)>);

impl Hooks for LoopEvents {
    fn loop_exit(&mut self, stmt: StmtId, _ops: u64) {
        self.0.entry(stmt).or_default().0 += 1;
    }
    fn loop_iter(&mut self, stmt: StmtId, _iter: i64) {
        self.0.entry(stmt).or_default().1 += 1;
    }
}

fn configs(program: &Program) -> Vec<(&'static str, DynDepConfig)> {
    let analysis = Parallelizer::analyze(program, ParallelizeConfig::default());
    let tree = RegionTree::build(program);
    let every_other: HashSet<_> = tree.loops.iter().step_by(2).map(|l| l.stmt).collect();
    let sampled = |cap| DynDepConfig {
        max_iterations_per_invocation: Some(cap),
        ..DynDepConfig::default()
    };
    vec![
        ("default", DynDepConfig::default()),
        ("analysis", dyndep_config(program, &analysis)),
        (
            "every-other-loop",
            DynDepConfig {
                monitor: Some(every_other),
                ..DynDepConfig::default()
            },
        ),
        ("sample-2", sampled(2)),
        ("sample-8", sampled(8)),
    ]
}

/// Check one program under every configuration; returns how many
/// (loop, variable) dependences the oracle observed in total.
fn check_program(name: &str, program: &Program, input: &[f64]) -> usize {
    let solo = solo_profile(program, input);
    let mut events = LoopEvents::default();
    run(program, input, &mut events);
    let counted: HashMap<_, _> = solo
        .profiles
        .iter()
        .map(|(&l, p)| (l, (p.invocations, p.iterations)))
        .collect();
    assert_eq!(counted, events.0, "{name}: profiled loop counts");
    let mut observed = 0;
    for (cfg_name, cfg) in configs(program) {
        let mut oracle = legacy::DynDepAnalyzer::new(cfg.clone());
        run(program, input, &mut oracle);
        let expected = oracle.report().deps;

        let mut fused = (LoopProfiler::new(), DynDepAnalyzer::new(cfg));
        let ops = run(program, input, &mut fused);
        let (profiler, dd) = fused;
        let deps = dd.report().deps;
        assert_eq!(
            deps, expected,
            "{name}/{cfg_name}: clock-stamped deps differ from the stamp-vector oracle"
        );
        let profile = profiler.report();
        assert_eq!(
            profile.profiles, solo.profiles,
            "{name}/{cfg_name}: fused profile differs from a solo profiler run"
        );
        assert_eq!(profile.total_ops, solo.total_ops, "{name}/{cfg_name}");
        assert_eq!(profile.total_ops, ops, "{name}/{cfg_name}");
        observed += expected.values().map(HashSet::len).sum::<usize>();
    }
    observed
}

#[test]
fn clock_stamped_deps_match_oracle_on_benchmark_apps() {
    let apps = ch4_apps(Scale::Test)
        .into_iter()
        .chain(ch5_apps(Scale::Test))
        .chain(ch6_apps(Scale::Test));
    let mut observed = 0;
    for app in apps {
        let program = app.parse();
        observed += check_program(app.name, &program, &app.input);
    }
    // The comparison is vacuous if nothing carries a dependence.
    assert!(observed > 0);
}

#[test]
fn clock_stamped_deps_match_oracle_on_generated_programs() {
    let mut observed = 0;
    for seed in 0..GENERATED_PROGRAMS {
        let src = minif_gen::source_for_seed(seed);
        let program = suif_ir::parse_program(&src).expect("generated program parses");
        observed += check_program(&minif_gen::name_for_seed(seed), &program, &[]);
    }
    assert!(observed > 0);
}
