//! Polyhedral-kernel smoke benchmark for CI: sequential analysis wall-clock
//! on the ch4 applications under the staged emptiness ladder, plus kernel
//! microbenchmarks (intersect, project_out, prove_empty), emitted to
//! `BENCH_4.json`.
//!
//! `scripts/bench_poly_baseline.sh` supplies the before/after comparison:
//! it builds the pre-overhaul tree from git and passes its wall time in
//! `BENCH_POLY_BASELINE_SECS`, which this binary folds into the report as
//! `total.pre_pr_wall_secs` / `total.speedup` and gates at 1.3x.
//!
//! Every measured run is cold: fresh fact store, cleared prove-empty memo.
//! Reported numbers are the best of `RUNS` samples.  The stage counters are
//! included so the smoke check can see what share of emptiness queries
//! resolved without full Fourier–Motzkin.

use std::time::Instant;
use suif_analysis::{FactStore, ParallelizeConfig, Parallelizer, ScheduleOptions};
use suif_benchmarks::{apps, BenchProgram, Scale};
use suif_poly::{Constraint, LinExpr, PolyStats, Polyhedron, Var};

const RUNS: usize = 5;
/// Analyses per timed sample — batches the millisecond-scale per-app runs
/// into samples large enough to rise above scheduler noise.
const BATCH: usize = 3;

/// One timed sample: `BATCH` cold sequential analyses (fresh store,
/// cleared memo each), summed.
fn analysis_sample(program: &suif_ir::Program) -> (f64, PolyStats, usize) {
    let mut secs = 0.0;
    let mut poly = PolyStats::default();
    let mut loops = 0;
    for _ in 0..BATCH {
        suif_poly::clear_prove_empty_cache();
        let store = FactStore::new();
        let (pa, stats) = Parallelizer::analyze_in(
            program,
            ParallelizeConfig::default(),
            &ScheduleOptions { threads: 1 },
            None,
            &store,
        );
        secs += stats.total_secs;
        poly = stats.poly;
        loops = pa.ctx.tree.loops.len();
    }
    (secs, poly, loops)
}

fn add(out: &mut PolyStats, d: &PolyStats) {
    out.gcd_rejects += d.gcd_rejects;
    out.interval_rejects += d.interval_rejects;
    out.quick_sats += d.quick_sats;
    out.fm_runs += d.fm_runs;
    out.approximations += d.approximations;
    out.subscript_rejects += d.subscript_rejects;
}

fn bench_app(bench: &BenchProgram, stages: &mut PolyStats) -> (String, f64) {
    let program = bench.parse();
    let mut staged = f64::INFINITY;
    let mut poly = PolyStats::default();
    let mut loops = 0;
    for _ in 0..RUNS {
        let (s, p, l) = analysis_sample(&program);
        if s < staged {
            staged = s;
            poly = p;
        }
        loops = l;
    }
    add(stages, &poly);
    eprintln!("{:<8} {loops:>3} loops  staged {staged:.6}s", bench.name);
    let json = format!(
        "{{\"name\":\"{}\",\"loops\":{loops},\"staged_wall_secs\":{staged:.6}}}",
        bench.name
    );
    (json, staged)
}

/// Deterministic pseudo-random stream (SplitMix64) for the microbenchmark
/// workload — identical systems on every run and host.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }
}

const MICRO_VARS: [Var; 4] = [Var::Dim(0), Var::Dim(1), Var::Sym(0), Var::Sym(1)];

fn micro_systems(n: usize) -> Vec<Polyhedron> {
    let mut rng = Rng(0x51f0_ca11_ab1e);
    (0..n)
        .map(|_| {
            let k = 3 + (rng.next() % 4) as usize;
            Polyhedron::from_constraints((0..k).map(|_| {
                let mut e = LinExpr::constant(rng.range(-10, 10));
                for &v in &MICRO_VARS {
                    e = e.add(&LinExpr::term(v, rng.range(-4, 4)));
                }
                if rng.next().is_multiple_of(4) {
                    Constraint::eq0(e)
                } else {
                    Constraint::geq0(e)
                }
            }))
        })
        .collect()
}

/// Best-of-`RUNS` seconds for one microbenchmark body.
fn micro_time(mut body: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..RUNS {
        suif_poly::clear_prove_empty_cache();
        let t0 = Instant::now();
        body();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Kernel microbenchmarks over a fixed synthetic workload.
fn micro_json() -> String {
    let systems = micro_systems(400);
    let mut out = Vec::new();
    for (name, op) in [
        ("intersect", 0usize),
        ("project_out", 1),
        ("prove_empty", 2),
    ] {
        let secs = micro_time(|| match op {
            0 => {
                for w in systems.windows(2) {
                    std::hint::black_box(w[0].intersect(&w[1]));
                }
            }
            1 => {
                for p in &systems {
                    for &v in &MICRO_VARS {
                        std::hint::black_box(p.project_out(v));
                    }
                }
            }
            _ => {
                for p in &systems {
                    std::hint::black_box(p.prove_empty());
                }
            }
        });
        eprintln!("micro {name:<12} staged {secs:.6}s");
        out.push(format!("\"{name}\":{{\"staged_secs\":{secs:.6}}}"));
    }
    format!("{{{}}}", out.join(","))
}

fn main() {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let baseline: Option<f64> = std::env::var("BENCH_POLY_BASELINE_SECS")
        .ok()
        .and_then(|s| s.trim().parse().ok());
    let benches = [
        apps::mdg(Scale::Test),
        apps::hydro(Scale::Test),
        apps::arc3d(Scale::Test),
        apps::flo88(Scale::Test, false),
        apps::hydro2d(Scale::Test),
        apps::wave5(Scale::Test),
    ];
    let mut total_staged = 0.0;
    let mut per_app = Vec::new();
    let mut stages = PolyStats::default();
    for b in &benches {
        let (json, staged) = bench_app(b, &mut stages);
        total_staged += staged;
        per_app.push(json);
    }
    let micro = micro_json();
    let cheap = stages.gcd_rejects + stages.interval_rejects + stages.quick_sats;
    let no_fm_share = cheap as f64 / (cheap + stages.fm_runs).max(1) as f64;
    let pre_pr = baseline.map_or(String::new(), |b| {
        format!(
            ",\"pre_pr_wall_secs\":{b:.6},\"speedup\":{:.4}",
            b / total_staged.max(1e-12)
        )
    });
    let json = format!(
        "{{\"bench\":\"ch4-poly-kernel\",\"cpus\":{cpus},\
         \"apps\":[{}],\
         \"total\":{{\"staged_wall_secs\":{total_staged:.6}{pre_pr}}},\
         \"stages\":{{\"gcd_rejects\":{},\"interval_rejects\":{},\"quick_sats\":{},\
         \"subscript_rejects\":{},\"fm_runs\":{},\"approximations\":{},\
         \"no_fm_share\":{no_fm_share:.4}}},\
         \"micro\":{micro}}}",
        per_app.join(","),
        stages.gcd_rejects,
        stages.interval_rejects,
        stages.quick_sats,
        stages.subscript_rejects,
        stages.fm_runs,
        stages.approximations,
    );
    std::fs::write("BENCH_4.json", &json).expect("write BENCH_4.json");
    println!("{json}");
    if let Some(b) = baseline {
        let speedup = b / total_staged.max(1e-12);
        if speedup < 1.3 {
            eprintln!(
                "error: staged kernel ({total_staged:.6}s) not >=1.3x over the \
                 pre-overhaul build ({b:.6}s): x{speedup:.2}"
            );
            std::process::exit(1);
        }
    }
}
