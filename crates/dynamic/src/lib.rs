//! Execution substrate for the SUIF Explorer reproduction: a MiniF
//! interpreter plus the two *Execution Analyzers* of §2.5:
//!
//! * the **Loop Profile Analyzer** (§2.5.1) — per-loop execution cost in
//!   virtual ops (scaled to time by the whole run's wall clock), invocation
//!   counts, coverage and granularity metrics;
//! * the **Dynamic Dependence Analyzer** (§2.5.2) — shadow-memory tracking of
//!   the most recent write to every location, reporting loop-carried flow
//!   dependences while ignoring compiler-recognized induction variables and
//!   reduction updates, ignoring anti-dependences, and modelling
//!   privatization (a read preceded by a same-iteration write carries no
//!   dependence).  Iteration batching (§2.5.2's second optimization) is
//!   supported through a sampling configuration.  The shadow memory is a
//!   flat vector of clock stamps: one event clock ticks at each monitored
//!   loop entry and iteration, a store writes the clock into its address's
//!   cell, and a load compares that stamp with the active loops' entry and
//!   iteration-start clocks (see [`dyndep`]).
//!
//! Both analyzers observe **one** instrumented run: [`machine::Hooks`] is
//! implemented for pairs, so `Machine::new(program, &mut (profiler, dd))`
//! feeds every event to each in turn, and [`machine::Hooks::finish`] hands
//! them the run's final op count.
//!
//! The interpreter uses Fortran-77 storage semantics: statically allocated
//! locals (SAVE semantics), common blocks as shared segments, by-reference
//! array arguments (including sub-array bases) and copy-in/copy-out scalars.
//! Because MiniF has only bounded `do` loops and an acyclic call graph,
//! every program terminates — no fuel accounting is needed.
//!
//! The [`machine::Machine`] exposes a *loop handler* extension point through
//! which the `suif-parallel` crate executes compiler-parallelized loops on
//! worker threads over a shared view of this machine's memory.
//!
//! On top of that sits the **race-certification subsystem** (`docs/dynamic.md`):
//! [`race`] is a happens-before / vector-clock race detector, [`sched`] a
//! seeded adversarial scheduler, and [`certify`] a parallel loop executor
//! that runs a loop's iterations on real worker threads serialized through a
//! token-passing gate with a preemption point at every shared memory access,
//! certifying (or refuting) the static parallelizer's DOALL claims.
//!
//! ```
//! use suif_dynamic::machine::{Machine, NoHooks};
//! let program = suif_ir::parse_program(
//!     "program p\nproc main() {\n int i, s\n s = 0\n do i = 1, 10 {\n s = s + i\n }\n print s\n}",
//! ).unwrap();
//! let mut hooks = NoHooks;
//! let mut m = Machine::new(&program, &mut hooks).unwrap();
//! m.run().unwrap();
//! assert_eq!(m.output, vec!["55"]);
//! ```

#![warn(missing_docs)]

pub mod certify;
pub mod dyndep;
pub mod layout;
pub mod machine;
pub mod profile;
pub mod race;
pub mod sched;
pub mod value;

pub use certify::{CertOp, CertOutcome, CertRole, CertSegment, CertSpec, CertifyHandler, SpecFn};
pub use dyndep::{DynDepAnalyzer, DynDepConfig, DynDepReport};
pub use layout::Layout;
pub use machine::{Hooks, Machine, MemStore, NoHooks, RuntimeError};
pub use profile::{LoopProfile, LoopProfiler, ProfileReport};
pub use race::{AccessInfo, AccessKind, Race, RaceDetector, RaceHooks, VectorClock};
pub use sched::{AdversarialScheduler, SchedPolicy, SplitMix64};
pub use value::Value;
