//! The serial workloads, `relax-bound` and `round-bound`: one
//! `Executor::approx_firal` per operation over `SelfComm`, one kernel
//! thread, f32.
//!
//! The traced mode rebuilds each selection from the public steps
//! `approx_firal` is made of (`relax`, `build_round_state`,
//! `round_with_state` per η, `selection_min_eig`), timing each call from
//! outside and reading the run records it returns; `RoundRun.timer` of a
//! full `approx_firal` covers only the winning η, so ROUND time is summed
//! here over the whole grid instead.

use std::time::Instant;

use firal_comm::SelfComm;
use firal_core::{EigSolver, Executor, FiralConfig, ShardedProblem};
use firal_linalg::{counters, Scalar};

use crate::common::{objective_gain, platform_context, valid_batch, SetupLog, SETUP_BLOCKS_BEFORE};
use crate::procfs;
use crate::report::{num, Outcome, RunClock};
use crate::scenario::{self, widen, SetupTimes, Shape};
use crate::stats::median;

/// A serial workload: its input shape and its fixed mirror-descent
/// iteration count.
pub struct SerialWorkload {
    /// Input make-up.
    pub shape: Shape,
    /// Mirror-descent iterations per RELAX. The default stopping rule
    /// watches a stochastic objective estimate and stopped anywhere from
    /// 27 to 100 iterations across seeds on the `relax-bound` shape, so
    /// the count is pinned (relative tolerance 0) to keep every seed's
    /// work the same; CG still runs to its default tolerance.
    pub md_iters: usize,
}

/// Large pool against `d·c`, small budget: RELAX (CG, matvec,
/// preconditioner, gradient) is most of the selection.
pub const RELAX_BOUND: SerialWorkload = SerialWorkload {
    shape: Shape {
        n: 3000,
        d: 32,
        c: 10,
        b: 20,
        labeled_per_class: 5,
        population: 6000,
    },
    md_iters: 40,
};

/// Wide blocks, large budget, small pool: ROUND (Σ⋄ build, Eq. 17
/// scores, per-block eigensolves, ν) is most of the selection.
pub const ROUND_BOUND: SerialWorkload = SerialWorkload {
    shape: Shape {
        n: 600,
        d: 64,
        c: 8,
        b: 48,
        labeled_per_class: 8,
        population: 1200,
    },
    md_iters: 10,
};

/// Allowed gap between a traced selection's wall time and the sum of its
/// parts (RELAX phases, ROUND state, FTRL runs, criteria), as a share of
/// the wall time. The parts leave out only RELAX's untimed set-up and
/// the calls between steps.
const CLOSURE_SLACK: f64 = 0.05;

/// One traced selection, measured from outside the program.
#[derive(Default)]
struct Trace {
    wall_s: f64,
    precond_s: f64,
    cg_s: f64,
    matvec_s: f64,
    gradient_s: f64,
    relax_other_s: f64,
    relax_timer_s: f64,
    md_iters: f64,
    cg_iters: f64,
    relax_flops: f64,
    state_s: f64,
    ftrl_s: f64,
    objective_s: f64,
    eig_s: f64,
    round_other_s: f64,
    criterion_s: f64,
    round_flops: f64,
    bytes: f64,
    minflt: f64,
    stime: f64,
    comm_calls: f64,
    comm_bytes: f64,
    comm_time_s: f64,
}

impl Trace {
    fn unaccounted_s(&self) -> f64 {
        self.wall_s - (self.relax_timer_s + self.state_s + self.ftrl_s + self.criterion_s)
    }
}

fn config(w: &SerialWorkload) -> FiralConfig<f32> {
    let mut cfg = FiralConfig::<f32>::default();
    cfg.relax.md.max_iters = w.md_iters;
    cfg.relax.md.obj_rel_tol = 0.0;
    cfg
}

/// Rebuild `approx_firal`'s selection from its public steps, timing each.
fn traced_select(
    exec: &Executor<'_, f32>,
    b: usize,
    cfg: &FiralConfig<f32>,
) -> (Vec<usize>, Trace) {
    let mut t = Trace::default();
    let stat0 = procfs::read_stat();
    let comm0 = exec.comm_stats();
    let count0 = counters::snapshot();
    let t0 = Instant::now();

    let (relax, relax_count) = counters::measure(|| exec.relax(b, &cfg.relax));
    t.precond_s = relax.timer.get("precond").as_secs_f64();
    t.cg_s = relax.timer.get("cg").as_secs_f64();
    t.matvec_s = relax.timer.get("matvec").as_secs_f64();
    t.gradient_s = relax.timer.get("gradient").as_secs_f64();
    t.relax_other_s = relax.timer.get("other").as_secs_f64();
    t.relax_timer_s = relax.timer.total().as_secs_f64();
    t.md_iters = relax.telemetry.iterations as f64;
    t.cg_iters = relax.total_cg_iters as f64;
    t.relax_flops = relax_count.flops as f64;

    let (selected, round_count) = counters::measure(|| {
        let s = Instant::now();
        let state = exec.build_round_state(&relax.z_local);
        t.state_s = s.elapsed().as_secs_f64();
        // The η grid of `Executor::select_eta`: multipliers of √ê, first
        // maximum of the criterion wins.
        let scale = f32::from_usize(exec.shard().ehat()).sqrt();
        let mut best: Option<(f32, Vec<usize>)> = None;
        for &mult in &cfg.round.eta_grid {
            let s = Instant::now();
            let run = exec.round_with_state(&state, b, mult * scale, EigSolver::Exact);
            t.ftrl_s += s.elapsed().as_secs_f64();
            t.objective_s += run.timer.get("objective").as_secs_f64();
            t.eig_s += run.timer.get("eig").as_secs_f64();
            t.round_other_s += run.timer.get("other").as_secs_f64();
            let s = Instant::now();
            let crit = exec.selection_min_eig(&run.selected);
            t.criterion_s += s.elapsed().as_secs_f64();
            match &best {
                Some((c, _)) if *c >= crit => {}
                _ => best = Some((crit, run.selected)),
            }
        }
        best.expect("the η grid is non-empty").1
    });
    t.round_flops = round_count.flops as f64;

    t.wall_s = t0.elapsed().as_secs_f64();
    let count = counters::snapshot();
    t.bytes = (count.bytes - count0.bytes) as f64;
    let stat = procfs::read_stat().since(&stat0);
    t.minflt = stat.minflt as f64;
    t.stime = stat.sys_s();
    let comm = exec.comm_stats().since(&comm0);
    t.comm_calls = (comm.allreduce_calls + comm.bcast_calls + comm.allgather_calls) as f64;
    t.comm_bytes = (comm.allreduce_bytes + comm.bcast_bytes + comm.allgather_bytes) as f64;
    t.comm_time_s = comm.time.as_secs_f64();
    (selected, t)
}

/// Run one serial workload for `seconds` of timed selections.
pub fn run(w: &SerialWorkload, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let shape = w.shape;
    let build = |times: &mut SetupTimes| {
        let sc = scenario::build::<f32>(shape, times);
        let t0 = Instant::now();
        let pool = &scenario::draw(seed, shape.population)[..shape.n];
        let problem = sc.problem(pool);
        let shard = ShardedProblem::replicate(&problem);
        times.upload_s = t0.elapsed().as_secs_f64();
        (problem, shard)
    };
    // The selections run on the one build a user would make, on this
    // thread. The timed builds run on a thread of their own (see
    // `SetupLog::on_own_thread`): how many ran here decided whether the
    // selections faulted pages in or not.
    let mut first = SetupTimes::default();
    let (problem, shard) = build(&mut first);
    out.context("first_build_s", num(first.total()));

    let comm = SelfComm::new();
    let exec = Executor::serial(&comm, &shard).with_threads(1);
    let cfg = config(w);
    let select = || exec.approx_firal(shape.b, &cfg).1.selected;

    // Warm-up: the first selection tunes kernel plans and faults in the
    // allocator's arenas; it is checked like every other. The peak
    // resident set is read here, after one build and one selection: the
    // set-up thread below keeps an arena of its own resident, which is
    // the benchmark's and not the program's.
    let reference = select();
    let valid = valid_batch(&reference, shape.b, shape.n);
    out.op(valid);
    let peak_rss_mb = procfs::read_peak_rss_mb();

    // Set-up blocks run before the timed loop and after every timed
    // selection, so `setup_s` is sampled across the whole run and host
    // drift moves it as it moves `select_s`; the blocks' time is left out
    // of the loop's wall time.
    let mut setup = SetupLog::default();
    setup.on_own_thread(build, |run_block| {
        for _ in 0..SETUP_BLOCKS_BEFORE {
            run_block();
        }
        if trace {
            run_traced(&mut out, &exec, &cfg, &reference, shape, seconds, run_block);
        } else {
            let mut times = Vec::new();
            let mut blocks_s = 0.0;
            let clock = RunClock::start();
            let t_loop = Instant::now();
            while t_loop.elapsed().as_secs_f64() < seconds {
                let t0 = Instant::now();
                let sel = select();
                times.push(t0.elapsed().as_secs_f64());
                out.op(sel == reference);
                let t0 = Instant::now();
                run_block();
                blocks_s += t0.elapsed().as_secs_f64();
            }
            let loop_s = t_loop.elapsed().as_secs_f64() - blocks_s;
            out.context("timed_loop", clock.json());

            let gain = if valid {
                objective_gain(&widen(&problem), &reference, seed)
            } else {
                0.0
            };
            let beats_random = gain > 0.0;
            if !beats_random {
                // Every timed selection equals the reference, so a
                // reference that does not beat random picks fails all of
                // them.
                out.failed = out.attempted;
            }
            out.metric("select_s", "s", median(&times));
            out.metric("selects_per_s", "1/s", times.len() as f64 / loop_s);
            out.metric("peak_rss_mb", "MB", peak_rss_mb);
            out.metric("objective_gain", "decades", gain);
            out.sample("select_s_sample", &times);
        }
    });
    setup.report(&mut out, trace);
    platform_context::<f32>(&mut out, shape.d, "f32");
    out
}

fn run_traced(
    out: &mut Outcome,
    exec: &Executor<'_, f32>,
    cfg: &FiralConfig<f32>,
    reference: &[usize],
    shape: Shape,
    seconds: f64,
    setup_block: &mut dyn FnMut(),
) {
    // Rounds of one untraced and one traced selection; the difference of
    // their medians is the tracing overhead.
    let mut plain = Vec::new();
    let mut traces = Vec::new();
    let mut closure_ok = true;
    let clock = RunClock::start();
    let t_loop = Instant::now();
    while t_loop.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let sel = exec.approx_firal(shape.b, cfg).1.selected;
        plain.push(t0.elapsed().as_secs_f64());
        out.op(sel == reference);

        let (sel, t) = traced_select(exec, shape.b, cfg);
        let closes = t.unaccounted_s().abs() <= CLOSURE_SLACK * t.wall_s;
        closure_ok &= closes;
        out.op(sel == reference && closes);
        traces.push(t);
        setup_block();
    }
    out.context("timed_loop", clock.json());

    let m = |f: fn(&Trace) -> f64| median(&traces.iter().map(f).collect::<Vec<_>>());
    let sum = |f: fn(&Trace) -> f64| traces.iter().map(f).sum::<f64>();
    let per_sel = traces.len() as f64;
    let traced_s = m(|t| t.wall_s);
    out.metric("relax.precond_s", "s", m(|t| t.precond_s));
    out.metric("relax.cg_s", "s", m(|t| t.cg_s));
    out.metric("relax.matvec_s", "s", m(|t| t.matvec_s));
    out.metric("relax.gradient_s", "s", m(|t| t.gradient_s));
    out.metric("relax.other_s", "s", m(|t| t.relax_other_s));
    out.metric("relax.md_iters", "count", m(|t| t.md_iters));
    out.metric("relax.cg_iters", "count", m(|t| t.cg_iters));
    out.metric("relax.gflop", "Gflop", m(|t| t.relax_flops) / 1e9);
    out.metric("round.state_s", "s", m(|t| t.state_s));
    out.metric("round.ftrl_s", "s", m(|t| t.ftrl_s));
    out.metric("round.objective_s", "s", m(|t| t.objective_s));
    out.metric("round.eig_s", "s", m(|t| t.eig_s));
    out.metric("round.other_s", "s", m(|t| t.round_other_s));
    out.metric("round.criterion_s", "s", m(|t| t.criterion_s));
    out.metric("round.gflop", "Gflop", m(|t| t.round_flops) / 1e9);
    out.metric(
        "linalg.gflops",
        "Gflop/s",
        m(|t| (t.relax_flops + t.round_flops) / t.wall_s) / 1e9,
    );
    out.metric("linalg.alloc_mb", "MB", m(|t| t.bytes) / 1e6);
    // Fault and system-time counters tick coarsely (sys time in 10 ms
    // ticks), so they are averaged over the run, not medianed.
    out.metric("mem.minflt", "count", sum(|t| t.minflt) / per_sel);
    out.metric("mem.sys_s", "s", sum(|t| t.stime) / per_sel);
    out.metric("comm.calls", "count", m(|t| t.comm_calls));
    out.metric("comm.bytes", "bytes", m(|t| t.comm_bytes));
    out.metric("comm.time_s", "s", m(|t| t.comm_time_s));
    // No serve layer on this path.
    out.metric("serve.mutate_s", "s", 0.0);
    out.metric("serve.service_s", "s", 0.0);
    out.metric("serve.queue_s", "s", 0.0);
    out.metric("trace.overhead_s", "s", traced_s - median(&plain));

    out.sample("select_s_sample", &plain);
    out.sample(
        "traced_select_s_sample",
        &traces.iter().map(|t| t.wall_s).collect::<Vec<_>>(),
    );
    out.context(
        "closure",
        format!(
            r#"{{"unaccounted_s_median": {}, "slack_share": {CLOSURE_SLACK}, "ok": {closure_ok}, "round_timer_gap_s_median": {}}}"#,
            num(m(|t| t.unaccounted_s())),
            num(m(|t| t.ftrl_s - (t.objective_s + t.eig_s + t.round_other_s))),
        ),
    );
}
