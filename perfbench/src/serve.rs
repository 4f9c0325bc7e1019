//! The `serve-mutate` workload: a `firal_serve` hub over a 2-rank
//! `SocketComm` mesh in this process, driven by two closed-loop clients.
//!
//! Each client owns an f64 pool. One iteration is SELECT `approx-firal`
//! over the whole mesh, LABEL of the selected points, and ADD of as many
//! fresh points, so the pool size stays constant: the query→label loop of
//! active learning. The clients take turns at SELECT (see [`Turns`]).
//! Set-up, warm-up and the timed loop run on one CPU (see
//! [`pin_to_one_cpu`]).
//! Afterwards each client's script is replayed on a client-side shadow
//! pool, where every served batch must equal the same request computed
//! apart from the serve layer.

use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use firal_comm::{free_rendezvous_addr, launch, socket_launch};
use firal_core::{
    dispatch_select, select_serial, strategy_by_name, SelectRequest, SelectionProblem,
};
use firal_linalg::{counters, Matrix};
use firal_serve::proto::{apply_mutation, PoolMutation};
use firal_serve::{run as serve, SelectSpec, ServeClient, ServeConfig, ServeError, ServeSummary};

use crate::common::{objective_gain, platform_context, valid_batch, SetupLog};
use crate::procfs;
use crate::report::{num, Outcome, RunClock};
use crate::scenario::{self, Scenario, Shape};
use crate::stats::{median, windowed_rate};

/// Pool of 600 points, d = 16, c = 6, budget 6 per SELECT. The served
/// strategy runs its default configuration, whose mirror descent mostly
/// runs to its 100-iteration cap, so the pool is kept small enough for
/// dozens of requests per run.
const SHAPE: Shape = Shape {
    n: 600,
    d: 16,
    c: 6,
    b: 6,
    labeled_per_class: 4,
    population: 1800,
};
/// Mesh ranks, each with one kernel thread.
const RANKS: usize = 2;
/// Closed-loop clients.
const CLIENTS: usize = 2;
/// Read deadline on every response: far above any healthy round.
const PATIENCE: Duration = Duration::from_secs(60);
/// Leading steps of each client's script whose batch `objective_gain`
/// scores, each on the pool as it stood when the batch was served. Over
/// ten seeds one batch per client spread the gain by 12–18%, four by
/// 10–16%; later batches gain less, and eight spread the smaller median
/// by 17% over five seeds.
const GAIN_STEPS: usize = 4;
/// Completions per window of `selects_per_s` (see
/// [`crate::stats::windowed_rate`]): one turn of each client, a cycle of
/// the loop. The loop's mean rate spread by more than the median request
/// latency over the same runs: a few slow stretches of a run (host steal,
/// slow wake-ups at the collectives) pull a mean down, not a median.
const RATE_WINDOW: usize = CLIENTS;

/// Per-layer metrics of the in-rank RELAX/ROUND steps, reported as 0
/// here, with their units.
const IN_RANK_METRICS: [(&str, &str); 15] = [
    ("relax.precond_s", "s"),
    ("relax.cg_s", "s"),
    ("relax.matvec_s", "s"),
    ("relax.gradient_s", "s"),
    ("relax.other_s", "s"),
    ("relax.md_iters", "count"),
    ("relax.cg_iters", "count"),
    ("relax.gflop", "Gflop"),
    ("round.state_s", "s"),
    ("round.ftrl_s", "s"),
    ("round.objective_s", "s"),
    ("round.eig_s", "s"),
    ("round.other_s", "s"),
    ("round.criterion_s", "s"),
    ("round.gflop", "Gflop"),
];

type ServerThread = std::thread::JoinHandle<Vec<Result<ServeSummary, ServeError>>>;

/// A thread's CPU affinity mask (`cpu_set_t`, 1024 bits).
type CpuMask = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuMask) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuMask) -> i32;
}

/// Pin the calling thread, and so every thread it starts from then on, to
/// the lowest CPU it may run on; return that CPU and the mask to restore,
/// or `None` (and no change) when the mask cannot be read or set.
///
/// The served path runs pinned. Spread over two vCPUs, the two ranks meet
/// at about 3,400 collectives per request, each a wake-up across vCPUs,
/// and host steal on either vCPU stops both: runs with 6–14 s of steal in
/// a 20-s loop read `select_s` at 2–3 times the calm value. Over five
/// interleaved pairs of runs its spread (interquartile range over median)
/// was 0.12 unpinned and 0.06 pinned, that of `selects_per_s` 0.14 and
/// 0.09. On one CPU the ranks still run every collective over their
/// sockets, taking turns instead of waiting for each other.
fn pin_to_one_cpu() -> Option<(usize, CpuMask)> {
    let size = std::mem::size_of::<CpuMask>();
    let mut old: CpuMask = [0; 16];
    // SAFETY: pid 0 names the calling thread and `size` is the size of
    // the buffer the kernel writes to or reads from.
    if unsafe { sched_getaffinity(0, size, &mut old) } != 0 {
        return None;
    }
    let cpu = (0..old.len() * 64).find(|&i| (old[i / 64] >> (i % 64)) & 1 == 1)?;
    let mut one: CpuMask = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above.
    (unsafe { sched_setaffinity(0, size, &one) } == 0).then_some((cpu, old))
}

/// Give the calling thread back the mask [`pin_to_one_cpu`] replaced.
fn restore_affinity(mask: &CpuMask) {
    // SAFETY: as in `pin_to_one_cpu`. Failing leaves the thread pinned,
    // which slows only the untimed verification.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask) };
}

/// One client's tenant: its initial pool and the points it adds later.
struct Tenant {
    problem: SelectionProblem<f64>,
    reserve_x: Matrix<f64>,
    reserve_h: Matrix<f64>,
}

impl Tenant {
    fn new(sc: &Scenario<f64>, seed: u64) -> Self {
        let perm = scenario::draw(seed, SHAPE.population);
        let reserve_x = sc.rows(&perm[SHAPE.n..]);
        let reserve_h = sc.model.class_probs_cm1(&reserve_x);
        Tenant {
            problem: sc.problem(&perm[..SHAPE.n]),
            reserve_x,
            reserve_h,
        }
    }

    /// The `b` reserve rows added in iteration `it` (cycling through the
    /// reserve).
    fn additions(&self, it: usize) -> PoolMutation {
        let len = self.reserve_x.rows();
        let rows: Vec<usize> = (0..SHAPE.b).map(|k| (it * SHAPE.b + k) % len).collect();
        let pick = |m: &Matrix<f64>| Matrix::from_fn(rows.len(), m.cols(), |r, j| m[(rows[r], j)]);
        PoolMutation::Add {
            xs: pick(&self.reserve_x),
            hs: pick(&self.reserve_h),
        }
    }
}

/// A live server and one connected client per tenant.
struct Session {
    server: ServerThread,
    clients: Vec<(ServeClient, u64)>,
}

fn start_session(tenants: &[Tenant]) -> Session {
    let addr = free_rendezvous_addr().expect("a free localhost port");
    let config = ServeConfig::new(addr.clone());
    let server = std::thread::spawn(move || socket_launch(RANKS, |comm| serve(comm, &config)));
    let clients = tenants
        .iter()
        .map(|t| {
            let mut client = ServeClient::connect(&addr, PATIENCE)
                .and_then(|c| c.with_patience(Some(PATIENCE)))
                .expect("client connects to the hub");
            let handle = client.upload_pool(&t.problem).expect("pool upload");
            (client, handle)
        })
        .collect();
    Session { server, clients }
}

/// Shut the server down; true when every rank reports a healthy exit.
fn stop_session(mut session: Session) -> bool {
    let acked = session.clients[0].0.shutdown().is_ok();
    let summaries = session.server.join().expect("server thread panicked");
    acked
        && summaries.len() == RANKS
        && summaries
            .iter()
            .all(|s| s.as_ref().is_ok_and(|s| s.degraded.is_none()))
}

/// One SELECT/LABEL/ADD iteration as the client saw it.
struct Step {
    seed: u64,
    selected: Vec<usize>,
    latency_s: f64,
    service_s: f64,
    mutate_s: f64,
    comm_calls: f64,
    comm_bytes: f64,
    comm_time_s: f64,
    /// When the SELECT response arrived.
    done: Instant,
    ok: bool,
}

/// Request seed of a client's iteration: fresh RELAX probes per request.
fn request_seed(seed: u64, client: usize, it: usize) -> u64 {
    seed.wrapping_mul(1_000_003)
        .wrapping_add((client as u64) << 32)
        .wrapping_add(it as u64)
}

/// Whose turn it is to SELECT. The clients take turns: one client's
/// SELECT runs while the other labels and adds, then the other's. Left
/// free-running, a SELECT queued behind the other client's in some
/// iterations and not in others, so client latency had two modes (one
/// and two service times) and a run's median fell on either side.
struct Turns {
    /// The client whose turn it is, and whether a client has left.
    state: Mutex<(usize, bool)>,
    changed: Condvar,
}

impl Turns {
    fn new() -> Self {
        Turns {
            state: Mutex::new((0, false)),
            changed: Condvar::new(),
        }
    }

    /// Wait for `client`'s turn; false when the other client has left
    /// holding it.
    fn wait(&self, client: usize) -> bool {
        let mut s = self.state.lock().expect("turn lock");
        while s.0 != client && !s.1 {
            s = self.changed.wait(s).expect("turn lock");
        }
        s.0 == client
    }

    /// Hand the turn to the next client; with `leave`, for good.
    fn pass(&self, client: usize, leave: bool) {
        let mut s = self.state.lock().expect("turn lock");
        s.0 = (client + 1) % CLIENTS;
        s.1 |= leave;
        self.changed.notify_all();
    }
}

/// Closed loop of one client until `deadline`; every iteration it starts
/// it finishes. With `turns`, each SELECT waits for the client's turn and
/// hands it on when its response arrives.
fn client_loop(
    (client, pool): &mut (ServeClient, u64),
    tenant: &Tenant,
    index: usize,
    seed: u64,
    deadline: Instant,
    first_it: usize,
    turns: Option<&Turns>,
) -> Vec<Step> {
    let pool = *pool;
    let mut steps = Vec::new();
    let mut it = first_it;
    loop {
        if turns.is_some_and(|t| !t.wait(index)) {
            return steps;
        }
        let spec = SelectSpec {
            pool,
            strategy: "approx-firal".to_string(),
            budget: SHAPE.b,
            seed: request_seed(seed, index, it),
            threads: 1,
            max_ranks: 0,
        };
        let t0 = Instant::now();
        let outcome = client.select(&spec);
        let done = Instant::now();
        let latency_s = done.duration_since(t0).as_secs_f64();
        if let Some(t) = turns {
            t.pass(index, false);
        }
        let Ok(outcome) = outcome else {
            steps.push(failed_step(spec.seed));
            return steps;
        };
        let t1 = Instant::now();
        let label = client.label_points(pool, &outcome.selected);
        let add = match tenant.additions(it) {
            PoolMutation::Add { xs, hs } => client.add_points(pool, &xs, &hs),
            _ => unreachable!("additions() builds an Add"),
        };
        let mutate_s = t1.elapsed().as_secs_f64();
        let size_kept = add.as_ref().is_ok_and(|a| a.pool_size == SHAPE.n);
        let c = &outcome.comm;
        steps.push(Step {
            seed: spec.seed,
            ok: label.is_ok() && size_kept && valid_batch(&outcome.selected, SHAPE.b, SHAPE.n),
            selected: outcome.selected,
            latency_s,
            service_s: outcome.seconds,
            mutate_s,
            comm_calls: (c.allreduce_calls + c.bcast_calls + c.allgather_calls) as f64,
            comm_bytes: (c.allreduce_bytes + c.bcast_bytes + c.allgather_bytes) as f64,
            comm_time_s: c.time.as_secs_f64(),
            done,
        });
        if !steps.last().is_some_and(|s| s.ok) {
            return steps;
        }
        it += 1;
        if Instant::now() >= deadline {
            return steps;
        }
    }
}

fn failed_step(seed: u64) -> Step {
    Step {
        seed,
        selected: Vec::new(),
        latency_s: 0.0,
        service_s: 0.0,
        mutate_s: 0.0,
        comm_calls: 0.0,
        comm_bytes: 0.0,
        comm_time_s: 0.0,
        done: Instant::now(),
        ok: false,
    }
}

/// What the replay of one client's script found.
struct Replay {
    /// One verdict per step: the served batch equals the reference.
    verdicts: Vec<bool>,
    /// Steps whose served batch differs from `select_serial`.
    serial_mismatches: usize,
    /// `objective_gain` of the first [`GAIN_STEPS`] served batches, each
    /// on the shadow pool it was selected from.
    gains: Vec<f64>,
}

/// Replay a client's script on a shadow copy of its pool. Each served
/// batch must equal the same request computed apart from the serve layer
/// (`dispatch_select` over a 2-rank `ThreadComm` group on the shadow);
/// then the step's LABEL and ADD are applied to the shadow. The batches
/// that differ from `select_serial` on the shadow are counted as well:
/// the serve layer promises serial bits, but the comparison is kept out
/// of the verdicts because it fails on some pools and not others (see
/// CHANGES.md), which would make the failed share depend on the seed.
/// The leading steps' batches are scored for `objective_gain` on the way;
/// `gain_seed` seeds their random baselines.
fn replay(tenant: &Tenant, steps: &[Step], gain_seed: u64) -> Replay {
    let approx = strategy_by_name::<f64>("approx-firal").expect("registered strategy");
    let mut shadow = tenant.problem.clone();
    let mut out = Replay {
        verdicts: Vec::with_capacity(steps.len()),
        serial_mismatches: 0,
        gains: Vec::new(),
    };
    for (it, step) in steps.iter().enumerate() {
        let req = SelectRequest::new("approx-firal", SHAPE.b)
            .with_seed(step.seed)
            .with_threads(1);
        let ranks = launch(RANKS, |comm| {
            dispatch_select(comm, &shadow, &req)
                .map(|r| r.selected)
                .ok()
        });
        let agreed = ranks.iter().all(|r| r.is_some() && *r == ranks[0]);
        out.verdicts
            .push(step.ok && agreed && ranks[0].as_deref() == Some(&step.selected[..]));
        let serial = select_serial(approx.as_ref(), &shadow, SHAPE.b, step.seed)
            .map(|r| r.selected)
            .unwrap_or_default();
        out.serial_mismatches += usize::from(serial != step.selected);
        if it < GAIN_STEPS && step.ok {
            let seed = gain_seed
                .wrapping_mul(GAIN_STEPS as u64)
                .wrapping_add(it as u64);
            out.gains
                .push(objective_gain(&shadow, &step.selected, seed));
        }
        let label = PoolMutation::Label {
            indices: step.selected.clone(),
        };
        if apply_mutation(&mut shadow, &label).is_err()
            || apply_mutation(&mut shadow, &tenant.additions(it)).is_err()
        {
            // The shadow can no longer follow the script.
            out.verdicts.resize(steps.len(), false);
            break;
        }
    }
    out
}

/// Run `serve-mutate` for `seconds` of closed-loop traffic.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    // The global kernel pool sizes itself by, and its workers inherit, the
    // affinity of the thread that first uses it: start it unpinned, for
    // the verification after the timed loop.
    rayon::current_num_threads();
    let pin = pin_to_one_cpu();
    out.context(
        "pinned_cpu",
        pin.as_ref()
            .map_or("null".to_string(), |(cpu, _)| cpu.to_string()),
    );
    let mut session = None;
    let mut setup = SetupLog::default();
    let tenants = setup.blocks_before(|times| {
        if let Some(previous) = session.take() {
            // Only the last build's server stays up; shutting the others
            // down is not part of any build's time.
            assert!(
                stop_session(previous),
                "a set-up server did not shut down cleanly"
            );
        }
        let sc = scenario::build::<f64>(SHAPE, times);
        let t0 = Instant::now();
        let tenants: Vec<Tenant> = (0..CLIENTS as u64)
            .map(|k| Tenant::new(&sc, seed.wrapping_mul(CLIENTS as u64).wrapping_add(k)))
            .collect();
        session = Some(start_session(&tenants));
        times.upload_s = t0.elapsed().as_secs_f64();
        tenants
    });
    setup.report(&mut out, trace);
    let mut session = session.expect("set-up ran at least once");

    // Warm-up: one iteration per client (ships the pools to the worker
    // rank); replayed and checked with the rest of the script.
    let now = Instant::now();
    let warm: Vec<Vec<Step>> = session
        .clients
        .iter_mut()
        .zip(&tenants)
        .enumerate()
        .map(|(k, (conn, tenant))| client_loop(conn, tenant, k, seed, now, 0, None))
        .collect();

    let stat0 = procfs::read_stat();
    let count0 = counters::snapshot();
    let clock = RunClock::start();
    let t_loop = Instant::now();
    let deadline = t_loop + Duration::from_secs_f64(seconds);
    let turns = Turns::new();
    let timed: Vec<Vec<Step>> = std::thread::scope(|scope| {
        let handles: Vec<_> = session
            .clients
            .iter_mut()
            .zip(&tenants)
            .enumerate()
            .map(|(k, (conn, tenant))| {
                let turns = &turns;
                scope.spawn(move || {
                    let steps = client_loop(conn, tenant, k, seed, deadline, 1, Some(turns));
                    // A client that stops early must not leave the other
                    // waiting for its turn.
                    turns.pass(k, true);
                    steps
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let loop_s = t_loop.elapsed().as_secs_f64();
    let stat = procfs::read_stat().since(&stat0);
    let count = counters::snapshot();
    let peak_rss_mb = procfs::read_peak_rss_mb();
    out.context("timed_loop", clock.json());
    let healthy = stop_session(session);
    if let Some((_, mask)) = &pin {
        restore_affinity(mask);
    }

    // Verification: replay both scripts (warm-up first) on shadow pools.
    let scripts: Vec<Vec<Step>> = warm
        .into_iter()
        .zip(timed)
        .map(|(mut w, t)| {
            w.extend(t);
            w
        })
        .collect();
    // The two replays run side by side; verification is not timed.
    let replays: Vec<Replay> = std::thread::scope(|scope| {
        let handles: Vec<_> = tenants
            .iter()
            .zip(&scripts)
            .enumerate()
            .map(|(k, (tenant, steps))| {
                let gain_seed = seed.wrapping_mul(CLIENTS as u64).wrapping_add(k as u64);
                scope.spawn(move || replay(tenant, steps, gain_seed))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    // Each iteration is three operations (SELECT, LABEL, ADD); a failed
    // check fails the whole iteration.
    for ok in replays.iter().flat_map(|r| &r.verdicts) {
        for _ in 0..3 {
            out.op(*ok);
        }
    }
    out.op(healthy);

    let timed_steps: Vec<&Step> = scripts.iter().flat_map(|s| s.iter().skip(1)).collect();
    let selects = timed_steps.len().max(1) as f64;
    let col = |f: fn(&Step) -> f64| timed_steps.iter().map(|s| f(s)).collect::<Vec<f64>>();
    if trace {
        // RELAX and ROUND run inside the ranks, out of reach of outside
        // timing on this path.
        for (name, unit) in IN_RANK_METRICS {
            out.metric(name, unit, 0.0);
        }
        let service_total: f64 = col(|s| s.service_s).iter().sum();
        out.metric(
            "linalg.gflops",
            "Gflop/s",
            (count.flops - count0.flops) as f64 / service_total.max(f64::MIN_POSITIVE) / 1e9,
        );
        out.metric(
            "linalg.alloc_mb",
            "MB",
            (count.bytes - count0.bytes) as f64 / selects / 1e6,
        );
        out.metric("mem.minflt", "count", stat.minflt as f64 / selects);
        out.metric("mem.sys_s", "s", stat.sys_s() / selects);
        out.metric("comm.calls", "count", median(&col(|s| s.comm_calls)));
        out.metric("comm.bytes", "bytes", median(&col(|s| s.comm_bytes)));
        out.metric("comm.time_s", "s", median(&col(|s| s.comm_time_s)));
        out.metric("serve.mutate_s", "s", median(&col(|s| s.mutate_s)));
        out.metric("serve.service_s", "s", median(&col(|s| s.service_s)));
        out.metric(
            "serve.queue_s",
            "s",
            median(&col(|s| s.latency_s - s.service_s)),
        );
        // The per-layer figures come from the responses and from counter
        // readings around the whole loop: tracing adds no call to a
        // request, so its overhead is nil by construction.
        out.metric("trace.overhead_s", "s", 0.0);
    } else {
        // Quality of each client's first GAIN_STEPS batches, each on the
        // pool it was selected from; the median over all of them. A failed
        // step has no gain, and then the run fails below.
        let gains: Vec<f64> = replays
            .iter()
            .flat_map(|r| r.gains.iter().copied())
            .collect();
        let scored: usize = scripts.iter().map(|s| s.len().min(GAIN_STEPS)).sum();
        let complete = !gains.is_empty() && gains.len() == scored;
        let gain = if complete { median(&gains) } else { 0.0 };
        let beats_random = gain > 0.0;
        if !beats_random {
            out.failed = out.attempted;
        }
        out.metric("select_s", "s", median(&col(|s| s.latency_s)));
        let ticks: Vec<f64> = timed_steps
            .iter()
            .map(|s| s.done.duration_since(t_loop).as_secs_f64())
            .collect();
        let rate = if ticks.is_empty() {
            0.0
        } else {
            windowed_rate(&ticks, RATE_WINDOW)
        };
        out.metric("selects_per_s", "1/s", rate);
        out.metric("peak_rss_mb", "MB", peak_rss_mb);
        out.metric("objective_gain", "decades", gain);
    }
    // The loop's plain rate, for reading `selects_per_s` against.
    out.context("loop_selects_per_s", num(timed_steps.len() as f64 / loop_s));
    out.context(
        "serial_mismatches",
        format!(
            r#"{{"steps": {}, "differ_from_select_serial": {}}}"#,
            scripts.iter().map(Vec::len).sum::<usize>(),
            replays.iter().map(|r| r.serial_mismatches).sum::<usize>()
        ),
    );
    out.sample("select_s_sample", &col(|s| s.latency_s));
    out.sample("service_s_sample", &col(|s| s.service_s));
    out.sample("mutate_s_sample", &col(|s| s.mutate_s));
    platform_context::<f64>(&mut out, SHAPE.d, "f64");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_holds_one_cpu_and_restores() {
        let before = std::thread::available_parallelism().map_or(1, |n| n.get());
        let (_, mask) = pin_to_one_cpu().expect("the affinity mask can be set");
        assert_eq!(std::thread::available_parallelism().unwrap().get(), 1);
        let child = std::thread::spawn(|| std::thread::available_parallelism().unwrap().get());
        assert_eq!(child.join().unwrap(), 1, "a new thread inherits the pin");
        restore_affinity(&mask);
        assert_eq!(std::thread::available_parallelism().unwrap().get(), before);
    }
}
