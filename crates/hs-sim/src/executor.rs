//! The campaign worker pool, shared by [`Campaign::run`](crate::Campaign::run)
//! and the supervised engine, and the warm-up sharing it does for both.
//!
//! A run's warm-up reads nothing but its [`WarmupKey`]: the workloads in
//! attach order, the core and memory configuration, the time scale, the
//! warm-up length and the admission gate. Within one execution, the first
//! run of each key to start warms a core and publishes a clone of it; every
//! other run with that key starts from a clone of the published core, so
//! each distinct warm-up is simulated once. Nothing outlives the execution.
//! DESIGN.md §3b states the contract.

use crate::campaign::PlannedRun;
use crate::error::SimError;
use crate::runner::RunSpec;
use crate::simulator::{unobserved, Simulator};
use crate::stats::SimStats;
use hs_cpu::{Cpu, CpuConfig, FetchGate};
use hs_mem::MemConfig;
use hs_workloads::Workload;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Everything a run's warm-up reads: runs with equal keys leave
/// bit-identical warm cores. Policy, sink, thresholds, sensors, faults
/// and execution mode are absent on purpose — warm-up runs no DTM and no
/// thermal model.
#[derive(PartialEq)]
pub(crate) struct WarmupKey {
    workloads: Vec<Workload>,
    cpu: CpuConfig,
    mem: MemConfig,
    /// The exact time scale the programs are built for, as bits.
    time_scale: u64,
    warmup_cycles: u64,
    /// The admission gate after screening.
    gate: FetchGate,
}

impl WarmupKey {
    fn of(spec: &RunSpec) -> WarmupKey {
        let cfg = spec.config();
        WarmupKey {
            workloads: spec.workloads().to_vec(),
            cpu: cfg.cpu,
            mem: cfg.mem,
            time_scale: cfg.time_scale.to_bits(),
            warmup_cycles: cfg.warmup_cycles,
            gate: Simulator::admission_gate_for(cfg, spec.workloads()),
        }
    }
}

/// What one execution produced.
pub(crate) struct Executed<T> {
    /// Each run's result by run id; `None` for runs not executed.
    pub(crate) results: Vec<Option<T>>,
    /// Worker threads used.
    pub(crate) jobs: usize,
    /// Warm-ups simulated.
    pub(crate) warmups: usize,
    /// Whether `stop` ended dispatch before every run was handed out.
    pub(crate) stopped: bool,
}

/// Executes runs `ids` of `runs` on `jobs` workers (clamped to
/// `1..=ids.len()`; one worker runs on the calling thread). Each run goes
/// to `work` with its worker's [`Worker`] handle. Runs are handed out
/// group by group — a group is the runs sharing a [`WarmupKey`], in run-id
/// order, and groups go in the order of their first run — and once `stop`
/// returns true for a result, no further run is handed out.
pub(crate) fn execute<T: Send>(
    runs: &[PlannedRun],
    ids: &[usize],
    jobs: usize,
    work: impl Fn(usize, &Worker<'_>) -> T + Sync,
    stop: impl Fn(&T) -> bool + Sync,
) -> Executed<T> {
    let mut keys: Vec<WarmupKey> = Vec::new();
    let mut members: Vec<Vec<usize>> = Vec::new();
    let mut group_of = vec![usize::MAX; runs.len()];
    for &id in ids {
        let key = WarmupKey::of(&runs[id].spec);
        let g = keys.iter().position(|k| *k == key).unwrap_or_else(|| {
            keys.push(key);
            members.push(Vec::new());
            keys.len() - 1
        });
        members[g].push(id);
        group_of[id] = g;
    }
    let shared = Shared {
        table: Mutex::new(Table {
            groups: members
                .iter()
                .map(|m| Group {
                    need: m.len(),
                    warm: Warm::Cold,
                })
                .collect(),
            started: vec![false; runs.len()],
        }),
        changed: Condvar::new(),
        group_of,
        warmups: AtomicUsize::new(0),
    };
    let order = members.concat();
    let cursor = AtomicUsize::new(0);
    let stopped = AtomicBool::new(false);
    let cells: Vec<Mutex<Option<T>>> = runs.iter().map(|_| Mutex::new(None)).collect();
    let worker = |index| {
        let handle = Worker {
            index,
            shared: &shared,
        };
        while !stopped.load(Ordering::SeqCst) {
            let Some(&id) = order.get(cursor.fetch_add(1, Ordering::Relaxed)) else {
                break;
            };
            let out = work(id, &handle);
            shared.finish(id);
            if stop(&out) {
                stopped.store(true, Ordering::SeqCst);
            }
            *cells[id].lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
        }
    };
    let jobs = jobs.clamp(1, ids.len().max(1));
    if jobs == 1 {
        worker(0);
    } else {
        let worker = &worker;
        std::thread::scope(|scope| {
            for index in 0..jobs {
                scope.spawn(move || worker(index));
            }
        });
    }
    Executed {
        results: cells
            .into_iter()
            .map(|c| c.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect(),
        jobs,
        warmups: shared.warmups.into_inner(),
        stopped: stopped.into_inner(),
    }
}

/// One worker's handle on the execution's shared warm-ups.
pub(crate) struct Worker<'a> {
    index: usize,
    shared: &'a Shared,
}

impl Worker<'_> {
    /// Runs `spec`, run `id`, from a clone of its group's warm core, or
    /// warms that core first when no run of the group has. Also returns
    /// how long the run waited on other runs' warm-ups.
    pub(crate) fn run(&self, id: usize, spec: &RunSpec) -> (Result<SimStats, SimError>, Duration) {
        let mut waited = Duration::ZERO;
        let result = match self.shared.start(id, self.index, &mut waited) {
            Start::Warm(core) => spec
                .simulator(Some(Arc::unwrap_or_clone(core)))
                .map(|mut sim| sim.run_measured(unobserved)),
            Start::Cold(ticket) => spec.simulator(None).map(|mut sim| {
                sim.warm_up();
                ticket.publish(sim.core(), &mut waited);
                sim.run_measured(unobserved)
            }),
        };
        (result, waited)
    }
}

/// The warm-up groups of one execution.
struct Shared {
    table: Mutex<Table>,
    /// Signalled on every change of a group's [`Warm`] state.
    changed: Condvar,
    /// Each run id's group (`usize::MAX` for runs not executed).
    group_of: Vec<usize>,
    warmups: AtomicUsize,
}

struct Table {
    groups: Vec<Group>,
    /// By run id: whether the run has started from a warm core (its own or
    /// a clone). Later attempts of a started run no longer count in `need`.
    started: Vec<bool>,
}

struct Group {
    /// Runs of the group that have neither started nor finished.
    need: usize,
    warm: Warm,
}

enum Warm {
    /// No warm core and nobody warming one: the next run to start warms it.
    Cold,
    /// A run is warming the core; the group's other runs wait for it.
    Warming,
    /// The warm core, published by worker `owner`.
    Ready { core: Arc<Cpu>, owner: usize },
}

/// How a run starts.
enum Start<'a> {
    /// From a clone of its group's warm core.
    Warm(Arc<Cpu>),
    /// From a fresh core it must warm, publishing it through the ticket.
    Cold(Ticket<'a>),
}

impl Shared {
    /// The table. Nothing done under the lock panics, so it is never
    /// poisoned in practice; recovering the guard anyway keeps
    /// `Ticket::drop`, which runs during unwinding, panic-free.
    fn lock(&self) -> MutexGuard<'_, Table> {
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits for the next change of any group, adding the time to `waited`.
    fn wait<'a>(
        &self,
        table: MutexGuard<'a, Table>,
        waited: &mut Duration,
    ) -> MutexGuard<'a, Table> {
        let since = Instant::now();
        let table = self
            .changed
            .wait(table)
            .unwrap_or_else(PoisonError::into_inner);
        *waited += since.elapsed();
        table
    }

    /// How run `id` starts: from the group's published core, or — when
    /// there is none and nobody is warming one — by warming it. Waits
    /// while another run warms the group's core.
    fn start(&self, id: usize, worker: usize, waited: &mut Duration) -> Start<'_> {
        let g = self.group_of[id];
        let mut table = self.lock();
        while matches!(table.groups[g].warm, Warm::Warming) {
            table = self.wait(table, waited);
        }
        let first = !std::mem::replace(&mut table.started[id], true);
        let group = &mut table.groups[g];
        if first {
            group.need -= 1;
        }
        match &group.warm {
            Warm::Ready { core, .. } if group.need > 0 => Start::Warm(Arc::clone(core)),
            Warm::Ready { .. } => {
                // The group's last run takes the core itself.
                let Warm::Ready { core, .. } = std::mem::replace(&mut group.warm, Warm::Cold)
                else {
                    unreachable!("matched Ready above")
                };
                self.changed.notify_all();
                Start::Warm(core)
            }
            Warm::Cold => {
                group.warm = Warm::Warming;
                Start::Cold(Ticket {
                    shared: self,
                    group: g,
                    worker,
                    published: false,
                })
            }
            Warm::Warming => unreachable!("waited out above"),
        }
    }

    /// Run `id` reached its final outcome. If it never started, its group
    /// needs one core fewer; the last need gone drops the published core.
    fn finish(&self, id: usize) {
        let mut table = self.lock();
        if std::mem::replace(&mut table.started[id], true) {
            return;
        }
        let group = &mut table.groups[self.group_of[id]];
        group.need -= 1;
        if group.need == 0 && matches!(group.warm, Warm::Ready { .. }) {
            group.warm = Warm::Cold;
            self.changed.notify_all();
        }
    }
}

/// The duty to warm one group's core. Dropped unpublished — the warming
/// run erred, panicked or found nobody left to share with — it returns
/// the group to [`Warm::Cold`], so a waiting run warms the core itself.
struct Ticket<'a> {
    shared: &'a Shared,
    group: usize,
    worker: usize,
    published: bool,
}

impl Ticket<'_> {
    /// Publishes a clone of `core`, just warmed, for the group's other
    /// runs. A worker keeps at most one published core: it first waits for
    /// the last run of its previous one to take it. Those runs were handed
    /// out before this one, so each is about to start or finish.
    fn publish(mut self, core: &Cpu, waited: &mut Duration) {
        let shared = self.shared;
        shared.warmups.fetch_add(1, Ordering::Relaxed);
        let mut table = shared.lock();
        while table.groups[self.group].need > 0 && table.owns_core(self.worker) {
            table = shared.wait(table, waited);
        }
        if table.groups[self.group].need == 0 {
            return;
        }
        drop(table);
        let core = Arc::new(core.clone());
        let mut table = shared.lock();
        let group = &mut table.groups[self.group];
        if group.need > 0 {
            group.warm = Warm::Ready {
                core,
                owner: self.worker,
            };
            self.published = true;
            shared.changed.notify_all();
        }
    }
}

impl Drop for Ticket<'_> {
    fn drop(&mut self) {
        if !self.published {
            self.shared.lock().groups[self.group].warm = Warm::Cold;
            self.shared.changed.notify_all();
        }
    }
}

impl Table {
    fn owns_core(&self, worker: usize) -> bool {
        self.groups
            .iter()
            .any(|g| matches!(g.warm, Warm::Ready { owner, .. } if owner == worker))
    }
}
