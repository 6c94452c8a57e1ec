//! The campaign worker pool the supervised engine
//! ([`crate::supervise`]) runs every campaign on, and the warm-up sharing
//! it does.
//!
//! A run's warm-up reads nothing but its [`WarmupKey`]: the workloads in
//! attach order, the core and memory configuration, the time scale and the
//! warm-up length. Within one execution, the first run of each key to start
//! warms a core and publishes a clone of it; every other run with that key
//! starts from a clone of the published core, so each distinct warm-up is
//! simulated once. Nothing outlives the execution.
//! DESIGN.md §3b states the contract.

use crate::campaign::PlannedRun;
use crate::error::SimError;
use crate::runner::RunSpec;
use crate::simulator::unobserved;
use crate::stats::SimStats;
use hs_cpu::{Cpu, CpuConfig};
use hs_mem::MemConfig;
use hs_workloads::Workload;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

#[cfg(test)]
thread_local! {
    /// The run [`panicking_run`] plants a panic in; `execute` reads it on
    /// its calling thread.
    static PLANTED: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// Calls `f` with run `id` of every execution it starts set to panic once
/// the run took its start: inside its warm-up when it holds its group's
/// warming duty, else before it simulates.
#[cfg(test)]
pub(crate) fn panicking_run<T>(id: usize, f: impl FnOnce() -> T) -> T {
    PLANTED.with(|p| p.set(Some(id)));
    let out = f();
    PLANTED.with(|p| p.set(None));
    out
}

/// The message of the panic [`panicking_run`] plants in run `id`.
#[cfg(test)]
pub(crate) fn planted_panic_message(id: usize) -> String {
    format!("planted panic in run {id}")
}

/// Everything a run's warm-up reads: runs with equal keys leave
/// bit-identical warm cores. Policy, sink, thresholds, sensors, faults,
/// admission screening and execution mode are absent on purpose — warm-up
/// runs no DTM and no thermal model, with every fetch gate open.
#[derive(PartialEq)]
pub(crate) struct WarmupKey {
    workloads: Vec<Workload>,
    cpu: CpuConfig,
    mem: MemConfig,
    /// The exact time scale the programs are built for, as bits.
    time_scale: u64,
    warmup_cycles: u64,
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
        groups: Mutex::new(
            members
                .iter()
                .map(|m| Group {
                    need: m.len(),
                    warm: Warm::Cold,
                })
                .collect(),
        ),
        changed: Condvar::new(),
        group_of,
        warmups: AtomicUsize::new(0),
        #[cfg(test)]
        waiting: AtomicUsize::new(0),
        #[cfg(test)]
        planted: PLANTED.with(std::cell::Cell::get),
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
    /// warms that core first when no run of the group has.
    pub(crate) fn run(&self, id: usize, spec: &RunSpec) -> Result<SimStats, SimError> {
        match self.shared.start(id, self.index) {
            Start::Warm(core) => {
                #[cfg(test)]
                self.shared.panic_if_planted(id);
                spec.simulator(Some(Arc::unwrap_or_clone(core)))
                    .map(|mut sim| sim.run_measured(unobserved))
            }
            Start::Cold(ticket) => spec.simulator(None).map(|mut sim| {
                sim.warm_up();
                #[cfg(test)]
                self.shared.panic_if_planted(id);
                ticket.publish(sim.core());
                sim.run_measured(unobserved)
            }),
        }
    }
}

/// The warm-up groups of one execution.
struct Shared {
    /// By group index.
    groups: Mutex<Vec<Group>>,
    /// Signalled on every change of a group's [`Warm`] state.
    changed: Condvar,
    /// Each run id's group (`usize::MAX` for runs not executed).
    group_of: Vec<usize>,
    warmups: AtomicUsize,
    /// Runs in [`Shared::wait`], so a test can hold a warming duty until
    /// another run waits for it. Counted under the groups' lock, which the
    /// waiter releases only once it waits.
    #[cfg(test)]
    waiting: AtomicUsize,
    /// The run [`panicking_run`] planted a panic in.
    #[cfg(test)]
    planted: Option<usize>,
}

struct Group {
    /// Runs of the group that have not started.
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
    /// The groups. Nothing done under the lock panics, so it is never
    /// poisoned in practice; recovering the guard anyway keeps
    /// `Ticket::drop`, which runs during unwinding, panic-free.
    fn lock(&self) -> MutexGuard<'_, Vec<Group>> {
        self.groups.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits for the next change of any group.
    fn wait<'a>(&self, groups: MutexGuard<'a, Vec<Group>>) -> MutexGuard<'a, Vec<Group>> {
        #[cfg(test)]
        self.waiting.fetch_add(1, Ordering::SeqCst);
        let groups = self
            .changed
            .wait(groups)
            .unwrap_or_else(PoisonError::into_inner);
        #[cfg(test)]
        self.waiting.fetch_sub(1, Ordering::SeqCst);
        groups
    }

    /// How run `id` starts: from the group's published core, or — when
    /// there is none and nobody is warming one — by warming it. Waits
    /// while another run warms the group's core. Every run handed out
    /// starts exactly once.
    fn start(&self, id: usize, worker: usize) -> Start<'_> {
        let g = self.group_of[id];
        let mut groups = self.lock();
        while matches!(groups[g].warm, Warm::Warming) {
            groups = self.wait(groups);
        }
        let group = &mut groups[g];
        group.need -= 1;
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

    /// Panics when run `id` is the one [`panicking_run`] planted.
    #[cfg(test)]
    fn panic_if_planted(&self, id: usize) {
        assert!(self.planted != Some(id), "{}", planted_panic_message(id));
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
    fn publish(mut self, core: &Cpu) {
        let shared = self.shared;
        shared.warmups.fetch_add(1, Ordering::Relaxed);
        let mut groups = shared.lock();
        while groups[self.group].need > 0 && owns_core(&groups, self.worker) {
            groups = shared.wait(groups);
        }
        if groups[self.group].need == 0 {
            return;
        }
        drop(groups);
        let core = Arc::new(core.clone());
        let mut groups = shared.lock();
        let group = &mut groups[self.group];
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
            self.shared.lock()[self.group].warm = Warm::Cold;
            self.shared.changed.notify_all();
        }
    }
}

/// Whether `worker` published a core some group still holds.
fn owns_core(groups: &[Group], worker: usize) -> bool {
    groups
        .iter()
        .any(|g| matches!(g.warm, Warm::Ready { owner, .. } if owner == worker))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimConfig;
    use hs_workloads::{SpecWorkload, Workload};

    /// How a run of the test below started.
    #[derive(Debug, PartialEq)]
    enum Took {
        /// The warming duty, dropped unpublished.
        Dropped,
        /// The warming duty, published.
        Cold,
        /// A clone of the published core.
        Warm,
    }

    #[test]
    fn a_dropped_warming_duty_passes_to_the_waiting_run() {
        let spec = RunSpec::builder()
            .workload(Workload::Spec(SpecWorkload::Gcc))
            .config(SimConfig::scaled(2000.0))
            .build()
            .expect("valid spec");
        let runs: Vec<PlannedRun> = ["a", "b"]
            .map(|label| PlannedRun {
                label: label.into(),
                spec: spec.clone(),
            })
            .into();
        let dropped = AtomicBool::new(false);
        let executed = execute(
            &runs,
            &[0, 1],
            2,
            |id, worker| match worker.shared.start(id, worker.index) {
                Start::Cold(ticket) if !dropped.swap(true, Ordering::SeqCst) => {
                    // Hold the duty until the other run waits for it: the
                    // drop must wake it, or the execution deadlocks.
                    while worker.shared.waiting.load(Ordering::SeqCst) == 0 {
                        std::thread::yield_now();
                    }
                    drop(ticket);
                    Took::Dropped
                }
                Start::Cold(ticket) => {
                    let cfg = spec.config();
                    ticket.publish(&Cpu::new(cfg.cpu, cfg.mem));
                    Took::Cold
                }
                Start::Warm(_) => Took::Warm,
            },
            |_| false,
        );
        let mut took: Vec<Took> = executed.results.into_iter().flatten().collect();
        took.sort_by_key(|t| t == &Took::Cold);
        assert_eq!(took, [Took::Dropped, Took::Cold]);
        assert_eq!(executed.warmups, 1, "the dropped duty warmed nothing");
    }
}
