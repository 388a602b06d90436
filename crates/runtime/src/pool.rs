//! The SPMD task pool: P rank jobs on W = `available_parallelism`
//! workers — jobs come from the distribution, processors are a
//! separate mapping (DESIGN.md §5.2).
//!
//! A gang job is a future. A worker runs it until it awaits a
//! [`Mailbox`] that is still empty; the deposit that fills the mailbox
//! makes it ready again. No job ever parks a thread, so W never
//! depends on P.
//!
//! A gang of n jobs runs as L = min(W, n) lanes of contiguous jobs —
//! job i in lane i·L/n — and the lane, not the job, is the pool's task.
//! A lane polls its ready jobs in ascending order, taking them off an
//! atomic bitset, until none is ready; then it parks. A job's waker,
//! built once, sets the job's bit and puts the lane on the shared
//! queue only if the lane has parked. A wake inside a lane — most halo
//! packets and tree hops, as the partitioner numbers neighbouring
//! parts contiguously — is thus one atomic OR, and a rank stays on the
//! worker that runs its lane.
//!
//! The workers are W − 1 resident helper
//! threads plus the thread that submits a gang: the submitter runs
//! **only its own gang's** lanes (a small gang costs no thread hand-off,
//! a daemon handler is never stuck in another request's segment),
//! helpers run any gang's, so concurrent gangs interleave on the
//! helpers instead of oversubscribing the machine.
//!
//! A job that returns `Err` or panics (caught per poll) fails its
//! gang: the submitter gets the `Err`, never a hang on the peers that
//! wait for the dead rank. Joining drops every future — with them the
//! mailboxes they own and the wakers parked there — so nothing of a
//! gang outlives [`SpmdPool::run_gang`].

use std::collections::VecDeque;
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};
use syncplace_obs::{self as obs, keys, RecorderRef};

/// How long an idle worker watches the queue before it sleeps: a rank
/// segment is a few µs, a futex round trip 5–50 µs. After the first
/// eighth it yields its CPU between looks — if the OS has packed two
/// workers onto one CPU, a busy spinner starves the one with the job.
const SPIN: Duration = Duration::from_micros(40);

/// A type-erased gang job: stores its own result, yields only failure.
type Job = Pin<Box<dyn Future<Output = Result<(), String>> + Send>>;

/// A lane's states: parked (in no worker's hands, and none of its jobs
/// was ready when it last looked), on the shared queue, or running.
const PARKED: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;

/// An unbounded FIFO between two jobs of a gang — the pool's one
/// suspension point: [`Mailbox::take`] suspends the calling job while
/// the box is empty and the next [`Mailbox::deposit`] wakes it.
#[derive(Default)]
pub struct Mailbox<T>(Mutex<(VecDeque<T>, Option<Waker>)>);

impl<T> Mailbox<T> {
    /// Append `item` and wake the receiver if it is parked here.
    pub fn deposit(&self, item: T) {
        let mut inner = self.0.lock().expect("mailbox poisoned");
        inner.0.push_back(item);
        let waker = inner.1.take();
        drop(inner);
        waker.into_iter().for_each(Waker::wake);
    }

    /// The oldest item, waiting for it if there is none yet.
    pub async fn take(&self) -> T {
        std::future::poll_fn(|cx| {
            let mut inner = self.0.lock().expect("mailbox poisoned");
            let item = inner.0.pop_front();
            if item.is_none() {
                inner.1 = Some(cx.waker().clone());
            }
            item.map_or(Poll::Pending, Poll::Ready)
        })
        .await
    }
}

/// What every worker shares: one lock, one place to sleep.
#[derive(Default)]
struct Shared {
    state: Mutex<State>,
    wake: Condvar,
    /// Mirrors `state.ready.len()`, so idle workers spin off the lock.
    nready: AtomicUsize,
}

#[derive(Default)]
struct State {
    ready: VecDeque<Arc<Lane>>,
    sleepers: usize,
    /// Ends the helpers; only a test's private pool is ever stopped.
    stop: bool,
}

/// One gang in flight.
struct Gang {
    pool: Arc<Shared>,
    /// Jobs left; the first failure zeroes it, so 0 is "over".
    left: AtomicUsize,
    /// Its lanes in a worker's hands, written under the pool lock: its
    /// submitter joins once the gang is over and this reads 0 there.
    held: AtomicUsize,
    failed: Mutex<Option<String>>,
    /// Its lanes on the ready queue now, and the most there ever were.
    queued: AtomicUsize,
    peak: AtomicUsize,
}

impl Gang {
    fn over(&self) -> bool {
        self.left.load(SeqCst) == 0
    }

    /// Count a finished job; a failure (the first one is kept) ends the
    /// gang.
    fn finish(&self, done: Result<(), String>) {
        match done {
            Ok(()) => {
                // A job may still finish after a failure zeroed the count.
                let _ = (self.left).fetch_update(SeqCst, SeqCst, |left| left.checked_sub(1));
            }
            Err(why) => {
                self.failed.lock().expect("poisoned").get_or_insert(why);
                self.left.store(0, SeqCst);
            }
        }
    }
}

/// A run of contiguous jobs of a gang, from job `first` on: the pool's
/// task.
struct Lane {
    gang: Arc<Gang>,
    first: usize,
    /// Bit k is set while job `first + k` is ready to be polled.
    ready: Box<[AtomicU64]>,
    state: AtomicU8,
    /// The jobs and their wakers, held by the worker that runs the lane.
    /// Emptying a job (when it finishes) and the slots (at join) cuts
    /// the cycle waker → lane → future → mailbox → waker.
    slots: Mutex<Vec<Slot>>,
}

struct Slot {
    job: Option<Job>,
    waker: Waker,
}

/// Job `first + bit` of `lane`, as its waker sees it.
struct JobWaker {
    lane: Arc<Lane>,
    bit: usize,
}

impl Wake for JobWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    /// Mark the job ready, and queue its lane if the lane has parked.
    /// A lane that parks re-reads its bits after it says so, so the
    /// two never miss each other.
    fn wake_by_ref(self: &Arc<Self>) {
        let lane = &self.lane;
        lane.ready[self.bit / 64].fetch_or(1 << (self.bit % 64), SeqCst);
        if (lane.state.compare_exchange(PARKED, QUEUED, SeqCst, SeqCst)).is_ok() {
            lane.gang.pool.enqueue(&lane.gang, [Arc::clone(lane)]);
        }
    }
}

impl Slot {
    /// Poll once. `Some` if that finished the job (a panic is a failure
    /// naming rank `idx`), `None` if it now waits on a mailbox or is gone.
    fn poll(&mut self, idx: usize) -> Option<Result<(), String>> {
        let fut = self.job.as_mut()?.as_mut();
        let mut cx = Context::from_waker(&self.waker);
        let done = match catch_unwind(AssertUnwindSafe(|| fut.poll(&mut cx))) {
            Ok(Poll::Pending) => return None,
            Ok(Poll::Ready(done)) => done,
            Err(panic) => {
                let why = panic.downcast_ref::<String>().map(String::as_str);
                let why = why.or_else(|| panic.downcast_ref::<&str>().copied());
                let why = why.unwrap_or("(no message)");
                Err(format!("rank {idx} panicked: {why}"))
            }
        };
        self.job = None;
        Some(done)
    }
}

impl Lane {
    /// Take the lowest ready bit at or above `from`.
    fn take_ready(&self, from: usize) -> Option<usize> {
        let low = !0u64 << (from % 64);
        for (w, word) in self.ready.iter().enumerate().skip(from / 64) {
            let bits = word.load(SeqCst) & if w == from / 64 { low } else { !0 };
            if bits != 0 {
                let k = bits.trailing_zeros();
                word.fetch_and(!(1 << k), SeqCst);
                return Some(64 * w + k as usize);
            }
        }
        None
    }

    /// Sweep the ready jobs in ascending order, round after round, until
    /// none is ready — then park — or the gang is over.
    fn run(&self) {
        let mut slots = self.slots.lock().expect("lane poisoned");
        let mut from = 0;
        while !self.gang.over() {
            if let Some(k) = self.take_ready(from) {
                if let Some(done) = slots.get_mut(k).and_then(|s| s.poll(self.first + k)) {
                    self.gang.finish(done);
                }
                from = k + 1;
            } else if from > 0 {
                from = 0;
            } else {
                // Park, then look once more: a wake that came before the
                // store saw the lane running and queued nothing.
                self.state.store(PARKED, SeqCst);
                let idle = self.ready.iter().all(|word| word.load(SeqCst) == 0);
                if idle || (self.state.compare_exchange(PARKED, RUNNING, SeqCst, SeqCst)).is_err() {
                    return;
                }
            }
        }
    }
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("pool poisoned")
    }

    /// Queue lanes of `gang` — one lock, at most one wake-up call.
    fn enqueue(&self, gang: &Gang, lanes: impl IntoIterator<Item = Arc<Lane>>) {
        let mut st = self.lock();
        let before = st.ready.len();
        st.ready.extend(lanes);
        self.nready.store(st.ready.len(), SeqCst);
        let added = st.ready.len() - before;
        let queued = gang.queued.fetch_add(added, SeqCst) + added;
        gang.peak.fetch_max(queued, SeqCst);
        if st.sleepers > 0 {
            self.wake.notify_all();
        }
    }

    /// A worker's loop. A helper (`own` = `None`) runs any gang's lanes
    /// until the pool stops; a submitter only `own`'s, until that gang
    /// is over and no worker holds a lane of it, and returns the lock
    /// for the join. Idle, it spins for [`SPIN`], then sleeps until a
    /// lane is queued or a worker lets go of an over gang's last lane.
    fn work(&self, own: Option<&Arc<Gang>>) -> MutexGuard<'_, State> {
        let over = |stop| own.map_or(stop, |gang| gang.over() && gang.held.load(SeqCst) == 0);
        let mine = |l: &Arc<Lane>| own.is_none_or(|gang| Arc::ptr_eq(&l.gang, gang));
        let mut st = self.lock();
        let mut idle_since = None; // the clock is read only when idle
        while !over(st.stop) {
            let next = st.ready.iter().position(&mine);
            if let Some(lane) = next.and_then(|i| st.ready.remove(i)) {
                self.nready.store(st.ready.len(), SeqCst);
                lane.gang.queued.fetch_sub(1, SeqCst);
                lane.gang.held.fetch_add(1, SeqCst);
                lane.state.store(RUNNING, SeqCst);
                drop(st);
                lane.run();
                st = self.lock();
                let gang = &lane.gang;
                let ended = gang.held.fetch_sub(1, SeqCst) == 1 && gang.over();
                // Let go of the lane under the lock, where the join reads `held`.
                drop(lane);
                if ended && st.sleepers > 0 {
                    self.wake.notify_all();
                }
                idle_since = None;
                continue;
            }
            let since = *idle_since.get_or_insert_with(Instant::now);
            if since.elapsed() < SPIN {
                drop(st);
                while self.nready.load(SeqCst) == 0 && !over(false) && since.elapsed() < SPIN {
                    if since.elapsed() < SPIN / 8 {
                        std::hint::spin_loop();
                    } else {
                        std::thread::yield_now();
                    }
                }
                st = self.lock();
            } else {
                // Woken for nothing it may run, it goes straight back to
                // sleep: only running a lane restarts the spin.
                st.sleepers += 1;
                st = self.wake.wait(st).expect("pool poisoned");
                st.sleepers -= 1;
            }
        }
        st
    }
}

/// The pool: W − 1 resident helper threads plus whoever submits.
pub struct SpmdPool {
    shared: Arc<Shared>,
    helpers: Vec<std::thread::JoinHandle<()>>,
}

impl SpmdPool {
    /// A pool of `w` workers: the submitter and `w − 1` helpers — fewer
    /// if the OS refuses a thread (the submitter alone suffices).
    /// Crate-private: W is not a knob; only tests build a second pool.
    pub(crate) fn with_workers(w: usize) -> SpmdPool {
        let shared = Arc::<Shared>::default();
        let spawn = |i| {
            let shared = Arc::clone(&shared);
            let helper = std::thread::Builder::new().name(format!("spmd-helper-{i}"));
            helper.spawn(move || drop(shared.work(None))).ok()
        };
        let helpers = (1..w).map_while(spawn).collect();
        SpmdPool { shared, helpers }
    }

    /// The process-wide pool of W = `available_parallelism` workers,
    /// shared by every engine run, decomposer build and daemon request.
    pub fn global() -> &'static SpmdPool {
        static POOL: OnceLock<SpmdPool> = OnceLock::new();
        let w = || std::thread::available_parallelism().map_or(1, |n| n.get());
        POOL.get_or_init(|| SpmdPool::with_workers(w()))
    }

    /// W: the helpers plus the submitting thread, whatever the gangs.
    pub fn workers(&self) -> usize {
        self.helpers.len() + 1
    }

    /// Run `jobs` as one gang — job `i` is rank `i` — and return their
    /// results in job order, or the first failure. Returns only when
    /// no worker touches the gang any more and every job is dropped.
    /// `rec` gets gang / job counters, the worker-count and gang-size
    /// gauges, the peak ready-queue depth (in lanes), a submit → join
    /// span, and per job a `pool.job` event (first poll → completion)
    /// and its `hb.barrier` arrival at the join.
    pub fn run_gang<R, F>(&self, jobs: Vec<F>, rec: &RecorderRef) -> Result<Vec<R>, String>
    where
        R: Send + 'static,
        F: Future<Output = Result<R, String>> + Send + 'static,
    {
        let n = jobs.len();
        let t0 = obs::start(rec);
        let results = Arc::new(Mutex::new((0..n).map(|_| None).collect::<Vec<Option<R>>>()));
        let gang = Arc::new(Gang {
            pool: Arc::clone(&self.shared),
            left: AtomicUsize::new(n),
            held: AtomicUsize::new(0),
            failed: Mutex::default(),
            queued: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        });
        let wrap = |idx: usize, job: F| -> Job {
            let (results, rec) = (Arc::clone(&results), rec.clone());
            Box::pin(async move {
                let t_job = obs::start(&rec);
                let out = job.await?;
                // Completion is the rank's arrival at the gang join,
                // the engines' (and the decomposer's) barrier.
                if let Some(r) = &rec {
                    r.hb(idx as u32, keys::HB_BARRIER, 0);
                }
                obs::finish_event(&rec, keys::POOL_JOB, idx as u32, t_job);
                results.lock().expect("gang results poisoned")[idx] = Some(out);
                Ok(())
            })
        };
        let nlanes = self.workers().min(n);
        let mut jobs = jobs.into_iter().enumerate();
        let lanes: Vec<Arc<Lane>> = (0..nlanes)
            .map(|l| {
                // Job i is in lane ⌊i·L/n⌋.
                let first = (l * n).div_ceil(nlanes);
                let len = ((l + 1) * n).div_ceil(nlanes) - first;
                let words =
                    (0..len.div_ceil(64)).map(|w| u64::MAX >> (64 - (len - 64 * w).min(64)));
                let lane = Arc::new(Lane {
                    gang: Arc::clone(&gang),
                    first,
                    ready: words.map(AtomicU64::new).collect(),
                    state: AtomicU8::new(QUEUED),
                    slots: Mutex::default(),
                });
                let slots = (jobs.by_ref().take(len)).map(|(idx, job)| Slot {
                    job: Some(wrap(idx, job)),
                    waker: Waker::from(Arc::new(JobWaker {
                        lane: Arc::clone(&lane),
                        bit: idx - first,
                    })),
                });
                *lane.slots.lock().expect("lane poisoned") = slots.collect();
                lane
            })
            .collect();
        self.shared.enqueue(&gang, lanes.iter().cloned());
        // Join: no worker holds a lane of the gang now, and with its
        // queued lanes gone none can wake — drop whatever is left.
        let mut st = self.shared.work(Some(&gang));
        st.ready.retain(|l| !Arc::ptr_eq(&l.gang, &gang));
        self.shared.nready.store(st.ready.len(), SeqCst);
        drop(st);
        for lane in &lanes {
            lane.slots.lock().expect("lane poisoned").clear();
        }
        drop(lanes);
        if let Some(r) = rec {
            r.add(keys::POOL_GANGS, 1);
            r.add(keys::POOL_JOBS, n as u64);
            r.gauge_max(keys::POOL_GANG_RANKS, n as u64);
            r.gauge_max(keys::POOL_WORKERS, self.workers() as u64);
            r.gauge_max(keys::POOL_QUEUE_PEAK, gang.peak.load(SeqCst) as u64);
        }
        obs::finish(rec, keys::POOL_GANG_SPAN, t0);
        let failed = gang.failed.lock().expect("poisoned").take();
        let mut results = results.lock().expect("gang results poisoned");
        failed.map_or_else(|| Ok(results.drain(..).flatten().collect()), Err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Boxed<R> = Pin<Box<dyn Future<Output = Result<R, String>> + Send>>;

    /// A test's private pool stops and joins its helpers.
    impl Drop for SpmdPool {
        fn drop(&mut self) {
            self.shared.lock().stop = true;
            self.shared.wake.notify_all();
            for helper in self.helpers.drain(..) {
                helper.join().unwrap();
            }
        }
    }

    #[test]
    fn a_gang_larger_than_the_pool_completes() {
        // 64 jobs in a ring, each waiting for its left neighbour's
        // token — under one thread per job this needed 64 threads at
        // once; here every job suspends and two workers carry them all.
        let pool = SpmdPool::with_workers(2);
        let (jobs, want) = ring(64);
        assert_eq!(pool.run_gang(jobs, &None), Ok(want));
        assert_eq!(pool.workers(), 2);
    }

    /// `n` jobs in a ring: job `i` sends `i` to job `i + 1` and returns
    /// ten times what it got from job `i − 1`. Also the results it wants.
    fn ring(n: usize) -> (Vec<Boxed<usize>>, Vec<usize>) {
        let ring: Arc<[Mailbox<usize>]> = (0..n).map(|_| Mailbox::default()).collect();
        let jobs = (0..n)
            .map(|i| {
                let ring = Arc::clone(&ring);
                Box::pin(async move {
                    ring[(i + 1) % n].deposit(i);
                    Ok(10 * ring[i].take().await)
                }) as Boxed<usize>
            })
            .collect();
        (jobs, (0..n).map(|i| 10 * ((i + n - 1) % n)).collect())
    }

    #[test]
    fn a_gang_queues_at_most_one_task_per_worker() {
        // The pool's tasks are the gang's W lanes, not its 64 jobs: at
        // most W of them are ever on the ready queue.
        let pool = SpmdPool::with_workers(2);
        let metrics = Arc::new(obs::MetricsRegistry::new(keys::ALL));
        let rec: RecorderRef = Some(metrics.clone());
        let (jobs, want) = ring(64);
        assert_eq!(pool.run_gang(jobs, &rec), Ok(want));
        let peak = metrics.snapshot().gauge(keys::POOL_QUEUE_PEAK);
        assert!((1..=2).contains(&peak), "queue peak {peak}");
    }

    #[test]
    fn workers_are_reused_across_gangs() {
        let pool = SpmdPool::with_workers(3);
        for _ in 0..5 {
            let jobs: Vec<Boxed<()>> = (0..3).map(|_| Box::pin(async { Ok(()) }) as _).collect();
            pool.run_gang(jobs, &None).unwrap();
        }
        // Five gangs, still the two helpers spawned at construction.
        assert_eq!((pool.workers(), pool.helpers.len()), (3, 2));
    }

    #[test]
    fn pool_size_is_independent_of_gang_size() {
        let pool = SpmdPool::with_workers(2);
        let counter = Arc::new(AtomicUsize::new(0));
        for n in [2usize, 6, 4] {
            let jobs: Vec<Boxed<()>> = (0..n)
                .map(|_| {
                    let c = Arc::clone(&counter);
                    Box::pin(async move {
                        c.fetch_add(1, SeqCst);
                        Ok(())
                    }) as _
                })
                .collect();
            pool.run_gang(jobs, &None).unwrap();
        }
        assert_eq!(counter.load(SeqCst), 12);
        assert_eq!(pool.workers(), 2);
        let cpus = std::thread::available_parallelism().unwrap().get();
        assert!(SpmdPool::global().workers() <= cpus);
    }

    #[test]
    fn results_preserve_job_order() {
        // Job i finishes only after job i + 1 has: completion order is
        // the reverse of job order.
        let pool = SpmdPool::with_workers(2);
        let n = 8usize;
        let done: Arc<[Mailbox<()>]> = (0..=n).map(|_| Mailbox::default()).collect();
        done[n].deposit(());
        let jobs: Vec<Boxed<usize>> = (0..n)
            .map(|i| {
                let done = Arc::clone(&done);
                Box::pin(async move {
                    done[i + 1].take().await;
                    done[i].deposit(());
                    Ok(i)
                }) as _
            })
            .collect();
        assert_eq!(pool.run_gang(jobs, &None), Ok((0..n).collect()));
    }

    #[test]
    fn two_submitters_share_the_pool_without_a_gang_lock() {
        // Job 0 of each gang meets the other gang's at a thread barrier:
        // that only opens if both gangs are in flight at once (a gang
        // lock would hold the second one back forever), and whoever is
        // stuck there — a submitter or the one helper — the other
        // submitter can still run its own jobs.
        let pool = SpmdPool::with_workers(2);
        let both = Arc::new(std::sync::Barrier::new(2));
        std::thread::scope(|s| {
            for me in 0..2u32 {
                let (pool, both) = (&pool, &both);
                s.spawn(move || {
                    let jobs: Vec<Boxed<u32>> = (0..4u32)
                        .map(|i| {
                            let both = Arc::clone(both);
                            Box::pin(async move {
                                if i == 0 {
                                    both.wait();
                                }
                                Ok(10 * me + i)
                            }) as _
                        })
                        .collect();
                    let want = (0..4).map(|i| 10 * me + i).collect();
                    assert_eq!(pool.run_gang(jobs, &None), Ok(want));
                });
            }
        });
    }

    /// A gang of jobs at W = 1 that log what they do into one shared
    /// tape: `script(i, log)` is job `i`.
    fn logged<F>(n: usize, script: impl Fn(usize, Arc<Mutex<Vec<String>>>) -> F) -> Vec<String>
    where
        F: Future<Output = Result<(), String>> + Send + 'static,
    {
        let pool = SpmdPool::with_workers(1);
        let log = Arc::new(Mutex::new(Vec::new()));
        let jobs: Vec<Boxed<()>> = (0..n)
            .map(|i| Box::pin(script(i, Arc::clone(&log))) as _)
            .collect();
        assert_eq!(pool.run_gang(jobs, &None), Ok(vec![(); n]));
        let tape = log.lock().unwrap().clone();
        tape
    }

    #[test]
    fn a_lane_sweeps_its_ready_jobs_in_ascending_order() {
        // One lane. Jobs 0 and 1 park; job 2 wakes job 1, then job 0;
        // job 3 parks. The next sweep starts again at job 0, whichever
        // was woken first, and job 3, which job 0 wakes there, is ahead
        // of the sweep and runs in it — a FIFO queue would run "1
        // woken" first, a run-the-last-woken rule "0 woken" before "3".
        let boxes: Arc<[Mailbox<()>]> = (0..4).map(|_| Mailbox::default()).collect();
        let tape = logged(4, |i, log| {
            let boxes = Arc::clone(&boxes);
            async move {
                let note = |what: &str| log.lock().unwrap().push(format!("{i}{what}"));
                note("");
                match i {
                    2 => [1, 0].into_iter().for_each(|j| boxes[j].deposit(())),
                    _ => {
                        boxes[i].take().await;
                        note(" woken");
                        if i == 0 {
                            boxes[3].deposit(());
                        }
                    }
                }
                Ok(())
            }
        });
        assert_eq!(tape, ["0", "1", "2", "3", "0 woken", "1 woken", "3 woken"]);
    }

    /// Counts its drops.
    #[derive(Default)]
    struct Token(Arc<AtomicUsize>);
    impl Drop for Token {
        fn drop(&mut self) {
            self.0.fetch_add(1, SeqCst);
        }
    }

    #[test]
    fn a_failed_gang_is_freed_at_join_and_the_next_runs_clean() {
        // Job 0 parks its waker in `never`, job 1 leaves a token nobody
        // takes and parks too, job 2 fails. At W = 1 that is the fixed
        // schedule; at W = 2 jobs 0 and 1 are lane 0 and job 2 alone is
        // lane 1. At join every future, mailbox, queued item and parked
        // waker must be gone — and with the wakers the gang itself,
        // which holds the only other handles on the pool's shared state
        // besides the helpers'.
        for w in [1, 2] {
            failed_gang_is_freed_at_join(&SpmdPool::with_workers(w));
        }
    }

    fn failed_gang_is_freed_at_join(pool: &SpmdPool) {
        let drops = Arc::new(AtomicUsize::new(0));
        let token = || Token(Arc::clone(&drops));
        let never: Arc<Mailbox<Token>> = Arc::default();
        let unread: Arc<Mailbox<Token>> = Arc::default();
        let go: Arc<Mailbox<Token>> = Arc::default();
        let watch = [
            Arc::downgrade(&never),
            Arc::downgrade(&unread),
            Arc::downgrade(&go),
        ];
        let (held0, held1, sent, queued) = (token(), token(), token(), token());
        let jobs: Vec<Boxed<()>> = vec![
            Box::pin({
                let never = Arc::clone(&never);
                async move {
                    let _held = held0;
                    never.take().await;
                    Ok(())
                }
            }),
            Box::pin({
                let (never, go) = (Arc::clone(&never), Arc::clone(&go));
                async move {
                    let _held = held1;
                    unread.deposit(queued);
                    go.deposit(sent);
                    never.take().await;
                    Ok(())
                }
            }),
            Box::pin(async move {
                let _got = go.take().await;
                Err("boom".to_string())
            }),
        ];
        drop(never);
        assert_eq!(pool.run_gang(jobs, &None), Err("boom".to_string()));
        assert_eq!(drops.load(SeqCst), 4, "every token dropped at join");
        assert!(
            watch.iter().all(|w| w.strong_count() == 0),
            "a mailbox survived"
        );
        assert_eq!(
            Arc::strong_count(&pool.shared),
            1 + pool.helpers.len(),
            "the gang survived its join"
        );

        let jobs: Vec<Boxed<u8>> = vec![Box::pin(async { Ok(7) })];
        assert_eq!(pool.run_gang(jobs, &None), Ok(vec![7]));
    }

    #[test]
    fn a_panicking_job_is_an_err_naming_its_rank() {
        let pool = SpmdPool::with_workers(2);
        let never: Arc<Mailbox<()>> = Arc::default();
        let jobs: Vec<Boxed<()>> = (0..4usize)
            .map(|i| {
                let never = Arc::clone(&never);
                Box::pin(async move {
                    assert!(i != 2, "job {i} hit a wall");
                    never.take().await;
                    Ok(())
                }) as _
            })
            .collect();
        let why = pool.run_gang(jobs, &None).unwrap_err();
        assert!(
            why.contains("rank 2 panicked") && why.contains("job 2 hit a wall"),
            "{why}"
        );
    }
}
