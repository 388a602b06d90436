//! The SPMD task pool: P rank tasks on W = `available_parallelism`
//! workers — tasks come from the distribution, processors are a
//! separate mapping (DESIGN.md §5.2).
//!
//! A gang job is a future. A worker runs it until it awaits a
//! [`Mailbox`] that is still empty; the deposit that fills the mailbox
//! puts it back on the FIFO ready queue. No job ever parks a thread,
//! so W never depends on P.
//!
//! Ready jobs are not strictly FIFO: a worker runs the job its last
//! poll woke next, if no idle worker has taken it off the queue yet
//! (Go's `runnext`). The serial hops of a tree reduction thus skip the
//! back of the queue. A second wake in the same poll leaves the older
//! job at its place in the queue. The woken job stays on the shared
//! queue rather than in a private slot, so a long compute segment of
//! its waker never hides it from an idle worker.
//!
//! The workers are W − 1 resident helper
//! threads plus the thread that submits a gang: the submitter runs
//! **only its own gang's** jobs (a small gang costs no thread hand-off,
//! a daemon handler is never stuck in another request's segment),
//! helpers run any gang's, so concurrent gangs interleave on the
//! helpers instead of oversubscribing the machine.
//!
//! A job that returns `Err` or panics (caught per poll) fails its
//! gang: the submitter gets the `Err`, never a hang on the peers that
//! wait for the dead rank. Joining drops every future — with them the
//! mailboxes they own and the wakers parked there — so nothing of a
//! gang outlives [`SpmdPool::run_gang`].

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
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

thread_local! {
    /// The job the poll running on this thread woke last: `None` outside
    /// a poll, `Some(None)` while the poll has woken no one.
    static WOKEN: RefCell<Option<Option<Arc<Task>>>> = const { RefCell::new(None) };
}

/// An unbounded FIFO between two jobs of a gang — the pool's one
/// suspension point: [`Mailbox::take`] suspends the calling job while
/// the box is empty and the next [`Mailbox::deposit`] re-queues it.
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
    ready: VecDeque<Arc<Task>>,
    sleepers: usize,
    /// Ends the helpers; only a test's private pool is ever stopped.
    stop: bool,
}

/// One gang in flight.
struct Gang {
    pool: Arc<Shared>,
    /// Jobs left; the first failure zeroes it, so 0 is "over". Written
    /// under the pool lock, read by its spinning submitter without.
    left: AtomicUsize,
    failed: Mutex<Option<String>>,
    /// Its jobs on the ready queue now, and the most there ever were.
    queued: AtomicUsize,
    peak: AtomicUsize,
}

/// Job `idx` of a gang, and its own waker. Emptying `job` (when it
/// finishes, and at join) cuts the cycle waker → task → future → mailbox.
struct Task {
    gang: Arc<Gang>,
    idx: usize,
    job: Mutex<Option<Job>>,
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        WOKEN.with_borrow_mut(|woken| {
            if let Some(last) = woken {
                *last = Some(Arc::clone(&self));
            }
        });
        let gang = Arc::clone(&self.gang);
        gang.pool.enqueue(&gang, [self]);
    }
}

impl Task {
    /// Poll once. `Some` if that finished the job (a panic is a failure
    /// naming the rank), `None` if it now waits on a mailbox or is gone.
    fn poll(self: &Arc<Self>) -> Option<Result<(), String>> {
        let mut job = self.job.lock().expect("job poisoned");
        let waker = Waker::from(Arc::clone(self));
        let mut cx = Context::from_waker(&waker);
        let fut = job.as_mut()?.as_mut();
        let done = match catch_unwind(AssertUnwindSafe(|| fut.poll(&mut cx))) {
            Ok(Poll::Pending) => return None,
            Ok(Poll::Ready(done)) => done,
            Err(panic) => {
                let why = panic.downcast_ref::<String>().map(String::as_str);
                let why = why.or_else(|| panic.downcast_ref::<&str>().copied());
                let why = why.unwrap_or("(no message)");
                Err(format!("rank {} panicked: {why}", self.idx))
            }
        };
        *job = None;
        Some(done)
    }
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("pool poisoned")
    }

    /// Queue ready jobs of `gang` — one lock, at most one wake-up call.
    fn enqueue(&self, gang: &Gang, tasks: impl IntoIterator<Item = Arc<Task>>) {
        let mut st = self.lock();
        let before = st.ready.len();
        st.ready.extend(tasks);
        self.nready.store(st.ready.len(), SeqCst);
        let added = st.ready.len() - before;
        let queued = gang.queued.fetch_add(added, SeqCst) + added;
        gang.peak.fetch_max(queued, SeqCst);
        if st.sleepers > 0 {
            self.wake.notify_all();
        }
    }

    /// A worker's loop. A helper (`own` = `None`) runs any gang's ready
    /// jobs until the pool stops; a submitter only `own`'s, until that
    /// gang is over. It takes the job its last poll woke if that is
    /// still queued, else the oldest it may run. Idle, it spins for
    /// [`SPIN`], then sleeps until a job is queued or a gang ends.
    fn work(&self, own: Option<&Arc<Gang>>) {
        let over = |stop| own.map_or(stop, |gang| gang.left.load(SeqCst) == 0);
        let mine = |t: &Arc<Task>| own.is_none_or(|gang| Arc::ptr_eq(&t.gang, gang));
        let mut st = self.lock();
        let mut idle_since = None; // the clock is read only when idle
        let mut woken: Option<Arc<Task>> = None;
        while !over(st.stop) {
            let last = woken.take();
            let last = last.and_then(|w| st.ready.iter().rposition(|t| Arc::ptr_eq(t, &w)));
            let next = last.or_else(|| st.ready.iter().position(&mine));
            if let Some(task) = next.and_then(|i| st.ready.remove(i)) {
                self.nready.store(st.ready.len(), SeqCst);
                task.gang.queued.fetch_sub(1, SeqCst);
                drop(st);
                let outer = WOKEN.replace(Some(None));
                let done = task.poll();
                woken = WOKEN.replace(outer).flatten();
                // A mailbox belongs to one gang: a submitter never gets another's job.
                debug_assert!(woken.as_ref().is_none_or(|w| Arc::ptr_eq(&w.gang, &task.gang)));
                st = self.lock();
                if let Some(done) = done {
                    let gang = &task.gang;
                    let mut left = gang.left.load(SeqCst).saturating_sub(1);
                    if let Err(why) = done {
                        gang.failed.lock().expect("poisoned").get_or_insert(why);
                        left = 0;
                    }
                    gang.left.store(left, SeqCst);
                    if left == 0 && st.sleepers > 0 {
                        self.wake.notify_all();
                    }
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
                // sleep: only running a job restarts the spin.
                st.sleepers += 1;
                st = self.wake.wait(st).expect("pool poisoned");
                st.sleepers -= 1;
            }
        }
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
            helper.spawn(move || shared.work(None)).ok()
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
    /// gauges, the peak ready-queue depth, a submit → join span, and
    /// per job a `pool.job` event (first poll → completion) and its
    /// `hb.barrier` arrival at the join.
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
            failed: Mutex::default(),
            queued: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        });
        let tasks: Vec<Arc<Task>> = (jobs.into_iter().enumerate())
            .map(|(idx, job)| {
                let (results, rec) = (Arc::clone(&results), rec.clone());
                let job: Job = Box::pin(async move {
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
                });
                Arc::new(Task {
                    gang: Arc::clone(&gang),
                    idx,
                    job: Mutex::new(Some(job)),
                })
            })
            .collect();
        self.shared.enqueue(&gang, tasks.iter().cloned());
        self.shared.work(Some(&gang));
        // Join: drop whatever is left — waiting out a helper still
        // inside a poll of ours, after which nothing can queue a job of
        // this gang — and take the stragglers off the queue.
        for task in &tasks {
            *task.job.lock().expect("job poisoned") = None;
        }
        let mut st = self.shared.lock();
        st.ready.retain(|t| !Arc::ptr_eq(&t.gang, &gang));
        self.shared.nready.store(st.ready.len(), SeqCst);
        drop(st);
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
        let n = 64usize;
        let ring: Arc<[Mailbox<usize>]> = (0..n).map(|_| Mailbox::default()).collect();
        let jobs: Vec<Boxed<usize>> = (0..n)
            .map(|i| {
                let ring = Arc::clone(&ring);
                Box::pin(async move {
                    ring[(i + 1) % n].deposit(i);
                    Ok(10 * ring[i].take().await)
                }) as Boxed<usize>
            })
            .collect();
        let want: Vec<usize> = (0..n).map(|i| 10 * ((i + n - 1) % n)).collect();
        assert_eq!(pool.run_gang(jobs, &None), Ok(want));
        assert_eq!(pool.workers(), 2);
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
    fn a_woken_job_runs_before_older_queued_jobs() {
        // Job 0 parks on `wake`; job 1 fills it while jobs 2 and 3 wait
        // on the queue. Job 0 is the one job 1 woke, so it runs next —
        // under a FIFO queue it would come last.
        let wake: Arc<Mailbox<()>> = Arc::default();
        let tape = logged(4, |i, log| {
            let wake = Arc::clone(&wake);
            async move {
                let note = |what: &str| log.lock().unwrap().push(format!("{i}{what}"));
                note("");
                match i {
                    0 => {
                        wake.take().await;
                        note(" woken");
                    }
                    1 => wake.deposit(()),
                    _ => {}
                }
                Ok(())
            }
        });
        assert_eq!(tape, ["0", "1", "0 woken", "2", "3"]);
    }

    #[test]
    fn a_second_wake_in_one_poll_leaves_the_first_in_queue_order() {
        // Job 2 wakes job 0, then job 1 in the same poll: job 1 runs
        // next, job 0 keeps its place behind job 3 — and all four still
        // complete.
        let boxes: Arc<[Mailbox<()>]> = (0..2).map(|_| Mailbox::default()).collect();
        let tape = logged(4, |i, log| {
            let boxes = Arc::clone(&boxes);
            async move {
                let note = |what: &str| log.lock().unwrap().push(format!("{i}{what}"));
                note("");
                match i {
                    0 | 1 => {
                        boxes[i].take().await;
                        note(" woken");
                    }
                    2 => boxes.iter().for_each(|b| b.deposit(())),
                    _ => {}
                }
                Ok(())
            }
        });
        assert_eq!(tape, ["0", "1", "2", "1 woken", "3", "0 woken"]);
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
        // W = 1, so the schedule is fixed: job 0 parks its waker in
        // `never`, job 1 leaves a token nobody takes and parks too, job
        // 2 fails. At join every future, mailbox, queued item and parked
        // waker must be gone — and with the wakers the gang itself,
        // which holds the only other handles on the pool's shared state.
        let pool = SpmdPool::with_workers(1);
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
            1,
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
