//! A persistent SPMD worker pool: OS threads spawned once and reused
//! across time steps, runs, and whole `reproduce` experiments —
//! replacing the spawn-threads-per-run pattern whose thread start-up
//! cost dominated short runs.
//!
//! SPMD gangs have a hard scheduling constraint: every rank blocks on
//! messages from the others, so all `nranks` jobs of a run must hold
//! a worker **simultaneously** — fewer workers than ranks deadlocks,
//! exactly like under-subscribing an MPI allocation. The pool
//! therefore (a) grows lazily to the largest gang ever requested and
//! (b) serializes gangs with a lock so two runs can never interleave
//! on a shared queue.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use syncplace_obs::{self as obs, keys, RecorderRef};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// The pool: a shared job queue drained by persistent workers.
pub struct SpmdPool {
    inner: Mutex<Inner>,
    /// Held for the whole lifetime of a gang (submit → last result).
    gang: Mutex<()>,
}

struct Inner {
    tx: Sender<Job>,
    rx: Arc<Mutex<Receiver<Job>>>,
    spawned: usize,
}

impl Default for SpmdPool {
    fn default() -> Self {
        Self::new()
    }
}

impl SpmdPool {
    /// A fresh, empty pool (workers spawn lazily on first use).
    pub fn new() -> SpmdPool {
        let (tx, rx) = channel::<Job>();
        SpmdPool {
            inner: Mutex::new(Inner {
                tx,
                rx: Arc::new(Mutex::new(rx)),
                spawned: 0,
            }),
            gang: Mutex::new(()),
        }
    }

    /// The process-wide pool, shared by every engine and experiment.
    pub fn global() -> &'static SpmdPool {
        static POOL: OnceLock<SpmdPool> = OnceLock::new();
        POOL.get_or_init(SpmdPool::new)
    }

    /// Workers spawned so far (grows, never shrinks).
    pub fn workers(&self) -> usize {
        self.inner.lock().expect("pool lock").spawned
    }

    /// Run `jobs` as one SPMD gang: all jobs execute concurrently on
    /// dedicated workers; returns their results in job order. Blocks
    /// any other gang until every job has finished.
    pub fn run_gang<R: Send + 'static>(
        &self,
        jobs: Vec<Box<dyn FnOnce() -> R + Send + 'static>>,
    ) -> Vec<R> {
        self.run_gang_recorded(jobs, &None)
    }

    /// [`SpmdPool::run_gang`] with pool-level observability: gang /
    /// job counters, worker-count and gang-size gauges, the peak
    /// number of jobs enqueued-but-not-yet-started (queue depth), and
    /// a span covering submit → last result.
    pub fn run_gang_recorded<R: Send + 'static>(
        &self,
        jobs: Vec<Box<dyn FnOnce() -> R + Send + 'static>>,
        rec: &RecorderRef,
    ) -> Vec<R> {
        let nranks = jobs.len();
        if nranks == 0 {
            return Vec::new();
        }
        let _gang = self.gang.lock().expect("gang lock");
        let t0 = obs::start(rec);
        // Depth of the shared queue: incremented at enqueue, decremented
        // when a worker picks the job up. Only allocated when recording.
        let queued = rec.as_ref().map(|_| Arc::new(AtomicUsize::new(0)));
        let (res_tx, res_rx) = channel::<(usize, R)>();
        {
            let mut inner = self.inner.lock().expect("pool lock");
            // Grow to gang size: ranks block on each other, so every
            // rank needs its own worker.
            while inner.spawned < nranks {
                let rx = Arc::clone(&inner.rx);
                std::thread::Builder::new()
                    .name(format!("spmd-worker-{}", inner.spawned))
                    .spawn(move || loop {
                        let job = {
                            let guard = rx.lock().expect("queue lock");
                            guard.recv()
                        };
                        match job {
                            // Survive panicking jobs: a dead worker
                            // would silently shrink the pool below the
                            // gang size and deadlock the next run. The
                            // panicking job drops its result sender,
                            // which `run_gang` detects.
                            Ok(job) => {
                                let _ = std::panic::catch_unwind(
                                    std::panic::AssertUnwindSafe(job),
                                );
                            }
                            Err(_) => return, // pool dropped
                        }
                    })
                    .expect("spawn pool worker");
                inner.spawned += 1;
            }
            if let Some(r) = rec {
                r.add(keys::POOL_GANGS, 1);
                r.add(keys::POOL_JOBS, nranks as u64);
                r.gauge_max(keys::POOL_GANG_RANKS, nranks as u64);
                r.gauge_max(keys::POOL_WORKERS, inner.spawned as u64);
            }
            for (i, job) in jobs.into_iter().enumerate() {
                let tx = res_tx.clone();
                let depth = queued.clone();
                let job_rec = rec.clone();
                if let (Some(r), Some(d)) = (rec.as_ref(), depth.as_ref()) {
                    // fetch_add returns the pre-increment depth; +1 is
                    // the depth including this job.
                    let now = d.fetch_add(1, Ordering::SeqCst) + 1;
                    r.gauge_max(keys::POOL_QUEUE_PEAK, now as u64);
                }
                inner
                    .tx
                    .send(Box::new(move || {
                        if let Some(d) = &depth {
                            d.fetch_sub(1, Ordering::SeqCst);
                        }
                        // Dequeue-to-completion on the worker thread;
                        // job index i is the rank by construction.
                        let t_job = obs::start(&job_rec);
                        let r = job();
                        // The gang join below is the engines' barrier
                        // episode: every rank of batched/overlapped
                        // runs (and each decomposer gang)
                        // synchronizes here.
                        if let Some(rr) = &job_rec {
                            rr.hb(i as u32, keys::HB_BARRIER, 0);
                        }
                        obs::finish_event(&job_rec, keys::POOL_JOB, i as u32, t_job);
                        let _ = tx.send((i, r));
                    }))
                    .expect("pool queue alive");
            }
        }
        drop(res_tx);
        let mut out: Vec<(usize, R)> = res_rx.iter().take(nranks).collect();
        assert_eq!(out.len(), nranks, "a gang job panicked");
        out.sort_by_key(|(i, _)| *i);
        obs::finish(rec, keys::POOL_GANG_SPAN, t0);
        out.into_iter().map(|(_, r)| r).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn gang_runs_all_jobs_concurrently() {
        // A barrier only passes if all jobs hold workers at once.
        let pool = SpmdPool::new();
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..4usize)
            .map(|i| {
                let b = Arc::clone(&barrier);
                Box::new(move || {
                    b.wait();
                    i * 10
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        assert_eq!(pool.run_gang(jobs), vec![0, 10, 20, 30]);
        assert_eq!(pool.workers(), 4);
    }

    #[test]
    fn workers_are_reused_across_gangs() {
        let pool = SpmdPool::new();
        for _ in 0..5 {
            let jobs: Vec<Box<dyn FnOnce() + Send>> =
                (0..3).map(|_| Box::new(|| ()) as _).collect();
            pool.run_gang(jobs);
        }
        // Five 3-rank gangs, still only 3 threads ever spawned.
        assert_eq!(pool.workers(), 3);
    }

    #[test]
    fn pool_grows_to_largest_gang() {
        let pool = SpmdPool::new();
        let counter = Arc::new(AtomicUsize::new(0));
        for n in [2usize, 6, 4] {
            let jobs: Vec<Box<dyn FnOnce() + Send>> = (0..n)
                .map(|_| {
                    let c = Arc::clone(&counter);
                    Box::new(move || {
                        c.fetch_add(1, Ordering::SeqCst);
                    }) as _
                })
                .collect();
            pool.run_gang(jobs);
        }
        assert_eq!(counter.load(Ordering::SeqCst), 12);
        assert_eq!(pool.workers(), 6);
    }

    #[test]
    fn results_preserve_job_order() {
        let pool = SpmdPool::new();
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..8usize)
            .map(|i| {
                Box::new(move || {
                    // Finish in scrambled order.
                    std::thread::sleep(std::time::Duration::from_millis((8 - i) as u64));
                    i
                }) as _
            })
            .collect();
        assert_eq!(pool.run_gang(jobs), (0..8).collect::<Vec<_>>());
    }
}
