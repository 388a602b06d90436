//! A bounded LRU cache with *single-flight* builds.
//!
//! The server's three cache layers (text memo, placements, plans)
//! share this one implementation. The contract:
//!
//! * [`LruCache::get_or_build`] returns the cached value when present
//!   (a **hit**, which also freshens the entry's recency), otherwise
//!   runs the supplied builder and inserts the result (a **miss**).
//! * **Single-flight**: when several threads miss the same key
//!   concurrently, exactly one runs the builder; the rest block on a
//!   condition variable and receive the freshly built `Arc`. A
//!   cache-miss storm for one hot key therefore costs one compile, not
//!   N (see OPERATIONS.md's troubleshooting table).
//! * **Bounded**: once more than `cap` entries are resident, the
//!   least-recently-used entry is evicted. In-flight builds don't
//!   count against the bound (they hold a tombstone, not a value).
//! * **Failure-safe**: a builder that errors (or panics) removes its
//!   in-flight marker and wakes waiters, so one poisoned request can
//!   never wedge the key forever — the next requester simply retries
//!   the build.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

/// Whether a [`LruCache::get_or_build`] call was served from cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Served from an already-resident entry; no build latency paid.
    Hit,
    /// This call ran the builder.
    Miss,
    /// A single-flight join: this call blocked on another thread's
    /// in-flight build of the same key and received its result — it
    /// paid (part of) the build's latency without running a builder.
    Join,
}

impl Lookup {
    /// `"hit"` / `"miss"` / `"join"` — the wire spelling in
    /// diagnostics events.
    pub fn name(self) -> &'static str {
        match self {
            Lookup::Hit => "hit",
            Lookup::Miss => "miss",
            Lookup::Join => "join",
        }
    }

    /// Did this lookup pay build latency (miss or join)?
    pub fn paid_build(self) -> bool {
        !matches!(self, Lookup::Hit)
    }
}

/// A point-in-time view of one cache's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from cache.
    pub hits: u64,
    /// Lookups that ran (or waited on) a build.
    pub misses: u64,
    /// Single-flight joins among [`CacheStats::misses`] — lookups that
    /// waited on another thread's build instead of running their own.
    pub joins: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
    /// Builders actually executed (single-flight makes this ≤ misses).
    pub compiles: u64,
    /// Resident entries right now.
    pub len: usize,
    /// The configured bound.
    pub cap: usize,
}

enum Slot<T> {
    /// A build is in flight on some thread; wait on the condvar.
    Building,
    /// The value is resident.
    Ready(Arc<T>),
}

struct Inner<T> {
    map: HashMap<u64, Slot<T>>,
    /// Recency order over *Ready* keys only; front = least recent.
    order: Vec<u64>,
    hits: u64,
    misses: u64,
    joins: u64,
    evictions: u64,
    compiles: u64,
}

/// The bounded single-flight LRU cache (thread-safe; share via `Arc`
/// or embed in a shared service).
pub struct LruCache<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    cap: usize,
}

impl<T> LruCache<T> {
    /// An empty cache bounded to `cap` resident entries (minimum 1).
    pub fn new(cap: usize) -> LruCache<T> {
        LruCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                order: Vec::new(),
                hits: 0,
                misses: 0,
                joins: 0,
                evictions: 0,
                compiles: 0,
            }),
            ready: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Fetch `key`, running `build` under single-flight when absent.
    ///
    /// Returns the value and the [`Lookup`] outcome. A waiter that
    /// blocked on another thread's build reports [`Lookup::Join`] and
    /// counts as a miss in [`CacheStats::misses`] (the request paid
    /// build latency) even though its own builder never ran — the
    /// `compiles` counter records actual executions, and
    /// [`CacheStats::joins`] the join sub-count.
    pub fn get_or_build<F>(&self, key: u64, build: F) -> Result<(Arc<T>, Lookup), String>
    where
        F: FnOnce() -> Result<T, String>,
    {
        let mut waited = false;
        let mut inner = self.inner.lock().expect("cache lock");
        loop {
            match inner.map.get(&key) {
                Some(Slot::Ready(v)) => {
                    let v = Arc::clone(v);
                    if let Some(pos) = inner.order.iter().position(|&k| k == key) {
                        inner.order.remove(pos);
                        inner.order.push(key);
                    }
                    if waited {
                        inner.misses += 1;
                        inner.joins += 1;
                        return Ok((v, Lookup::Join));
                    }
                    inner.hits += 1;
                    return Ok((v, Lookup::Hit));
                }
                Some(Slot::Building) => {
                    waited = true;
                    inner = self.ready.wait(inner).expect("cache lock");
                }
                None => {
                    inner.map.insert(key, Slot::Building);
                    inner.misses += 1;
                    break;
                }
            }
        }
        drop(inner);

        // Build outside the lock. The guard removes the Building
        // tombstone and wakes waiters if `build` errors or panics.
        let guard = BuildGuard { cache: self, key };
        let value = Arc::new(build()?);
        let mut inner = self.inner.lock().expect("cache lock");
        inner.map.insert(key, Slot::Ready(Arc::clone(&value)));
        inner.order.push(key);
        inner.compiles += 1;
        while inner.order.len() > self.cap {
            let victim = inner.order.remove(0);
            inner.map.remove(&victim);
            inner.evictions += 1;
        }
        drop(inner);
        std::mem::forget(guard);
        self.ready.notify_all();
        Ok((value, Lookup::Miss))
    }

    /// Is `key` resident (Ready) right now? Does not touch recency.
    pub fn contains(&self, key: u64) -> bool {
        matches!(
            self.inner.lock().expect("cache lock").map.get(&key),
            Some(Slot::Ready(_))
        )
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("cache lock");
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            joins: inner.joins,
            evictions: inner.evictions,
            compiles: inner.compiles,
            len: inner.order.len(),
            cap: self.cap,
        }
    }
}

struct BuildGuard<'a, T> {
    cache: &'a LruCache<T>,
    key: u64,
}

impl<T> Drop for BuildGuard<'_, T> {
    fn drop(&mut self) {
        let mut inner = self.cache.inner.lock().expect("cache lock");
        if matches!(inner.map.get(&self.key), Some(Slot::Building)) {
            inner.map.remove(&self.key);
        }
        drop(inner);
        self.cache.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn hit_then_miss_counting() {
        let c: LruCache<u32> = LruCache::new(4);
        let (v, l) = c.get_or_build(1, || Ok(10)).unwrap();
        assert_eq!((*v, l), (10, Lookup::Miss));
        let (v, l) = c.get_or_build(1, || panic!("must not rebuild")).unwrap();
        assert_eq!((*v, l), (10, Lookup::Hit));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.compiles, s.len), (1, 1, 1, 1));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let c: LruCache<u32> = LruCache::new(2);
        c.get_or_build(1, || Ok(1)).unwrap();
        c.get_or_build(2, || Ok(2)).unwrap();
        // Touch 1 so 2 becomes the LRU victim.
        c.get_or_build(1, || unreachable!()).unwrap();
        c.get_or_build(3, || Ok(3)).unwrap();
        assert!(c.contains(1));
        assert!(!c.contains(2));
        assert!(c.contains(3));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn failed_build_leaves_key_buildable() {
        let c: LruCache<u32> = LruCache::new(2);
        assert!(c.get_or_build(7, || Err("boom".into())).is_err());
        assert!(!c.contains(7));
        let (v, l) = c.get_or_build(7, || Ok(7)).unwrap();
        assert_eq!((*v, l), (7, Lookup::Miss));
    }

    #[test]
    fn panicked_build_wakes_waiters() {
        let c: Arc<LruCache<u32>> = Arc::new(LruCache::new(2));
        let c2 = Arc::clone(&c);
        let t = std::thread::spawn(move || {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                c2.get_or_build(9, || panic!("builder died")).ok();
            }));
        });
        t.join().unwrap();
        // The tombstone is gone; a fresh build succeeds.
        let (v, _) = c.get_or_build(9, || Ok(9)).unwrap();
        assert_eq!(*v, 9);
    }

    #[test]
    fn concurrent_same_key_compiles_once() {
        let c: Arc<LruCache<usize>> = Arc::new(LruCache::new(4));
        let compiles = Arc::new(AtomicUsize::new(0));
        let gate = Arc::new(Barrier::new(8));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let (c, compiles, gate) = (c.clone(), compiles.clone(), gate.clone());
                std::thread::spawn(move || {
                    gate.wait();
                    let (v, _) = c
                        .get_or_build(42, || {
                            compiles.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Ok(1234)
                        })
                        .unwrap();
                    *v
                })
            })
            .collect();
        for t in threads {
            assert_eq!(t.join().unwrap(), 1234);
        }
        assert_eq!(compiles.load(Ordering::SeqCst), 1);
        assert_eq!(c.stats().compiles, 1);
        assert_eq!(c.stats().misses, 8);
        // 7 of the 8 misses were single-flight joins.
        assert_eq!(c.stats().joins, 7);
    }

    #[test]
    fn sequential_lookups_never_join() {
        let c: LruCache<u32> = LruCache::new(2);
        let (_, l) = c.get_or_build(1, || Ok(1)).unwrap();
        assert_eq!(l, Lookup::Miss);
        assert!(l.paid_build());
        let (_, l) = c.get_or_build(1, || unreachable!()).unwrap();
        assert_eq!(l, Lookup::Hit);
        assert!(!l.paid_build());
        assert_eq!(c.stats().joins, 0);
    }
}
