//! Happens-before event capture: the [`HbRecorder`] sink keeps every
//! `hb.*` emission (see [`crate::keys`]) in per-rank program order, so
//! the `analyze::hb` vector-clock checker can replay a real engine run
//! and verify that every cross-rank read is ordered after its matching
//! write.
//!
//! The recorder is deliberately dumb: it appends `(key, peer)` pairs
//! under a mutex and ignores every non-`hb` emission. Per-rank order
//! is correct by construction — each rank emits its own events from
//! its own thread (or, for the round-robin engine, from the simulation
//! loop in rank program order), and appends to a rank's vector happen
//! in emission order.

use crate::recorder::Recorder;
use std::sync::Mutex;

/// One captured happens-before event: the `hb.*` key it was emitted
/// under and the peer rank it concerns (0 for barriers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HbEvent {
    /// The `hb.*` key (one of the [`crate::keys`] constants).
    pub key: &'static str,
    /// The peer rank the event concerns (sender for receives/reads,
    /// destination for sends, free-list slot for stage events).
    pub peer: u32,
}

/// A captured run: one event vector per rank, in emission order.
pub type HbLog = Vec<Vec<HbEvent>>;

/// A [`Recorder`] that collects `hb.*` events per rank and drops all
/// other emissions. Attach one per checked run — mixing runs with
/// different gang shapes (e.g. an engine gang and a decomposer build)
/// in one log makes barrier episodes ambiguous.
#[derive(Debug, Default)]
pub struct HbRecorder {
    ranks: Mutex<HbLog>,
}

impl HbRecorder {
    /// An empty recorder.
    pub fn new() -> HbRecorder {
        HbRecorder::default()
    }

    /// Take the captured log (per-rank event vectors; ranks that never
    /// emitted are present as empty vectors up to the highest rank
    /// seen).
    pub fn snapshot(&self) -> HbLog {
        self.ranks.lock().expect("hb recorder poisoned").clone()
    }

    /// Total events captured across all ranks.
    pub fn len(&self) -> usize {
        self.ranks
            .lock()
            .expect("hb recorder poisoned")
            .iter()
            .map(Vec::len)
            .sum()
    }

    /// No events captured yet?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Recorder for HbRecorder {
    fn add(&self, _key: &'static str, _delta: u64) {}
    fn gauge_max(&self, _key: &'static str, _value: u64) {}
    fn span(&self, _name: &'static str, _nanos: u64) {}
    fn packet(&self, _from: u32, _to: u32, _values: u64) {}
    fn hb(&self, rank: u32, key: &'static str, peer: u32) {
        let mut ranks = self.ranks.lock().expect("hb recorder poisoned");
        let r = rank as usize;
        if ranks.len() <= r {
            ranks.resize(r + 1, Vec::new());
        }
        ranks[r].push(HbEvent { key, peer });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys;

    #[test]
    fn captures_per_rank_in_order() {
        let rec = HbRecorder::new();
        rec.hb(1, keys::HB_SEND, 0);
        rec.hb(0, keys::HB_RECV, 1);
        rec.hb(1, keys::HB_BARRIER, 0);
        rec.add("ignored", 1);
        let log = rec.snapshot();
        assert_eq!(log.len(), 2);
        assert_eq!(
            log[1],
            vec![
                HbEvent { key: keys::HB_SEND, peer: 0 },
                HbEvent { key: keys::HB_BARRIER, peer: 0 }
            ]
        );
        assert_eq!(rec.len(), 3);
        assert!(!rec.is_empty());
    }
}
