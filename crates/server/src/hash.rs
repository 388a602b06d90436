//! Content-hash cache keys for the placement server.
//!
//! Three keys, three layers, three very different lifetimes
//! (DESIGN.md §10):
//!
//! * The **text key** covers the request's raw program (builtin name
//!   or source text) and the pattern name. It keys the text memo, which
//!   maps it to the placement key, so a repeated text is neither parsed
//!   nor printed; a new formatting of a known program misses the memo
//!   once and then hits the placement cache.
//! * The **placement key** covers the canonical program text (the DSL
//!   printer's output, so formatting and comments never cause a miss)
//!   and the overlap-automaton name. Placement analysis is
//!   mesh-independent (§5.3 of the paper), so the mesh, the pattern's
//!   *geometry*, and `P` are deliberately **not** in this key — one
//!   analysis serves every decomposition.
//! * The **plan key** extends the placement key with everything a
//!   [`CommPlan`] depends on: the mesh spec (dimensions, perturbation,
//!   seed), the overlapping pattern, and the processor count.
//!
//! The requested *engine* is in **no** key: all three engines
//! (`Engine::ALL`) are bitwise-identical on the same placed program,
//! so a cached placement or plan is safe to reuse across engines.
//!
//! Hashing is FNV-1a 64-bit over a length-prefixed byte encoding —
//! std-only, deterministic across runs and platforms, and collision
//! -resistant enough for a cache keyed by a few thousand distinct
//! programs. A version tag (`"text/1"`, `"placement/1"`, `"plan/1"`)
//! is folded in first so key derivation changes never alias stale
//! entries.
//!
//! [`CommPlan`]: syncplace::runtime::CommPlan

use crate::protocol::ProgramSpec;

/// An incremental FNV-1a 64-bit hasher.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Fnv {
        Fnv(FNV_OFFSET)
    }

    /// Fold raw bytes into the state.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Fold a string, length-prefixed so adjacent fields cannot
    /// reassociate (`"ab" + "c"` hashes differently from `"a" + "bc"`).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// Fold a `u64` (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Fold an `f64` by bit pattern (so `-0.0` ≠ `0.0` and every NaN
    /// payload is distinct — keys must be exact, not numeric).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The 64-bit digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The placement-cache key: canonical program text + automaton name.
///
/// `canonical_dsl` must be the output of
/// [`syncplace::ir::printer::to_dsl`] on the *parsed* program, so two
/// requests differing only in whitespace or comments share a key.
pub fn placement_key(canonical_dsl: &str, automaton_name: &str) -> u64 {
    let mut h = Fnv::new();
    h.write_str("placement/1");
    h.write_str(canonical_dsl);
    h.write_str(automaton_name);
    h.finish()
}

/// The text-memo key: the request's raw program — builtin name or
/// source text, tagged by which — and the pattern name. It maps to the
/// placement key, so a repeated text is never parsed or printed again.
pub fn text_key(program: &ProgramSpec, pattern_name: &str) -> u64 {
    let (kind, text) = match program {
        ProgramSpec::Builtin(name) => ("builtin", name),
        ProgramSpec::Source(src) => ("source", src),
    };
    let mut h = Fnv::new();
    h.write_str("text/1");
    h.write_str(kind);
    h.write_str(text);
    h.write_str(pattern_name);
    h.finish()
}

/// The plan-cache key: placement key + mesh spec + pattern + `P`.
#[allow(clippy::too_many_arguments)]
pub fn plan_key(
    placement: u64,
    nx: usize,
    ny: usize,
    perturb: f64,
    seed: u64,
    pattern_name: &str,
    p: usize,
) -> u64 {
    let mut h = Fnv::new();
    h.write_str("plan/1");
    h.write_u64(placement);
    h.write_u64(nx as u64);
    h.write_u64(ny as u64);
    h.write_f64(perturb);
    h.write_u64(seed);
    h.write_str(pattern_name);
    h.write_u64(p as u64);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_key_is_deterministic_and_sensitive() {
        let k = placement_key("program x end", "fig6");
        assert_eq!(k, placement_key("program x end", "fig6"));
        assert_ne!(k, placement_key("program y end", "fig6"));
        assert_ne!(k, placement_key("program x end", "fig7"));
    }

    #[test]
    fn text_key_separates_kind_text_and_pattern() {
        let src = |s: &str| ProgramSpec::Source(s.into());
        let k = text_key(&src("testiv"), "node-overlap");
        assert_eq!(k, text_key(&src("testiv"), "node-overlap"));
        assert_ne!(k, text_key(&ProgramSpec::Builtin("testiv".into()), "node-overlap"));
        assert_ne!(k, text_key(&src("testiv "), "node-overlap"));
        assert_ne!(k, text_key(&src("testiv"), "element-overlap(1)"));
    }

    #[test]
    fn plan_key_varies_in_every_field() {
        let base = plan_key(1, 16, 16, 0.2, 42, "element-overlap(1)", 4);
        assert_eq!(base, plan_key(1, 16, 16, 0.2, 42, "element-overlap(1)", 4));
        for other in [
            plan_key(2, 16, 16, 0.2, 42, "element-overlap(1)", 4),
            plan_key(1, 17, 16, 0.2, 42, "element-overlap(1)", 4),
            plan_key(1, 16, 17, 0.2, 42, "element-overlap(1)", 4),
            plan_key(1, 16, 16, 0.3, 42, "element-overlap(1)", 4),
            plan_key(1, 16, 16, 0.2, 43, "element-overlap(1)", 4),
            plan_key(1, 16, 16, 0.2, 42, "node-overlap", 4),
            plan_key(1, 16, 16, 0.2, 42, "element-overlap(1)", 8),
        ] {
            assert_ne!(base, other);
        }
    }

    #[test]
    fn string_fields_are_length_prefixed() {
        let mut a = Fnv::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }
}
