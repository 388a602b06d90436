//! Seed → inputs. The same seed gives byte-identical inputs; input
//! *sizes* never depend on the seed, only mesh perturbations, the
//! constants that make program texts distinct, and request order.
//! The program under test receives nothing but what is generated here.

use crate::layers::{self, json_escape, Automaton};

/// SplitMix64 — the benchmark's own generator, so the request stream
/// does not change when the repo's `mesh::rng` does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03)))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// A mesh to generate: a perturbed `n × n` grid of `2n²` triangles or an
/// `n³` box of `6n³` tetrahedra.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeshSpec {
    /// 2-D perturbed grid (amplitude 0.2) with this perturbation seed.
    Grid2d {
        /// Cells per side.
        n: usize,
        /// Perturbation seed.
        seed: u64,
    },
    /// 3-D Kuhn-triangulated box.
    Box3d {
        /// Cells per side.
        n: usize,
    },
}

/// One program text to compile and the automaton it is placed against.
#[derive(Debug, Clone)]
pub struct ProgramText {
    /// Input kind (index into [`COMPILE_KINDS`]).
    pub kind: u32,
    /// DSL source.
    pub src: String,
    /// Overlap automaton (fig6 for 2-D programs, fig8 for `tetheat`).
    pub automaton: Automaton,
}

/// The five program shapes of `compile-cold`, with texts per pass.
pub const COMPILE_KINDS: [(&str, usize); 5] = [
    ("testiv", 6),
    ("tetheat", 6),
    ("wide4", 4),
    ("wide5", 4),
    ("wide6", 4),
];

/// DSL text of the `wide(k)` program: `k` independent gather–scatter
/// subgraphs, each with its own output, the final scatter scaled by
/// `scale`. Search cost depends on `k` only; `scale` makes the text (and
/// its content hash) distinct.
pub fn wide_text(k: usize, scale: f64) -> String {
    let mut src = String::from("program wide\n  map SOM : tri -> node [3]\n");
    for j in 1..=k {
        src.push_str(&format!(
            "  input O{j} : node\n  var N{j} : node\n  output R{j} : tri\n"
        ));
    }
    for j in 1..=k {
        src.push_str(&format!(
            "  forall i in node split {{ N{j}(i) = 0.0 }}\n  \
             forall i in tri split {{ N{j}(SOM(i,1)) = N{j}(SOM(i,1)) + O{j}(SOM(i,2)) }}\n  \
             forall i in tri split {{ R{j}(i) = N{j}(SOM(i,3)) * {scale:.4} }}\n"
        ));
    }
    src.push_str("end\n");
    src
}

/// The 24 distinct texts of `compile-cold`, as two halves of 12 with the
/// same mix of kinds, each half in seeded order. TESTIV and `tetheat`
/// vary their iteration cap, `wide(k)` its scale constant — neither
/// changes the search cost.
pub fn compile_texts(seed: u64) -> Vec<ProgramText> {
    let mut rng = Rng::new(seed, 1);
    let mut halves = [Vec::new(), Vec::new()];
    for (kind, (name, n)) in COMPILE_KINDS.iter().enumerate() {
        for i in 0..*n {
            let cap = 50 + 10 * i + rng.below(10);
            let scale = 1.0 + (1 + 1000 * i + rng.below(1000)) as f64 / 10_000.0;
            let (src, automaton) = match *name {
                "testiv" => (layers::testiv_text(cap), Automaton::Fig6),
                "tetheat" => (layers::tetheat_text(cap), Automaton::Fig8),
                "wide4" => (wide_text(4, scale), Automaton::Fig6),
                "wide5" => (wide_text(5, scale), Automaton::Fig6),
                _ => (wide_text(6, scale), Automaton::Fig6),
            };
            halves[i % 2].push(ProgramText {
                kind: kind as u32,
                src,
                automaton,
            });
        }
    }
    for half in &mut halves {
        rng.shuffle(half);
    }
    halves.concat()
}

/// One request of `serve-mixed`: a hot key (program × mesh × P) or a
/// cold text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Hot key index, or [`COLD_KIND`].
    pub kind: u32,
    /// The `run` request line.
    pub line: String,
}

/// Input kind of cold requests in `serve-mixed` samples.
pub const COLD_KIND: u32 = 1000;
/// Hot requests per key in one block of a connection's stream.
pub const HOT_PER_KEY: usize = 8;

fn run_line(program_field: &str, n: usize, mesh_seed: u64, p: usize, diag: bool) -> String {
    format!(
        "{{\"op\":\"run\",{program_field},\"mesh\":{{\"nx\":{n},\"ny\":{n},\"perturb\":0.2,\
         \"seed\":{mesh_seed}}},\"pattern\":\"fig1\",\"p\":{p},\"engine\":\"{}\",\"diag\":{diag}}}",
        layers::DEPLOYED_ENGINE
    )
}

/// The 12 hot keys: {`fig5-sketch`, `edge-smooth`, `wide(3)`} ×
/// {16×16, 32×32} × P ∈ {2, 4}. None has a time loop, so the engine is
/// about half of a ≈1 ms request.
pub fn hot_keys(seed: u64, diag: bool) -> Vec<Request> {
    let mesh_seed = 1 + seed % 1_000_000;
    let wide3 = format!("\"source\":{}", json_escape(&wide_text(3, 1.5)));
    let programs = [
        "\"program\":\"fig5-sketch\"".to_string(),
        "\"program\":\"edge-smooth\"".to_string(),
        wide3,
    ];
    let mut keys = Vec::new();
    for program in &programs {
        for n in [16, 32] {
            for p in [2, 4] {
                keys.push(Request {
                    kind: keys.len() as u32,
                    line: run_line(program, n, mesh_seed, p, diag),
                });
            }
        }
    }
    keys
}

/// The `id`-th cold request of a seed: a `wide(5)` text no daemon has
/// seen (the scale constant encodes seed and id), on a 16×16 mesh, P=2.
pub fn cold_line(seed: u64, id: usize, diag: bool) -> String {
    assert!(id < 10_000, "cold ids are four decimal digits");
    let scale = (2 + seed % 997) as f64 + id as f64 / 10_000.0;
    let program = format!("\"source\":{}", json_escape(&wide_text(5, scale)));
    run_line(&program, 16, 1 + seed % 1_000_000, 2, diag)
}

/// Identifier of the cold request in block `block` of connection `conn`.
pub fn cold_id(conn: usize, block: usize) -> usize {
    assert!(conn < 2 && block < 5_000);
    conn * 5_000 + block
}

/// Block `block` of connection `conn`'s closed-loop stream: every hot key
/// [`HOT_PER_KEY`] times in seeded order plus one cold request at a
/// seeded position — 96 hot + 1 cold, so ≈1% of requests miss both
/// caches and the mix is exact in every block.
pub fn request_block(seed: u64, conn: usize, block: usize, keys: &[Request]) -> Vec<Request> {
    let mut rng = Rng::new(seed, 100 + cold_id(conn, block) as u64);
    let mut reqs: Vec<Request> = keys
        .iter()
        .flat_map(|k| std::iter::repeat_n(k.clone(), HOT_PER_KEY))
        .collect();
    rng.shuffle(&mut reqs);
    let at = rng.below(reqs.len() + 1);
    reqs.insert(
        at,
        Request {
            kind: COLD_KIND,
            line: cold_line(seed, cold_id(conn, block), false),
        },
    );
    reqs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_a_byte_identical_request_stream() {
        let stream = |seed| -> Vec<Request> {
            let keys = hot_keys(seed, false);
            let mut reqs = Vec::new();
            for conn in 0..2 {
                for block in 0..3 {
                    reqs.extend(request_block(seed, conn, block, &keys));
                }
            }
            reqs
        };
        assert_eq!(hot_keys(7, false).len(), 12);
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
    }

    #[test]
    fn a_block_is_96_hot_and_one_never_repeated_cold() {
        let keys = hot_keys(3, false);
        let mut cold = std::collections::BTreeSet::new();
        for conn in 0..2 {
            for block in 0..20 {
                let reqs = request_block(3, conn, block, &keys);
                assert_eq!(reqs.len(), 12 * HOT_PER_KEY + 1);
                for k in &keys {
                    assert_eq!(
                        reqs.iter().filter(|r| r.kind == k.kind).count(),
                        HOT_PER_KEY
                    );
                }
                let c: Vec<_> = reqs.iter().filter(|r| r.kind == COLD_KIND).collect();
                assert_eq!(c.len(), 1);
                assert!(cold.insert(c[0].line.clone()), "cold text repeated");
            }
        }
    }

    #[test]
    fn compile_texts_are_distinct_and_seeded() {
        let a = compile_texts(1);
        assert_eq!(a.len(), 24);
        let distinct: std::collections::BTreeSet<_> = a.iter().map(|t| &t.src).collect();
        assert_eq!(distinct.len(), 24);
        for (kind, (_, n)) in COMPILE_KINDS.iter().enumerate() {
            for half in [&a[..12], &a[12..]] {
                assert_eq!(half.iter().filter(|t| t.kind == kind as u32).count(), n / 2);
            }
        }
        let b = compile_texts(1);
        assert!(a.iter().zip(&b).all(|(x, y)| x.src == y.src));
        let c = compile_texts(2);
        assert!(a.iter().zip(&c).any(|(x, y)| x.src != y.src));
    }
}
