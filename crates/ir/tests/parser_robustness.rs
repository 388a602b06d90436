//! Parser robustness: arbitrary input never panics; structured random
//! programs with loops and indirections round-trip. Randomness comes
//! from the deterministic in-repo PRNG so the suite runs offline.

use syncplace_ir::parser::{parse, MAX_DEPTH};
use syncplace_ir::printer::to_dsl;
use syncplace_mesh::rng::SmallRng;

/// A random string of printable (and occasionally exotic) characters.
fn arb_text(rng: &mut SmallRng, max_len: usize) -> String {
    let len = rng.range_usize(0, max_len + 1);
    (0..len)
        .map(|_| match rng.range_usize(0, 10) {
            0..=5 => (rng.range_usize(0x20, 0x7f) as u8) as char,
            6 => '\n',
            7 => '\t',
            8 => char::from_u32(rng.range_usize(0xa1, 0x2000) as u32).unwrap_or('¤'),
            _ => char::from_u32(rng.range_usize(0x1f300, 0x1f600) as u32).unwrap_or('🙂'),
        })
        .collect()
}

#[test]
fn arbitrary_input_never_panics() {
    let mut rng = SmallRng::seed_from_u64(0x9A25E);
    for _case in 0..256 {
        let src = arb_text(&mut rng, 200);
        let _ = parse(&src); // Ok or Err, never a panic
    }
}

#[test]
fn arbitrary_token_soup_never_panics() {
    const TOKENS: [&str; 18] = [
        "program", "forall", "iterate", "exit", "when", "end", "{", "}", "(", ")", "=", "+",
        "node", "split", "x", "1.5", "->", ":",
    ];
    let mut rng = SmallRng::seed_from_u64(0x50);
    for _case in 0..256 {
        let n = rng.range_usize(0, 40);
        let toks: Vec<&str> = (0..n).map(|_| *rng.pick(&TOKENS)).collect();
        let src = toks.join(" ");
        let _ = parse(&src);
    }
}

/// A small generator of well-formed programs with loops, gathers and
/// reductions, checked to round-trip through print+parse.
fn arb_program(rng: &mut SmallRng) -> String {
    let nloops = rng.range_usize(1, 4);
    let nscalar_stmts = rng.range_usize(0, 3);
    let with_time = rng.flip();
    let mut src = String::from(
        "program gen\n  input A : node\n  output B : node\n  output s : scalar\n  input W : tri\n  map SOM : tri -> node [3]\n  var T : tri\n  var t0 : scalar\n",
    );
    let mut body = String::new();
    for k in 0..nloops {
        match k % 3 {
            0 => body.push_str("  forall i in node split { B(i) = A(i) * 2.0 }\n"),
            1 => body.push_str("  forall i in tri split { T(i) = A(SOM(i,1)) + W(i) }\n"),
            _ => body.push_str("  forall i in tri split { t0 = A(SOM(i,2)) ; T(i) = t0 * W(i) }\n"),
        }
    }
    for _ in 0..nscalar_stmts {
        body.push_str("  s = s + 1.0\n");
    }
    if with_time {
        src.push_str("  s = 0.0\n  iterate k max 5 {\n");
        src.push_str(&body);
        src.push_str("    forall i in tri split { s = s + T(i) }\n");
        src.push_str("    exit when s < 0.5\n  }\n");
    } else {
        src.push_str("  s = 0.0\n");
        src.push_str(&body);
    }
    src.push_str("end\n");
    src
}

#[test]
fn generated_programs_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0x9E);
    for _case in 0..64 {
        let src = arb_program(&mut rng);
        let p1 = parse(&src).expect("generator emits valid programs");
        assert!(syncplace_ir::validate::check(&p1).is_empty());
        let p2 = parse(&to_dsl(&p1)).unwrap();
        assert_eq!(p1, p2);
    }
}

#[test]
fn generated_programs_analyze_without_panic() {
    let mut rng = SmallRng::seed_from_u64(0xA11);
    for _case in 0..64 {
        let src = arb_program(&mut rng);
        let p = parse(&src).unwrap();
        // DFG construction must never panic on shape-valid programs.
        let _ = syncplace_ir::validate::check(&p);
    }
}

/// A scalar program whose one statement assigns `expr`.
fn assigning(expr: &str) -> String {
    format!("program deep\n  var s : scalar\n  s = {expr}\nend\n")
}

/// `n` nested `iterate` blocks around one assignment.
fn nested_iterates(n: usize) -> String {
    let mut src = String::from("program deep\n  var s : scalar\n");
    for k in 0..n {
        src.push_str(&format!("iterate t{k} max 1 {{\n"));
    }
    src.push_str("s = 1.0\n");
    src.push_str(&"}\n".repeat(n));
    src.push_str("end\n");
    src
}

/// Parse on a thread with the default stack, as the daemon's
/// connection handlers are: an overflow would abort the process.
fn parse_on_default_stack(src: String) -> Result<(), String> {
    std::thread::spawn(move || parse(&src).map(|_| ()).map_err(|e| e.message))
        .join()
        .expect("parser thread")
}

#[test]
fn nesting_past_the_limit_is_an_error_not_an_overflow() {
    let hostile = [
        assigning(&format!("{}s{}", "(".repeat(200_000), ")".repeat(200_000))),
        assigning(&vec!["s"; 120_000].join(" + ")),
        assigning(&format!("{}s", "-".repeat(200_000))),
        assigning(&format!(
            "{}s{}",
            "sqrt(".repeat(100_000),
            ")".repeat(100_000)
        )),
        nested_iterates(100_000),
    ];
    for src in hostile {
        let e = parse_on_default_stack(src).unwrap_err();
        assert!(e.contains(&format!("limit of {MAX_DEPTH}")), "{e}");
    }
}

#[test]
fn nesting_at_the_limit_parses() {
    let chain = |n: usize| assigning(&vec!["s"; n].join(" * "));
    let parens = |n: usize| assigning(&format!("{}s{}", "(".repeat(n), ")".repeat(n)));
    for at_limit in [
        chain(MAX_DEPTH),
        parens(MAX_DEPTH),
        nested_iterates(MAX_DEPTH),
    ] {
        parse_on_default_stack(at_limit).unwrap();
    }
    for over in [
        chain(MAX_DEPTH + 1),
        parens(MAX_DEPTH + 1),
        nested_iterates(MAX_DEPTH + 1),
    ] {
        assert!(parse_on_default_stack(over).is_err());
    }
}
