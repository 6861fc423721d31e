//! Hostile-input fuzz of the JSON readers, driven by the in-tree
//! SplitMix64 generator: byte-level mutants of the committed BENCH
//! baselines and the golden candidate JSONL go through
//! `cnnre_obs::json::parse`, `cnnre_bench::gate::parse_bench_json` and
//! `cnnre_audit::parse_candidates`. Every mutant must give `Ok` or `Err`;
//! a panic fails the test. The fixed-seed pass runs in tier-1, the long
//! pass with `--ignored`.

use std::path::Path;

use cnnre_audit::parse_candidates;
use cnnre_bench::gate::parse_bench_json;
use cnnre_obs::json;
use cnnre_tensor::rng::{Rng, SeedableRng, SmallRng};

/// The committed seed corpus: every BENCH baseline and the golden
/// candidate JSONL.
fn corpus() -> Vec<Vec<u8>> {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut paths: Vec<_> = std::fs::read_dir(golden.join("bench_baseline"))
        .expect("baseline directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    paths.push(golden.join("lenet_candidates.jsonl"));
    paths
        .iter()
        .map(|p| std::fs::read(p).expect("seed file"))
        .collect()
}

/// Bytes that steer a mutant into the readers' structural branches.
const TOKENS: &[&[u8]] = &[
    b"{",
    b"}",
    b"[",
    b"]",
    b"\"",
    b":",
    b",",
    b"\\",
    b"\\u",
    b"\\ud83d",
    b"\\udc00",
    b"-",
    b"0",
    b"1e999",
    b".",
    b"e",
    b"null",
    b"true",
    b"nope",
    b"\n",
    b" ",
    b"\x01",
    "é".as_bytes(),
];

fn mutate(rng: &mut SmallRng, seed: &[u8], corpus: &[Vec<u8>]) -> Vec<u8> {
    let mut out = seed.to_vec();
    for _ in 0..rng.gen_range(1..=4u32) {
        let at = rng.gen_range(0..=out.len());
        match rng.gen_range(0..6u32) {
            0 if at < out.len() => out[at] = rng.gen_range(0..256u64) as u8,
            1 => {
                let token = TOKENS[rng.gen_range(0..TOKENS.len())];
                out.splice(at..at, token.iter().copied());
            }
            2 => {
                let end = rng.gen_range(at..=out.len().min(at + 16));
                out.drain(at..end);
            }
            3 => {
                let end = rng.gen_range(at..=out.len().min(at + 64));
                let copy = out[at..end].to_vec();
                out.splice(at..at, copy);
            }
            4 => out.truncate(at),
            _ => {
                let other = &corpus[rng.gen_range(0..corpus.len())];
                let from = rng.gen_range(0..=other.len());
                let end = rng.gen_range(from..=other.len().min(from + 64));
                out.splice(at..at, other[from..end].iter().copied());
            }
        }
    }
    out
}

fn fuzz(seed: u64, cases: usize) {
    let corpus = corpus();
    let mut rng = SmallRng::seed_from_u64(seed);
    let (mut parsed, mut rejected) = (0usize, 0usize);
    for _ in 0..cases {
        let base = &corpus[rng.gen_range(0..corpus.len())];
        let bytes = mutate(&mut rng, base, &corpus);
        let text = String::from_utf8_lossy(&bytes);
        let tree = json::parse(&text);
        let bench = parse_bench_json(&text);
        assert!(
            bench.is_err() || tree.is_ok(),
            "a BENCH file the JSON reader rejects: {text:?}"
        );
        let _ = parse_candidates(&text);
        if tree.is_ok() {
            parsed += 1;
        } else {
            rejected += 1;
        }
    }
    // Both outcomes must be reached, or the mutants exercise nothing.
    assert!(
        parsed > 0 && rejected > 0,
        "{parsed} parsed, {rejected} rejected"
    );
}

#[test]
fn mutated_goldens_parse_or_error() {
    fuzz(0x4A53_4F4E, 20_000);
}

/// The long pass: `cargo test --release --test json_fuzz -- --ignored`.
#[test]
#[ignore]
fn mutated_goldens_parse_or_error_long() {
    fuzz(0x4A53_4F4E_4C4F_4E47, 300_000);
}

#[test]
fn the_corpus_itself_parses() {
    for seed in corpus() {
        let text = String::from_utf8(seed).expect("UTF-8 seed");
        if text.trim_start().starts_with('{') {
            parse_bench_json(&text).expect("committed baseline parses");
        } else {
            parse_candidates(&text).expect("golden candidates parse");
        }
    }
}

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    let depth = 100_000;
    let closed = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    for deep in ["[".repeat(depth), "{\"a\":".repeat(depth), closed] {
        assert!(json::parse(&deep).is_err());
        assert!(parse_bench_json(&deep).is_err());
        assert!(parse_candidates(&deep).is_err());
    }
}
