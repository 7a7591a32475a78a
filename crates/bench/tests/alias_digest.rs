//! Pins the alias analysis's solution on every suite program.
//!
//! Andersen points-to, with the unknown-pointer fallback applied in
//! strata, has one least fixpoint, so any solving order must reach the
//! same solution. This test hashes everything the rest of the pipeline
//! reads from [`AliasAnalysis`] — per-pc region sets, the
//! unknown-pointer flag, scheduler classes, the class count and the escape
//! set — and compares against digests captured from an earlier solver. A
//! changed digest means the solution changed, not just its cost.

use std::fmt::Write;

use clfp_cfg::{AliasAnalysis, Cfg};
use clfp_metrics::fnv1a64;
use clfp_workloads::suite;

/// FNV-1a digest of a canonical text rendering of one program's solution.
fn solution_digest(alias: &AliasAnalysis, text_len: usize) -> u64 {
    let mut out = String::new();
    for pc in 0..text_len {
        match &alias.accesses[pc] {
            None => writeln!(out, "{pc}: -").unwrap(),
            Some(access) => {
                let regions: Vec<String> = access.regions.iter().map(|r| r.to_string()).collect();
                writeln!(
                    out,
                    "{pc}: [{}] unknown={} class={}",
                    regions.join(","),
                    access.unknown,
                    alias.scheduler_class(pc as u32)
                )
                .unwrap();
            }
        }
    }
    let escaping: Vec<String> = alias.escaping.iter().map(|r| r.to_string()).collect();
    writeln!(out, "classes={}", alias.num_classes()).unwrap();
    writeln!(out, "escaping=[{}]", escaping.join(",")).unwrap();
    fnv1a64(&out)
}

/// Digests captured from the round-based solver, in suite order.
const EXPECTED: &[(&str, u64)] = &[
    ("scan", 0x9c0f114ce2897f1e),
    ("parse", 0xcca62ddc47c54e56),
    ("qsort", 0x37388fc5d9f4dc79),
    ("logic", 0xbf58cbd7587678db),
    ("dataflow", 0x0f3641562d475ff0),
    ("eventsim", 0x1a4389b81588c3ce),
    ("fmt", 0x427df2628bfde8d1),
    ("matmul", 0xfca26603f9861040),
    ("sparse", 0x98f2d70a0592941e),
    ("stencil", 0xcf12741915529874),
];

#[test]
fn suite_alias_solutions_are_pinned() {
    let mut actual = Vec::new();
    for workload in suite() {
        let program = workload.compile().expect("suite compiles");
        let cfg = Cfg::build(&program);
        let alias = AliasAnalysis::analyze(&program, &cfg);
        actual.push((workload.name, solution_digest(&alias, program.text.len())));
    }
    let rendered: Vec<String> = actual
        .iter()
        .map(|(name, digest)| format!("(\"{name}\", 0x{digest:016x}),"))
        .collect();
    assert_eq!(
        actual.len(),
        EXPECTED.len(),
        "suite size changed; current digests:\n{}",
        rendered.join("\n")
    );
    for ((name, digest), (want_name, want)) in actual.iter().zip(EXPECTED) {
        assert_eq!(name, want_name, "suite order changed");
        assert_eq!(
            digest, want,
            "{name}: alias solution changed; current digests:\n{}",
            rendered.join("\n")
        );
    }
}
