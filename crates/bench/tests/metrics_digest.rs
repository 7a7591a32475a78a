//! Pins the recorded machine metrics on every suite program.
//!
//! `regen --metrics` and the benchmark check only the default
//! configuration with unrolling on. This test hashes every
//! [`MachineMetrics`] field — instruction and cycle counts, the occupancy
//! histogram, the critical-path attribution and the flow counters — for
//! each suite program under both unroll settings, four disambiguation ×
//! value-prediction modes of the mode matrix, renaming off, a finite
//! fetch bandwidth and realistic latencies, and compares against digests
//! captured from the scalar machine-at-a-time recorder. A changed digest
//! means a recorded schedule or its binding-edge attribution changed.

use std::fmt::Write;

use clfp_limits::{
    AnalysisConfig, Analyzer, Latencies, MachineKind, MachineMetrics, MemDisambiguation,
    ValuePrediction,
};
use clfp_metrics::fnv1a64;
use clfp_vm::{Vm, VmOptions};
use clfp_workloads::suite;

/// Trace cap per program: small enough for a debug-build test, long
/// enough that every program reaches its loops.
const CAP: u64 = 20_000;

/// Case names, in the column order of [`EXPECTED`].
const CASES: [&str; 9] = [
    "unroll",
    "no-unroll",
    "perfect/off",
    "static/off",
    "none/off",
    "perfect/stride",
    "no-rename",
    "fetch4",
    "realistic-latency",
];

/// Digests captured from the scalar recorder, in suite order, one per case.
const EXPECTED: &[(&str, [u64; 9])] = &[
    (
        "scan",
        [
            0x72a465ea298c64f3,
            0x87eb5b2f573ed3e0,
            0x72a465ea298c64f3,
            0x72a465ea298c64f3,
            0xfa147ab307a5b3e3,
            0x1e58f5a33ee13711,
            0xee9f1383b403f9dc,
            0xed2428478da654cd,
            0xd57377e486f99ac5,
        ],
    ),
    (
        "parse",
        [
            0x50d249596a6c7704,
            0xb7700e2aef3235b3,
            0x50d249596a6c7704,
            0xd68d5ed56e575778,
            0x374fc2e61d15cb93,
            0x34952a45b7273feb,
            0x4fb50567a34163a7,
            0x7c8c121de631aa2c,
            0xe13bdfc5abb2f1d7,
        ],
    ),
    (
        "qsort",
        [
            0x74e5113523a578e2,
            0xab5593dd7d7a76ab,
            0x74e5113523a578e2,
            0x74e5113523a578e2,
            0xf1a12f28ac7970dc,
            0x7af44ebfd05e2454,
            0x0bb29762427680a4,
            0xbe1b1f08e71b9169,
            0x5e648ece38b35f69,
        ],
    ),
    (
        "logic",
        [
            0x2bb92176510816d2,
            0xab4e17f64267e024,
            0x2bb92176510816d2,
            0xb7819b0fca4ec4b1,
            0x44885d66df431c3c,
            0xae6a9201b62957bd,
            0xf073c837af66b26d,
            0x11d07f0a59508ae3,
            0x78fb9f8f2f172193,
        ],
    ),
    (
        "dataflow",
        [
            0x1abd970c75905227,
            0xca7bcfc132147f6e,
            0x1abd970c75905227,
            0x1735def6bb6e01fa,
            0x3cd947a1912e1448,
            0xb98c5027a8584295,
            0x138ce5eab0464084,
            0x60452ca6256a516c,
            0xcaba0549daf0180f,
        ],
    ),
    (
        "eventsim",
        [
            0xac34af3e0cf6fd1a,
            0x738cc3054af1e96d,
            0xac34af3e0cf6fd1a,
            0xc5f4a62688cdfcc4,
            0xbcd314011aa02cfb,
            0xbec227a982d1f8e2,
            0x9bee4e8db1778b44,
            0xe5bd89d2a5f1755f,
            0x72b55a9138a85551,
        ],
    ),
    (
        "fmt",
        [
            0x853bc79b75fa466b,
            0x68591965a355492e,
            0x853bc79b75fa466b,
            0x4f1052c44aadd8c2,
            0x83e88bdb943805a0,
            0xbcef7c754405fe5e,
            0x94607b465077866f,
            0x7544700887b57a09,
            0x22a57414e0cbddd0,
        ],
    ),
    (
        "matmul",
        [
            0xd015d89a0e19f8c6,
            0x6d53856b8f45d43a,
            0xd015d89a0e19f8c6,
            0xd015d89a0e19f8c6,
            0x3f990ed970c1fa0a,
            0x046e964b7d08db83,
            0xd5c9e065a44ed613,
            0x51bec1e10182837a,
            0x79b602ca65691ab7,
        ],
    ),
    (
        "sparse",
        [
            0xa69e38b3fb3a3dff,
            0x826e7fe169243a7e,
            0xa69e38b3fb3a3dff,
            0xaa15d643e54a7399,
            0x647bfc5a9926ba07,
            0x4935c242a6b3c14a,
            0x9c38d79b0a993923,
            0xe221307dab7f144d,
            0x56192ccfe23902b5,
        ],
    ),
    (
        "stencil",
        [
            0xfcbe04e099a55aa6,
            0x2c19a393b9fbe4ee,
            0xfcbe04e099a55aa6,
            0xfcbe04e099a55aa6,
            0xfcbe04e099a55aa6,
            0xe0ab746f39f138fc,
            0x45173e64fa5b531f,
            0xe786204385b1fb3e,
            0x24237887d86308e8,
        ],
    ),
];

fn render(out: &mut String, metrics: &[(MachineKind, MachineMetrics)]) {
    for (kind, m) in metrics {
        let o = &m.occupancy;
        let a = &m.attribution;
        writeln!(
            out,
            "{kind}: instrs={} cycles={} occ_cycles={} occ_instrs={} busy={} peak={}",
            m.instrs, m.cycles, o.cycles, o.instrs, o.busy_cycles, o.peak
        )
        .unwrap();
        for b in &o.buckets {
            writeln!(out, "  bucket {} {} {}", b.width_low, b.cycles, b.instrs).unwrap();
        }
        writeln!(
            out,
            "  attr {:?} terminators={} chain={}",
            a.counts, a.terminators, a.chain_len
        )
        .unwrap();
        writeln!(
            out,
            "  flow {:?} unconstrained={}",
            m.flow.by_kind, m.flow.unconstrained
        )
        .unwrap();
    }
}

fn digest(metrics: &[(MachineKind, MachineMetrics)]) -> u64 {
    let mut out = String::new();
    render(&mut out, metrics);
    fnv1a64(&out)
}

fn program_digests(program: &clfp_isa::Program) -> [u64; 9] {
    let base = AnalysisConfig::quick().with_max_instrs(CAP);
    let mut vm = Vm::new(
        program,
        VmOptions {
            mem_words: base.mem_words,
        },
    );
    let trace = vm.trace(base.max_instrs).unwrap();
    let metrics_of = |config: AnalysisConfig| {
        let analyzer = Analyzer::new(program, config).unwrap();
        let prepared = analyzer.prepare(&trace);
        prepared.machine_metrics()
    };

    let analyzer = Analyzer::new(program, base.clone()).unwrap();
    let prepared = analyzer.prepare(&trace);
    let unrolled = prepared.machine_metrics_with_unrolling(true);
    let rolled = prepared.machine_metrics_with_unrolling(false);
    let multimode = analyzer.prepare_multimode(&trace);
    let modes = [
        (MemDisambiguation::Perfect, ValuePrediction::Off),
        (MemDisambiguation::Static, ValuePrediction::Off),
        (MemDisambiguation::None, ValuePrediction::Off),
        (MemDisambiguation::Perfect, ValuePrediction::Stride),
    ];
    let matrix = multimode.mode_matrix_metrics(&modes, true);

    [
        digest(&unrolled),
        digest(&rolled),
        digest(&matrix[0]),
        digest(&matrix[1]),
        digest(&matrix[2]),
        digest(&matrix[3]),
        digest(&metrics_of(base.clone().with_rename(false))),
        digest(&metrics_of(base.clone().with_fetch_bandwidth(4))),
        digest(&metrics_of(
            base.clone().with_latency(Latencies::realistic()),
        )),
    ]
}

#[test]
fn suite_machine_metrics_are_pinned() {
    let mut actual = Vec::new();
    for workload in suite() {
        let program = workload.compile().expect("suite compiles");
        actual.push((workload.name, program_digests(&program)));
    }
    let rendered: Vec<String> = actual
        .iter()
        .map(|(name, digests)| {
            let cols: Vec<String> = digests.iter().map(|d| format!("0x{d:016x}")).collect();
            format!("(\"{name}\", [{}]),", cols.join(", "))
        })
        .collect();
    assert_eq!(
        actual.len(),
        EXPECTED.len(),
        "suite size changed; current digests:\n{}",
        rendered.join("\n")
    );
    for ((name, digests), (want_name, want)) in actual.iter().zip(EXPECTED) {
        assert_eq!(name, want_name, "suite order changed");
        for (case, (got, want)) in CASES.iter().zip(digests.iter().zip(want)) {
            assert_eq!(
                got,
                want,
                "{name} {case}: recorded metrics changed; current digests:\n{}",
                rendered.join("\n")
            );
        }
    }
}
