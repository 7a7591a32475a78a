//! Randomized property tests for lane grouping: for *any* machine subset
//! in *any* request order, over any suite workload and either unroll
//! setting, the lane kernel must produce the identical per-machine
//! results as the scalar fused cursor, and its recording groups the
//! identical per-machine metrics as the full 7-machine request. This
//! exercises the CD/non-CD split, partial lane groups (1–8 lanes, padding
//! lanes replicated from lane 0; recording groups of 1–4 lanes), and the
//! scatter of group results back into request order — including the
//! singleton and full-14-lane extremes the deterministic suite pins
//! explicitly. Deterministic: a fixed-seed SplitMix64 draws the rounds.

use clfp_limits::{AnalysisConfig, Analyzer, MachineKind, MachineMetrics};

/// Minimal SplitMix64 PRNG — deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A random non-empty machine subset in a random order (Fisher-Yates
    /// over ALL, then a random prefix).
    fn machines(&mut self) -> Vec<MachineKind> {
        let mut pool: Vec<MachineKind> = MachineKind::ALL.to_vec();
        for i in (1..pool.len()).rev() {
            pool.swap(i, self.below(i + 1));
        }
        pool[..1 + self.below(pool.len())].to_vec()
    }
}

const NAMES: [&str; 5] = ["qsort", "scan", "sparse", "matmul", "eventsim"];

/// The sampled suite programs and their traces at a small cap.
fn programs(base: &AnalysisConfig) -> Vec<(&'static str, clfp_isa::Program, clfp_vm::Trace)> {
    NAMES
        .iter()
        .map(|&name| {
            let program = clfp_workloads::by_name(name)
                .expect(name)
                .compile()
                .expect(name);
            let mut vm = clfp_vm::Vm::new(
                &program,
                clfp_vm::VmOptions {
                    mem_words: base.mem_words,
                },
            );
            let trace = vm.trace(base.max_instrs).unwrap();
            (name, program, trace)
        })
        .collect()
}

#[test]
fn random_machine_subsets_match_scalar() {
    let base = AnalysisConfig::quick().with_max_instrs(10_000);
    let programs = programs(&base);
    let mut rng = Rng(0x1992_0515_C0FF_EE00);
    for round in 0..48 {
        let (name, program, trace) = &programs[rng.below(programs.len())];
        let machines = rng.machines();

        let config = AnalysisConfig {
            machines: machines.clone(),
            ..base.clone()
        };
        let analyzer = Analyzer::new(program, config).unwrap();
        let prepared = analyzer.prepare(trace);
        let (lane_unrolled, lane_rolled) = prepared.report_both();
        for (unrolling, lane) in [(true, &lane_unrolled), (false, &lane_rolled)] {
            let scalar = prepared.report_with_unrolling_scalar(unrolling);
            let tag = format!("round {round} {name} {machines:?} unroll={unrolling}");
            assert_eq!(lane.seq_instrs, scalar.seq_instrs, "{tag}");
            assert_eq!(lane.mispred_stats, scalar.mispred_stats, "{tag}");
            assert_eq!(lane.results.len(), scalar.results.len(), "{tag}");
            for (g, w) in lane.results.iter().zip(&scalar.results) {
                assert_eq!(g.kind, w.kind, "{tag}: request order");
                assert_eq!(g.cycles, w.cycles, "{tag} {}", g.kind);
                assert_eq!(
                    g.parallelism.to_bits(),
                    w.parallelism.to_bits(),
                    "{tag} {}",
                    g.kind
                );
            }
        }
    }
}

/// Recording groups hold at most four lanes and the CD and non-CD
/// machines record in separate groups, so a subset request builds groups
/// of every size from 1 to 4. Each machine's metrics must not depend on
/// which other machines share its walk.
#[test]
fn random_machine_subsets_record_the_full_request_metrics() {
    let base = AnalysisConfig::quick().with_max_instrs(10_000);
    let programs = programs(&base);
    // Full 7-machine metrics per program and unroll setting.
    let full: Vec<[Vec<(MachineKind, MachineMetrics)>; 2]> = programs
        .iter()
        .map(|(_, program, trace)| {
            let analyzer = Analyzer::new(program, base.clone()).unwrap();
            let prepared = analyzer.prepare(trace);
            [false, true].map(|unrolling| prepared.machine_metrics_with_unrolling(unrolling))
        })
        .collect();

    let mut rng = Rng(0x0015_2119_9200_5EED);
    for round in 0..32 {
        let pi = rng.below(programs.len());
        let (name, program, trace) = &programs[pi];
        let machines = rng.machines();
        let unrolling = rng.below(2) == 1;
        let config = base.clone().with_machines(&machines);
        let analyzer = Analyzer::new(program, config).unwrap();
        let subset = analyzer
            .prepare(trace)
            .machine_metrics_with_unrolling(unrolling);
        let tag = format!("round {round} {name} {machines:?} unroll={unrolling}");
        assert_eq!(subset.len(), machines.len(), "{tag}");
        for ((kind, metrics), &want_kind) in subset.iter().zip(&machines) {
            assert_eq!(*kind, want_kind, "{tag}: request order");
            let (_, want) = full[pi][usize::from(unrolling)]
                .iter()
                .find(|(k, _)| k == kind)
                .unwrap();
            assert_eq!(metrics, want, "{tag} {kind}");
        }
    }
}
