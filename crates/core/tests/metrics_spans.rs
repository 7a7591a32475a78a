//! A traced metrics run must be attributable: `machine_metrics` walks the
//! lane kernel's recording groups, and each group's `lane.group` span is
//! marked `record: true`, holds at most four lanes, and together the
//! spans' `slots` name every configured machine exactly once. One test
//! body: the tracing switch is process-global.

use clfp_limits::{AnalysisConfig, Analyzer, MachineKind};
use clfp_metrics::trace::{self, ArgValue};
use clfp_vm::{Vm, VmOptions};

#[test]
fn traced_machine_metrics_emits_recording_lane_groups() {
    let config = AnalysisConfig::quick().with_max_instrs(20_000);
    let program = clfp_workloads::by_name("qsort").unwrap().compile().unwrap();
    let mut vm = Vm::new(
        &program,
        VmOptions {
            mem_words: config.mem_words,
        },
    );
    let trace = vm.trace(config.max_instrs).unwrap();
    let analyzer = Analyzer::new(&program, config.clone()).unwrap();
    let prepared = analyzer.prepare(&trace);

    trace::set_tracing(true);
    let metrics = prepared.machine_metrics();
    trace::set_tracing(false);
    let log = trace::drain();
    assert_eq!(metrics.len(), 7, "quick config records all 7 machines");

    let mut recorded: Vec<String> = Vec::new();
    for span in log.spans().filter(|s| s.name == "lane.group") {
        assert_eq!(span.arg("record"), Some(&ArgValue::Bool(true)));
        let Some(&ArgValue::U64(lanes)) = span.arg("lanes") else {
            panic!("lane.group span without a lane count: {span:?}");
        };
        assert!((1..=4).contains(&lanes), "{lanes} recorded lanes");
        let Some(ArgValue::Str(slots)) = span.arg("slots") else {
            panic!("lane.group span without slots: {span:?}");
        };
        // Each slot reads `index:MACHINE±u[*vp]`.
        for slot in slots.split(',') {
            let (_, lane) = slot.split_once(':').expect("slot index");
            let machine = lane
                .trim_end_matches("*vp")
                .strip_suffix("+u")
                .expect("recorded at the configured unroll setting");
            recorded.push(machine.to_string());
        }
    }
    recorded.sort();
    let mut want: Vec<String> = MachineKind::ALL
        .iter()
        .map(|k| k.name().to_string())
        .collect();
    want.sort();
    assert_eq!(recorded, want, "recording groups cover every machine once");
}
