//! Every static pass run by `StaticInfo::analyze` records a span of its
//! own while the trace recorder is on, so profiles attribute the static
//! front end pass by pass.

use clfp_cfg::StaticInfo;
use clfp_metrics::trace;

#[test]
fn each_static_pass_records_a_span() {
    let program = clfp_isa::assemble(
        ".text\nmain: li r8, 5\nloop: addi r8, r8, -1\n sw r8, 4(sp)\n bgt r8, r0, loop\n halt",
    )
    .unwrap();
    trace::set_tracing(true);
    let info = StaticInfo::analyze(&program);
    trace::set_tracing(false);
    let log = trace::drain();
    assert_eq!(info.loops.loops().len(), 1);
    for name in [
        "static.cfg",
        "static.controldep",
        "static.loops",
        "static.induction",
        "static.masks",
        "static.alias",
    ] {
        let count = log.spans().filter(|span| span.name == name).count();
        assert_eq!(count, 1, "expected one `{name}` span");
    }
}
