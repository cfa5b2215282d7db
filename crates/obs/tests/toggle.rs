//! The runtime recording toggle lives in its own integration-test binary:
//! it flips process-global state, so it must not share a process with
//! tests that assume recording is on.

use mcl_obs::{recording, set_recording, CounterKind, Meter};

#[test]
fn set_recording_gates_all_sinks() {
    let mut m = Meter::new();
    set_recording(false);
    assert!(!recording());
    m.add(CounterKind::WindowsEvaluated, 5);
    m.record_span(mcl_obs::SpanKind::Run, 100, 0);
    m.observe(mcl_obs::HistoKind::DispSitesMgl, 1);
    assert!(m.is_empty());
    assert_eq!(m.counter(CounterKind::WindowsEvaluated), 0);

    set_recording(true);
    m.add(CounterKind::WindowsEvaluated, 5);
    assert!(recording());
    assert_eq!(m.counter(CounterKind::WindowsEvaluated), 5);
}
