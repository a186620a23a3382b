//! Control-plane cost must follow what an operation changes, not what the fleet
//! holds: a join (`register`, `store.snapshot()`, `subscribe` both ways), a rule edit
//! (`with_access(add_rule)`, its condition on a key never seen before) and a leave
//! (`deregister`) are timed against a 500-endpoint / 500-key engine and against an
//! 8000-endpoint / 8000-key one, and the per-operation cost may grow by at most 4×
//! for 16× the fleet.
//!
//! A snapshot that deep-copies the key map, a `deregister` that walks every
//! endpoint's subscriber list, a `poll` that filters the whole change history, a rule
//! edit that recompiles the whole regime rather than one component, or interning a key
//! by walking the store each scale with the fleet and push the ratio towards 16×. The
//! figure per size is the minimum of five repetitions, so a disturbance of the host
//! has to hit all five to show. CI runs this in `--release` (the `fleet-conformance`
//! job).

use std::sync::Arc;
use std::time::Instant;

use legaliot::context::{ContextStore, Timestamp};
use legaliot::dataplane::{Dataplane, DataplaneConfig};
use legaliot::ifc::SecurityContext;
use legaliot::middleware::{AccessRule, Component, Operation, Principal, Subject};
use legaliot::policy::Condition;

const SMALL: usize = 500;
const LARGE: usize = 8000;
const REPETITIONS: usize = 5;
/// Join + leave cycles per repetition.
const CYCLES: usize = 200;
const MAX_RATIO: f64 = 4.0;

fn component(name: &str) -> Component {
    Component::builder(name, Principal::new("owner"))
        .context(SecurityContext::from_names(["fleet"], Vec::<&str>::new()))
        .build()
}

/// An engine holding `size` endpoints in a subscription ring, each guarded by a rule
/// reading its own context key, and `size` keys in the engine's store.
fn engine(size: usize) -> (Dataplane, Arc<ContextStore>) {
    let config = DataplaneConfig { shards: 2, ..DataplaneConfig::default() };
    let dataplane = Dataplane::new("scaling", config);
    let store = Arc::clone(dataplane.context_store());
    let names: Vec<String> = (0..size).map(|index| format!("endpoint-{index:05}")).collect();
    for name in &names {
        store.set(format!("{name}.enabled"), true, Timestamp(0));
    }
    dataplane.register_bulk(names.iter().map(|name| component(name))).expect("unique names");
    dataplane.with_access(|access| {
        for name in &names {
            access.add_rule(
                name.as_str(),
                AccessRule::allow(Subject::Anyone, Operation::Send, None)
                    .when(Condition::is_true(format!("{name}.enabled"))),
            );
        }
    });
    let snapshot = store.snapshot();
    for (index, name) in names.iter().enumerate() {
        let next = &names[(index + 1) % size];
        assert!(dataplane.subscribe(name, next, &snapshot, Timestamp(1)).unwrap().is_delivered());
    }
    (dataplane, store)
}

/// Seconds per join + rule edit + leave, the minimum over the repetitions.
fn join_leave_cost(dataplane: &Dataplane, store: &ContextStore, size: usize) -> f64 {
    dataplane.allow_sends_to("joiner");
    let mut best = f64::INFINITY;
    for repetition in 0..REPETITIONS {
        let start = Instant::now();
        for cycle in 0..CYCLES {
            let neighbour = format!("endpoint-{:05}", (repetition * CYCLES + cycle) % size);
            let now = Timestamp(2 + cycle as u64);
            dataplane.register(component("joiner")).expect("the joiner left last cycle");
            let visit = format!("joiner.visit-{size}-{repetition}-{cycle}");
            dataplane.with_access(|access| {
                let rule =
                    AccessRule::allow(Subject::Role("visitor".into()), Operation::Receive, None);
                access.add_rule("joiner", rule.when(Condition::is_true(visit)));
            });
            let snapshot = store.snapshot();
            for (from, to) in [("joiner", neighbour.as_str()), (neighbour.as_str(), "joiner")] {
                let outcome = dataplane.subscribe(from, to, &snapshot, now).expect("registered");
                assert!(outcome.is_delivered());
            }
            dataplane.deregister("joiner").expect("registered above");
        }
        best = best.min(start.elapsed().as_secs_f64() / CYCLES as f64);
    }
    best
}

#[test]
fn join_and_leave_cost_does_not_follow_the_fleet() {
    let cost_at = |size: usize| {
        let (dataplane, store) = engine(size);
        let cost = join_leave_cost(&dataplane, &store, size);
        dataplane.shutdown();
        cost
    };
    let (small, large) = (cost_at(SMALL), cost_at(LARGE));
    let ratio = large / small;
    println!(
        "join + rule edit + leave: {:.2} µs at {SMALL} endpoints, {:.2} µs at {LARGE} ({ratio:.2}×)",
        small * 1e6,
        large * 1e6
    );
    assert!(
        ratio < MAX_RATIO,
        "a join + rule edit + leave costs {ratio:.1}× as much at {LARGE} endpoints as at {SMALL} \
         ({:.2} µs against {:.2} µs): some control-plane step scales with the fleet",
        large * 1e6,
        small * 1e6
    );
}
