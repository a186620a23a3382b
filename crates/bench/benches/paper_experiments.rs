//! Criterion harnesses for the paper experiments (E2, E3, E7, E8, E11–E17).
//!
//! The paper is a vision paper with no quantitative tables, so these benchmarks
//! quantify the claims it makes qualitatively: per-flow IFC checks are cheap and scale
//! with label size; kernel-level enforcement overhead vs a no-enforcement baseline is
//! small; policy evaluation scales with rule count; reconfiguration, audit, provenance
//! and compliance checking stay tractable at scenario scale.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use legaliot_audit::{AuditEvent, AuditLog, ProvenanceGraph};
use legaliot_bench::context_with_tags;
use legaliot_compliance::{ComplianceChecker, RegulationSet};
use legaliot_context::{ContextSnapshot, Timestamp};
use legaliot_core::{Deployment, HomeMonitoringScenario};
use legaliot_ifc::{can_flow, SecurityContext};
use legaliot_iot::{Chain, Thing, ThingKind};
use legaliot_kernel::{EnforcementMode, ObjectKind, Os};
use legaliot_middleware::{ControlMessage, Message, ReconfigureOp};
use legaliot_policy::{Action, Condition, PolicyEngine, PolicyEvent, PolicyRule};

fn quick(c: &mut Criterion) -> &mut Criterion {
    c
}

/// E3 / E14 — flow-check latency vs label size (tag-namespace scale).
fn bench_flow_check(c: &mut Criterion) {
    let mut group = quick(c).benchmark_group("flow_check");
    for tags in [1usize, 8, 64, 512] {
        let a = context_with_tags(tags);
        let b = context_with_tags(tags);
        group.bench_with_input(BenchmarkId::new("allowed", tags), &tags, |bencher, _| {
            bencher.iter(|| can_flow(std::hint::black_box(&a), std::hint::black_box(&b)))
        });
        let smaller = context_with_tags(tags / 2);
        group.bench_with_input(BenchmarkId::new("denied", tags), &tags, |bencher, _| {
            bencher.iter(|| can_flow(std::hint::black_box(&a), std::hint::black_box(&smaller)))
        });
    }
    group.finish();
}

/// E12 — kernel-level enforcement overhead: enforce vs audit-only vs disabled baseline.
fn bench_kernel_overhead(c: &mut Criterion) {
    let mut group = quick(c).benchmark_group("kernel_overhead");
    for (label, mode) in [
        ("disabled", EnforcementMode::Disabled),
        ("audit_only", EnforcementMode::AuditOnly),
        ("enforce", EnforcementMode::Enforce),
    ] {
        group.bench_function(label, |bencher| {
            bencher.iter_batched(
                || {
                    let mut os = Os::new("bench", mode);
                    let ctx = SecurityContext::from_names(["medical", "ann"], ["hosp-dev"]);
                    let p = os.spawn("writer", ctx);
                    let f = os.create_object(p, "file", ObjectKind::File).unwrap();
                    (os, p, f)
                },
                |(mut os, p, f)| {
                    for t in 0..64u64 {
                        let _ = os.write(p, f, t);
                        let _ = os.read(p, f, t);
                    }
                    os
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// E7 — policy-engine evaluation latency vs rule count.
fn bench_policy_engine(c: &mut Criterion) {
    let mut group = quick(c).benchmark_group("policy_engine");
    for rules in [10usize, 100, 1000] {
        let mut engine = PolicyEngine::new("bench-engine");
        for i in 0..rules {
            engine.add_rule(
                PolicyRule::builder(format!("rule-{i}"), "authority")
                    .on_context_key(format!("key-{}", i % 16))
                    .when(Condition::number_at_least(format!("key-{}", i % 16), 10.0))
                    .then(Action::Notify { recipient: "ops".into(), message: "hit".into() })
                    .build(),
            );
        }
        let snapshot = ContextSnapshot::from_pairs([("key-3", 50i64)]);
        let event = PolicyEvent::ContextChanged { key: "key-3".into() };
        group.bench_with_input(BenchmarkId::from_parameter(rules), &rules, |bencher, _| {
            bencher.iter(|| engine.evaluate(&event, &snapshot, Timestamp::ZERO))
        });
    }
    group.finish();
}

/// E15 — conflict resolution cost with contradictory simultaneous commands.
fn bench_conflict_resolution(c: &mut Criterion) {
    let mut group = quick(c).benchmark_group("conflict_resolution");
    for pairs in [4usize, 32, 128] {
        let mut engine = PolicyEngine::new("bench");
        for i in 0..pairs {
            engine.add_rule(
                PolicyRule::builder(format!("allow-{i}"), "a")
                    .on_tick()
                    .then(Action::Connect { from: format!("c{i}"), to: "sink".into() })
                    .build(),
            );
            engine.add_rule(
                PolicyRule::builder(format!("deny-{i}"), "b")
                    .on_tick()
                    .then(Action::Disconnect { from: format!("c{i}"), to: "sink".into() })
                    .build(),
            );
        }
        let snapshot = ContextSnapshot::default();
        group.bench_with_input(BenchmarkId::from_parameter(pairs), &pairs, |bencher, _| {
            bencher.iter(|| engine.evaluate(&PolicyEvent::Tick, &snapshot, Timestamp::ZERO))
        });
    }
    group.finish();
}

/// E16 — audit log append and hash-chain verification throughput.
fn bench_audit(c: &mut Criterion) {
    let mut group = quick(c).benchmark_group("audit");
    let ctx = SecurityContext::from_names(["medical"], Vec::<&str>::new());
    let event = || AuditEvent::FlowChecked {
        source: "a".into(),
        destination: "b".into(),
        source_context: ctx.clone(),
        destination_context: ctx.clone(),
        decision: can_flow(&ctx, &ctx),
        data_item: None,
    };
    group.bench_function("append_1000", |bencher| {
        bencher.iter(|| {
            let mut log = AuditLog::new("bench");
            for t in 0..1000u64 {
                log.record(event(), t);
            }
            log
        })
    });
    let mut log = AuditLog::new("bench");
    for t in 0..1000u64 {
        log.record(event(), t);
    }
    group.bench_function("verify_1000", |bencher| bencher.iter(|| log.verify_chain()));
    group.finish();
}

/// E11 — provenance graph construction and taint/ancestry queries.
fn bench_provenance(c: &mut Criterion) {
    let mut group = quick(c).benchmark_group("provenance");
    for items in [100usize, 1000] {
        group.bench_with_input(BenchmarkId::new("build", items), &items, |bencher, _| {
            bencher.iter(|| {
                let mut g = ProvenanceGraph::new();
                for i in 1..items {
                    g.record_derivation(
                        &format!("d{i}"),
                        &[&format!("d{}", i - 1)],
                        &format!("p{}", i % 10),
                        "agent",
                        SecurityContext::public(),
                        i as u64,
                    );
                }
                g
            })
        });
        let mut g = ProvenanceGraph::new();
        for i in 1..items {
            g.record_derivation(
                &format!("d{i}"),
                &[&format!("d{}", i - 1)],
                &format!("p{}", i % 10),
                "agent",
                SecurityContext::public(),
                i as u64,
            );
        }
        group.bench_with_input(BenchmarkId::new("taint", items), &items, |bencher, _| {
            bencher.iter(|| g.taint("d0"))
        });
        group.bench_with_input(BenchmarkId::new("ancestry", items), &items, |bencher, _| {
            bencher.iter(|| g.ancestry(&format!("d{}", items - 1)))
        });
    }
    group.finish();
}

/// E2 — end-to-end chain enforcement vs chain length (Fig. 2).
fn bench_chain_length(c: &mut Criterion) {
    let mut group = quick(c).benchmark_group("chain_length");
    for length in [2usize, 8, 32] {
        group.bench_with_input(BenchmarkId::from_parameter(length), &length, |bencher, _| {
            bencher.iter_batched(
                || {
                    let chain = Chain::synthetic("stage", length);
                    let mut deployment = Deployment::new("bench", "engine");
                    let ctx = SecurityContext::from_names(["pipeline"], Vec::<&str>::new());
                    for stage in &chain.stages {
                        deployment.add_thing(
                            &Thing::new(
                                stage.clone(),
                                ThingKind::CloudService,
                                "op",
                                "node",
                                ctx.clone(),
                            ),
                            "eu",
                        );
                    }
                    for (from, to) in chain.hops() {
                        deployment.connect(&from, &to).unwrap();
                    }
                    (deployment, chain)
                },
                |(mut deployment, chain)| {
                    for (from, to) in chain.hops() {
                        deployment
                            .send(&from, &to, Message::new("item", SecurityContext::public()))
                            .unwrap();
                    }
                    deployment
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// E8 — third-party reconfiguration throughput (control messages per second).
fn bench_reconfiguration(c: &mut Criterion) {
    let mut group = quick(c).benchmark_group("reconfiguration");
    group.bench_function("actuate_control_messages", |bencher| {
        bencher.iter_batched(
            || {
                let mut deployment = Deployment::new("bench", "engine");
                for i in 0..16 {
                    deployment.add_thing(
                        &Thing::new(
                            format!("device-{i}"),
                            ThingKind::Actuator,
                            "op",
                            "node",
                            SecurityContext::public(),
                        ),
                        "eu",
                    );
                }
                deployment
            },
            |mut deployment| {
                let snapshot = deployment.context().snapshot();
                let now = deployment.now();
                for i in 0..16 {
                    let cm = ControlMessage::new(
                        format!("device-{i}"),
                        ReconfigureOp::Actuate { command: "sample-interval=1s".into() },
                        "engine",
                        "bench",
                        0,
                    );
                    deployment.middleware_mut().handle_control(&cm, &snapshot, now);
                }
                deployment
            },
            criterion::BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// E7 (latency leg) — emergency reconfiguration latency: context change → channels and
/// actuations applied, as a function of the number of monitored patients.
fn bench_emergency_reconfiguration(c: &mut Criterion) {
    let mut group = quick(c).benchmark_group("emergency_reconfiguration");
    group.bench_function("fig7_emergency_tick", |bencher| {
        bencher.iter_batched(
            || {
                let mut scenario = HomeMonitoringScenario::build(1);
                scenario.deployment.set_context("ann.emergency", true);
                scenario
            },
            |mut scenario| {
                scenario.deployment.tick();
                scenario
            },
            criterion::BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// E17 — compliance checking cost over a grown audit trail.
fn bench_compliance(c: &mut Criterion) {
    let mut group = quick(c).benchmark_group("compliance_check");
    let mut scenario = HomeMonitoringScenario::build(3);
    scenario.run_sanitiser_endorsement();
    scenario.workload.emergency_probability = 0.1;
    let _ = scenario.run(20);
    let regulation = RegulationSet::eu_style_data_protection("ann");
    group.bench_function("eu_regulation_over_scenario", |bencher| {
        bencher.iter(|| scenario.deployment.compliance_report(&regulation))
    });
    let checker = ComplianceChecker::new(regulation);
    group.bench_function("liability_report", |bencher| {
        bencher.iter(|| {
            ComplianceChecker::liability(scenario.deployment.provenance(), "ann-analysis")
        });
        let _ = &checker;
    });
    group.finish();
}

/// E13 — enforcement points: one middleware-held policy vs the same check duplicated in
/// every component (the silo baseline §5.1 argues against).
fn bench_enforcement_points(c: &mut Criterion) {
    let mut group = quick(c).benchmark_group("enforcement_points");
    let components = 32usize;
    let ctx = SecurityContext::from_names(["medical"], Vec::<&str>::new());
    // Middleware path: one shared policy evaluation per flow.
    group.bench_function("middleware_single_pep", |bencher| {
        bencher.iter(|| {
            let mut allowed = 0usize;
            for _ in 0..components {
                if can_flow(&ctx, &ctx).is_allowed() {
                    allowed += 1;
                }
            }
            allowed
        })
    });
    // Silo path: every component re-derives its own copy of the policy before checking
    // (modelled as re-parsing the rule set per component).
    group.bench_function("per_component_silos", |bencher| {
        bencher.iter(|| {
            let mut allowed = 0usize;
            for i in 0..components {
                let mut engine = PolicyEngine::new(format!("silo-{i}"));
                engine.add_rule(
                    PolicyRule::builder("local-allow", "component")
                        .on_flow_attempt(false)
                        .then(Action::AllowFlow { from: "a".into(), to: "b".into() })
                        .build(),
                );
                let outcome = engine.evaluate(
                    &PolicyEvent::FlowAttempted { from: "a".into(), to: "b".into(), allowed: true },
                    &ContextSnapshot::default(),
                    Timestamp::ZERO,
                );
                if !outcome.is_quiescent() && can_flow(&ctx, &ctx).is_allowed() {
                    allowed += 1;
                }
            }
            allowed
        })
    });
    group.finish();
}

/// E1 — a full scenario round (enforcement + audit + policy) as a macro-benchmark.
fn bench_scenario_round(c: &mut Criterion) {
    let mut group = quick(c).benchmark_group("scenario");
    group.bench_function("home_monitoring_round", |bencher| {
        bencher.iter_batched(
            || {
                let mut s = HomeMonitoringScenario::build(9);
                s.run_sanitiser_endorsement();
                s
            },
            |mut s| {
                let _ = s.run(1);
                s
            },
            criterion::BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn configured_criterion() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = configured_criterion();
    targets =
        bench_flow_check,
        bench_kernel_overhead,
        bench_policy_engine,
        bench_conflict_resolution,
        bench_audit,
        bench_provenance,
        bench_chain_length,
        bench_reconfiguration,
        bench_emergency_reconfiguration,
        bench_compliance,
        bench_enforcement_points,
        bench_scenario_round,
}
criterion_main!(benches);
