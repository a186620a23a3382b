//! `bus_inline`: the smart-home components, schemas and edges on the synchronous
//! `legaliot_middleware::Middleware` — one thread, `send` → `try_recv` per edge, no
//! queue, shard or mailbox. The paper-faithful baseline of the same job, and the only
//! workload that runs the bus's own copy of the enforcement sequence.
//!
//! The bus's audit log is unbounded (one full `FlowChecked` per send), so the sends are
//! spread over several fresh buses, each cut into windows of 2500 sends; reported values
//! are the fast-side decile of the windows.

use std::time::Instant;

use legaliot_context::{ContextSnapshot, Timestamp};
use legaliot_dataplane::{payload_schema, smart_home, Topology};
use legaliot_middleware::{Message, Middleware};

use crate::outcome::{timed, Outcome, RunOptions};
use crate::pace::now_ns;
use crate::spans::SpanBuffer;
use crate::stats;
use crate::workloads::home::{feeds, Feed, PATIENTS};
use crate::workloads::{open_send_rule, record_latency_tail};

/// Sends per window: every end-to-end value is taken per window (≈15 ms of work).
const WINDOW_SENDS: u64 = 2500;

/// Buses and sends of one run.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Untimed sends on a bus of their own before the first timed one.
    pub warmup: u64,
    /// Fresh buses.
    pub buses: usize,
    /// Sends per bus (≈0.7 s at today's ≈150 k sends/s; ≈120 MB of audit log).
    pub sends: u64,
}

impl Sizing {
    /// The sizing for a run of `seconds`.
    pub fn of(seconds: f64, smoke: bool) -> Self {
        if smoke {
            Sizing { warmup: 1000, buses: 2, sends: 5000 }
        } else {
            // 150 k sends per second of run, in buses of 100 k.
            Sizing {
                warmup: 100_000,
                buses: ((seconds * 1.5).round() as usize).max(3),
                sends: 100_000,
            }
        }
    }
}

/// One edge of the topology with its input and what `try_recv` must hand back.
struct Edge {
    from: String,
    to: String,
    message: Message,
    /// `Message::quenched` of the input: `subject-id` removed, nothing else touched.
    expected: Message,
}

fn edges(topology: &Topology, feeds: &[Feed]) -> Vec<Edge> {
    feeds
        .iter()
        .flat_map(|feed| {
            topology.edges.iter().filter(move |(from, _)| *from == feed.publisher).map(
                move |(from, to)| Edge {
                    from: from.clone(),
                    to: to.clone(),
                    message: feed.message.clone(),
                    expected: feed.message.quenched(["subject-id"]),
                },
            )
        })
        .collect()
}

/// Builds a bus holding the topology: components, schemas, open `Send` access and one
/// established channel per edge.
fn install(topology: &Topology) -> Middleware {
    let mut bus = Middleware::new("bus");
    let snapshot = ContextSnapshot::default();
    for component in &topology.components {
        assert!(bus.registry_mut().register(component.clone()), "component names are unique");
        bus.access_mut().add_rule(component.name(), open_send_rule());
    }
    for message_type in topology.message_types() {
        bus.registry_mut().register_schema(payload_schema(&message_type));
    }
    for (from, to) in &topology.edges {
        let outcome = bus.establish_channel(from, to, &snapshot, Timestamp(1));
        assert!(outcome.expect("registered components").is_delivered(), "scenario edges are legal");
    }
    bus
}

/// What one bus measured.
struct BusRun {
    setup_s: f64,
    wall_s: f64,
    /// Per send: `send` call start → `try_recv` returned, ns.
    latency_ns: Vec<u32>,
    /// Clock reads at every window edge (every [`WINDOW_SENDS`] sends).
    marks_ns: Vec<u64>,
    send_busy_ns: u64,
    recv_busy_ns: u64,
    records: usize,
    verify_s: f64,
}

/// What one bus is to do.
#[derive(Clone, Copy)]
struct BusPlan<'a> {
    seed: u64,
    edges: &'a [Edge],
    /// Sequence number of its first send.
    base: u64,
    sends: u64,
    inject_corruption: bool,
    epoch: Instant,
}

/// Runs the plan's sends over the edges round-robin on a fresh bus and checks every body.
fn run_bus(plan: &BusPlan, spans: &mut SpanBuffer, outcome: &mut Outcome) -> (BusRun, Middleware) {
    let BusPlan { seed, edges, base, sends, inject_corruption, epoch } = *plan;
    let (mut bus, setup_s) = timed(|| install(&smart_home(PATIENTS, seed)));
    let snapshot = ContextSnapshot::default();
    let mut latency_ns = Vec::with_capacity(sends as usize);
    let mut bodies: Vec<Option<Message>> = Vec::with_capacity(sends as usize);
    let (mut refused, mut send_busy_ns, mut recv_busy_ns) = (0u64, 0u64, 0u64);

    let start_ns = now_ns(epoch);
    let mut marks_ns = Vec::with_capacity((sends / WINDOW_SENDS) as usize + 1);
    for seq in base..base + sends {
        let edge = &edges[(seq % edges.len() as u64) as usize];
        let message = edge.message.clone();
        let before_ns = now_ns(epoch);
        if (seq - base) % WINDOW_SENDS == 0 {
            marks_ns.push(before_ns);
        }
        let sent = bus.send(&edge.from, &edge.to, message, &snapshot, Timestamp(seq));
        let sent_ns = now_ns(epoch);
        let body = bus.try_recv(&edge.to);
        let after_ns = now_ns(epoch);
        refused += u64::from(!matches!(&sent, Ok(outcome) if outcome.is_delivered()));
        bodies.push(body);
        latency_ns.push((after_ns - before_ns).min(u64::from(u32::MAX)) as u32);
        send_busy_ns += sent_ns - before_ns;
        recv_busy_ns += after_ns - sent_ns;
        if spans.samples(seq) {
            spans.record("deliver", "", seq, before_ns, after_ns);
            spans.record("publish", "deliver", seq, before_ns, sent_ns);
            spans.record("drain", "deliver", seq, sent_ns, after_ns);
        }
    }
    marks_ns.push(now_ns(epoch));
    let wall_s = (now_ns(epoch) - start_ns) as f64 / 1e9;

    // ---- correctness, outside the timed loop ----
    if inject_corruption {
        if let Some(Some(body)) = bodies.first_mut() {
            body.attributes.clear();
        }
    }
    let mut wrong = 0u64;
    for (seq, body) in (base..).zip(&bodies) {
        let edge = &edges[(seq % edges.len() as u64) as usize];
        let intact = body.as_ref().is_some_and(|body| {
            body.attributes == edge.expected.attributes
                && body.message_type == edge.expected.message_type
                && body.sender == edge.from
                && body.sent_at_millis == seq
        });
        wrong += u64::from(!intact);
    }
    outcome.attempted += sends;
    outcome.fail(refused, format!("{refused} sends were not delivered"));
    outcome
        .fail(wrong, format!("{wrong} received bodies differ from Message::quenched of the input"));
    let verify_start = now_ns(epoch);
    let (intact, verify_s) = timed(|| bus.audit().verify_chain().is_intact());
    spans.record("verify", "", base, verify_start, now_ns(epoch));
    outcome.check(intact, || "the bus's audit chain does not verify".into());
    let run = BusRun {
        setup_s,
        wall_s,
        latency_ns,
        marks_ns,
        send_busy_ns,
        recv_busy_ns,
        records: bus.audit().len(),
        verify_s,
    };
    (run, bus)
}

/// Runs `bus_inline`.
pub fn run(opts: &RunOptions) -> Outcome {
    let mut outcome = Outcome::default();
    let sizing = Sizing::of(opts.seconds, opts.smoke);
    let topology = smart_home(PATIENTS, opts.seed);
    let feeds = feeds(&topology, opts.seed);
    let edges = edges(&topology, &feeds);
    let epoch = Instant::now();
    let total = sizing.warmup + sizing.buses as u64 * sizing.sends;
    let mut spans = SpanBuffer::with_capacity(opts.span_capacity(total * 2, sizing.buses + 1));
    // Warm-up on a bus of its own; checked like the rest, measured by nobody.
    let mut warm = Outcome::default();
    let plan = BusPlan {
        seed: opts.seed,
        edges: &edges,
        base: 0,
        sends: sizing.warmup,
        inject_corruption: false,
        epoch,
    };
    run_bus(&plan, &mut SpanBuffer::with_capacity(0), &mut warm);
    outcome.fail(warm.failed, "the warm-up bus failed its checks");

    let mut runs = Vec::with_capacity(sizing.buses);
    let mut last_bus = None;
    for index in 0..sizing.buses {
        let plan = BusPlan {
            base: sizing.warmup + index as u64 * sizing.sends,
            sends: sizing.sends,
            inject_corruption: opts.inject_corruption && index == 0,
            ..plan
        };
        let (run, bus) = run_bus(&plan, &mut spans, &mut outcome);
        runs.push(run);
        // Keep only the last bus (for the probes' records): one audit log resident at a time.
        last_bus = (index + 1 == sizing.buses).then_some(bus);
    }

    let (mut rates, mut p50s, mut p90s, mut all) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for run in &mut runs {
        all.extend_from_slice(&run.latency_ns);
        for (window, edge) in
            run.latency_ns.chunks_exact_mut(WINDOW_SENDS as usize).zip(run.marks_ns.windows(2))
        {
            rates.push(WINDOW_SENDS as f64 * 1e9 / (edge[1] - edge[0]).max(1) as f64);
            let (p50, p90) = stats::window_p50_p90_us(window);
            p50s.push(p50);
            p90s.push(p90);
        }
    }
    // ---- end-to-end numbers: the fast-side decile of the windows (set-up: of the buses) ----
    let of = |f: &dyn Fn(&BusRun) -> f64| -> Vec<f64> { runs.iter().map(f).collect() };
    let sends = sizing.sends as f64;
    outcome.set_undisturbed("setup_s", &of(&|run| run.setup_s), false);
    outcome.set_undisturbed("throughput_msgs_per_s", &rates, true);
    outcome.set_undisturbed("harness.latency_p50_us", &p50s, false);
    outcome.set_undisturbed("harness.latency_p90_us", &p90s, false);
    record_latency_tail(&mut outcome, &mut all);
    let wall_total: f64 = runs.iter().map(|run| run.wall_s).sum();
    outcome.set("harness.throughput_mean_msgs_per_s", sends * runs.len() as f64 / wall_total);
    outcome.samples.insert("buses".into(), runs.len() as u64);
    outcome.samples.insert("sends_per_bus".into(), sizing.sends);

    // ---- layer numbers: probes first, so that the `bus.*` values measured per call over
    // every edge of the workload replace the probes' single-edge ones ----
    if let Some(bus) = last_bus.filter(|_| opts.traced) {
        let records = bus.audit().records().iter().take(4096).cloned().collect();
        drop(bus);
        let inputs = super::home::probe_inputs(&topology, &feeds[0], records, opts);
        crate::probes::run(&inputs, &mut outcome);
    }

    outcome.set("bus.send_ns", stats::median(&of(&|run| run.send_busy_ns as f64 / sends)));
    outcome.set("bus.try_recv_ns", stats::median(&of(&|run| run.recv_busy_ns as f64 / sends)));
    outcome
        .set("bus.audit_records_per_send", stats::median(&of(&|run| run.records as f64 / sends)));
    outcome.set("audit.records_per_msg", outcome.metrics["bus.audit_records_per_send"]);
    outcome.set(
        "audit.verify_ns_per_record",
        stats::median(&of(&|run| run.verify_s * 1e9 / run.records.max(1) as f64)),
    );
    outcome.set("ledger.wall", stats::median(&of(&|run| run.wall_s * 1e9 / sends)));
    outcome.set("ledger.publish", outcome.metrics["bus.send_ns"]);
    outcome.set("ledger.recv", outcome.metrics["bus.try_recv_ns"]);
    outcome.spans = spans;
    outcome
}
