//! The provenance graph of Fig. 11.
//!
//! "Provenance systems generate audit graphs … that represent the data items (F),
//! transformation processes (P) and agents (A) (owners/managers) involved in generating
//! and transferring certain data" (§8.3). The graph here is built either directly by
//! enforcement points or from an [`crate::AuditLog`], and supports the queries the paper
//! motivates: how was an item derived, did personal data reach a given agent, which
//! flows involved a given tag, and who controlled the process responsible for a leak
//! (liability apportionment, used by `legaliot-compliance`).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use legaliot_ifc::{SecurityContext, Tag};

use crate::event::AuditEvent;
use crate::log::AuditLog;

/// Identifier of a node in the provenance graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u64);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The three node kinds of the Open-Provenance-style audit graph (Fig. 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeKind {
    /// A data item (`F` in the figure): a reading, a file, a message, a statistic.
    DataItem,
    /// A transformation process (`P`): an analyser, sanitiser, statistics generator.
    Process,
    /// An agent (`A`): the owner or manager controlling a process.
    Agent,
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeKind::DataItem => write!(f, "data"),
            NodeKind::Process => write!(f, "process"),
            NodeKind::Agent => write!(f, "agent"),
        }
    }
}

/// The edge relations of the audit graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// Data item → process that read it ("used").
    Used,
    /// Process → data item it produced ("was generated by", drawn from the item's view).
    Generated,
    /// Process → agent controlling it ("controlled by").
    ControlledBy,
    /// Data item → data item it was derived from.
    DerivedFrom,
    /// Data item → data item/entity it flowed to (an information flow edge).
    FlowedTo,
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Relation::Used => "used",
            Relation::Generated => "generated",
            Relation::ControlledBy => "controlled-by",
            Relation::DerivedFrom => "derived-from",
            Relation::FlowedTo => "flowed-to",
        };
        f.write_str(s)
    }
}

/// A node of the provenance graph.
#[derive(Debug, Clone, PartialEq)]
pub struct ProvenanceNode {
    /// The node's id.
    pub id: NodeId,
    /// Data item, process or agent.
    pub kind: NodeKind,
    /// The node's name (unique per kind within a graph).
    pub name: String,
    /// The security context attached to the node, if known.
    pub context: Option<SecurityContext>,
}

/// A directed, labelled edge of the provenance graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProvenanceEdge {
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// The relation the edge asserts.
    pub relation: Relation,
    /// Simulated time at which the relation was recorded.
    pub at_millis: u64,
}

/// The audit graph: data items, processes, agents and their relations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProvenanceGraph {
    nodes: Vec<ProvenanceNode>,
    edges: Vec<ProvenanceEdge>,
    index: BTreeMap<(NodeKind, String), NodeId>,
}

impl ProvenanceGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the node id for `(kind, name)`, creating the node if necessary.
    pub fn node(&mut self, kind: NodeKind, name: impl Into<String>) -> NodeId {
        let name = name.into();
        if let Some(id) = self.index.get(&(kind, name.clone())) {
            return *id;
        }
        let id = NodeId(self.nodes.len() as u64);
        self.nodes.push(ProvenanceNode { id, kind, name: name.clone(), context: None });
        self.index.insert((kind, name), id);
        id
    }

    /// As [`Self::node`], also recording the node's security context.
    fn node_with_context(
        &mut self,
        kind: NodeKind,
        name: impl Into<String>,
        context: SecurityContext,
    ) -> NodeId {
        let id = self.node(kind, name);
        self.nodes[id.0 as usize].context = Some(context);
        id
    }

    /// Adds an edge asserting `relation` from `from` to `to` at the given time.
    fn relate(&mut self, from: NodeId, to: NodeId, relation: Relation, at_millis: u64) {
        self.edges.push(ProvenanceEdge { from, to, relation, at_millis });
    }

    /// Looks up a node by kind and name.
    pub fn find(&self, kind: NodeKind, name: &str) -> Option<&ProvenanceNode> {
        self.index.get(&(kind, name.to_string())).map(|id| &self.nodes[id.0 as usize])
    }

    /// All nodes.
    pub fn nodes(&self) -> &[ProvenanceNode] {
        &self.nodes
    }

    /// All edges.
    pub fn edges(&self) -> &[ProvenanceEdge] {
        &self.edges
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Records a "process `p` (controlled by `agent`) read inputs and generated
    /// `output`" derivation in one call — the shape of Fig. 11.
    pub fn record_derivation(
        &mut self,
        output: &str,
        inputs: &[&str],
        process: &str,
        agent: &str,
        context: SecurityContext,
        at_millis: u64,
    ) -> NodeId {
        let p = self.node(NodeKind::Process, process);
        let a = self.node(NodeKind::Agent, agent);
        self.relate(p, a, Relation::ControlledBy, at_millis);
        let out = self.node_with_context(NodeKind::DataItem, output, context);
        self.relate(p, out, Relation::Generated, at_millis);
        for input in inputs {
            let i = self.node(NodeKind::DataItem, *input);
            self.relate(i, p, Relation::Used, at_millis);
            self.relate(out, i, Relation::DerivedFrom, at_millis);
        }
        out
    }

    /// Builds a graph from an audit log, translating `DataDerived` and allowed
    /// `FlowChecked` events into graph structure.
    pub fn from_log(log: &AuditLog) -> Self {
        let mut g = ProvenanceGraph::new();
        for record in log.records() {
            match &record.event {
                AuditEvent::DataDerived { output, inputs, process, agent, context } => {
                    let input_refs: Vec<&str> = inputs.iter().map(String::as_str).collect();
                    g.record_derivation(
                        output,
                        &input_refs,
                        process,
                        agent,
                        context.clone(),
                        record.at_millis,
                    );
                }
                AuditEvent::FlowChecked {
                    source,
                    destination,
                    decision,
                    data_item,
                    source_context,
                    ..
                } if decision.is_allowed() => {
                    let s = g.node(NodeKind::Process, source);
                    let d = g.node(NodeKind::Process, destination);
                    if let Some(item) = data_item {
                        let i =
                            g.node_with_context(NodeKind::DataItem, item, source_context.clone());
                        g.relate(i, d, Relation::FlowedTo, record.at_millis);
                        g.relate(i, s, Relation::Used, record.at_millis);
                    } else {
                        g.relate(s, d, Relation::FlowedTo, record.at_millis);
                    }
                }
                _ => {}
            }
        }
        g
    }

    fn successors(&self, id: NodeId, relation: Option<Relation>) -> Vec<NodeId> {
        self.edges
            .iter()
            .filter(|e| e.from == id && relation.map_or(true, |r| e.relation == r))
            .map(|e| e.to)
            .collect()
    }

    /// The full ancestry of a data item: every data item it was (transitively) derived
    /// from, oldest relations included.
    pub fn ancestry(&self, item: &str) -> Vec<&ProvenanceNode> {
        let Some(start) = self.index.get(&(NodeKind::DataItem, item.to_string())) else {
            return Vec::new();
        };
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::from([*start]);
        let mut out = Vec::new();
        while let Some(n) = queue.pop_front() {
            for succ in self.successors(n, Some(Relation::DerivedFrom)) {
                if seen.insert(succ) {
                    out.push(&self.nodes[succ.0 as usize]);
                    queue.push_back(succ);
                }
            }
        }
        out
    }

    /// Everywhere a data item (or anything derived from it) has flowed: the taint set.
    /// Returns process/agent/data nodes reachable via `FlowedTo`, `Used` and
    /// `Generated` edges starting from the item.
    pub fn taint(&self, item: &str) -> Vec<&ProvenanceNode> {
        let Some(start) = self.index.get(&(NodeKind::DataItem, item.to_string())) else {
            return Vec::new();
        };
        let mut seen = BTreeSet::from([*start]);
        let mut queue = VecDeque::from([*start]);
        let mut out = Vec::new();
        while let Some(n) = queue.pop_front() {
            for relation in [Relation::FlowedTo, Relation::Used, Relation::Generated] {
                for succ in self.successors(n, Some(relation)) {
                    if seen.insert(succ) {
                        out.push(&self.nodes[succ.0 as usize]);
                        queue.push_back(succ);
                    }
                }
            }
        }
        out
    }

    /// Data items whose recorded security context contains the given secrecy tag —
    /// e.g. "all items tagged `medical`" (Concern 5: making analytics use evident).
    pub fn items_with_secrecy_tag(&self, tag: &Tag) -> Vec<&ProvenanceNode> {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::DataItem)
            .filter(|n| n.context.as_ref().map(|c| c.secrecy().contains(tag)).unwrap_or(false))
            .collect()
    }

    /// The agents controlling any process that used or generated the given item or its
    /// descendants — the candidates for liability apportionment.
    pub fn responsible_agents(&self, item: &str) -> Vec<&ProvenanceNode> {
        let mut agents = BTreeSet::new();
        // Processes in the taint set of the item.
        let tainted: Vec<NodeId> = self
            .taint(item)
            .into_iter()
            .filter(|n| n.kind == NodeKind::Process)
            .map(|n| n.id)
            .collect();
        // Plus the process that generated the item itself.
        let generating: Vec<NodeId> = self
            .edges
            .iter()
            .filter(|e| {
                e.relation == Relation::Generated
                    && self.nodes[e.to.0 as usize].name == item
                    && self.nodes[e.to.0 as usize].kind == NodeKind::DataItem
            })
            .map(|e| e.from)
            .collect();
        for p in tainted.into_iter().chain(generating) {
            for a in self.successors(p, Some(Relation::ControlledBy)) {
                agents.insert(a);
            }
        }
        agents.into_iter().map(|id| &self.nodes[id.0 as usize]).collect()
    }

    /// Whether the derivation sub-graph (`DerivedFrom` edges) is acyclic, which it must
    /// be for any honest history.
    pub fn derivation_is_acyclic(&self) -> bool {
        // Kahn's algorithm over DerivedFrom edges only.
        let mut indegree: BTreeMap<NodeId, usize> = BTreeMap::new();
        let derived_edges: Vec<&ProvenanceEdge> =
            self.edges.iter().filter(|e| e.relation == Relation::DerivedFrom).collect();
        for n in &self.nodes {
            indegree.insert(n.id, 0);
        }
        for e in &derived_edges {
            *indegree.entry(e.to).or_insert(0) += 1;
        }
        let mut queue: VecDeque<NodeId> =
            indegree.iter().filter(|(_, d)| **d == 0).map(|(id, _)| *id).collect();
        let mut visited = 0usize;
        while let Some(n) = queue.pop_front() {
            visited += 1;
            for e in derived_edges.iter().filter(|e| e.from == n) {
                let d = indegree.get_mut(&e.to).expect("node indexed");
                *d -= 1;
                if *d == 0 {
                    queue.push_back(e.to);
                }
            }
        }
        visited == self.nodes.len()
    }

    /// Renders the graph in Graphviz DOT format (standing in for Cytoscape/Neo4J).
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph provenance {\n");
        for n in &self.nodes {
            let shape = match n.kind {
                NodeKind::DataItem => "ellipse",
                NodeKind::Process => "box",
                NodeKind::Agent => "diamond",
            };
            out.push_str(&format!("  {} [label=\"{}\", shape={}];\n", n.id, n.name, shape));
        }
        for e in &self.edges {
            out.push_str(&format!("  {} -> {} [label=\"{}\"];\n", e.from, e.to, e.relation));
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legaliot_ifc::{can_flow, Label};
    use proptest::prelude::*;

    fn medical_ctx(patient: &str) -> SecurityContext {
        SecurityContext::new(
            Label::from_names(["medical", patient]),
            Label::from_names(["hosp-dev", "consent"]),
        )
    }

    /// Builds the Fig. 11-style fragment: F1,F2 used by P1 (controlled by A1) to
    /// generate F3; F3 and F4 used by P2 (controlled by A2) to generate the final item.
    fn fig11_graph() -> ProvenanceGraph {
        let mut g = ProvenanceGraph::new();
        g.record_derivation("f3", &["f1", "f2"], "p1", "a1", medical_ctx("ann"), 10);
        g.record_derivation("f5", &["f3", "f4"], "p2", "a2", medical_ctx("ann"), 20);
        g
    }

    #[test]
    fn derivation_builds_expected_structure() {
        let g = fig11_graph();
        // Nodes: f1..f5 data (5), p1,p2 processes, a1,a2 agents = 9.
        assert_eq!(g.node_count(), 9);
        assert!(g.find(NodeKind::DataItem, "f3").is_some());
        assert!(g.find(NodeKind::Process, "p1").is_some());
        assert!(g.find(NodeKind::Agent, "a2").is_some());
        assert!(g.find(NodeKind::DataItem, "missing").is_none());
        assert!(g.derivation_is_acyclic());
    }

    #[test]
    fn ancestry_is_transitive() {
        let g = fig11_graph();
        let names: BTreeSet<String> =
            g.ancestry("f5").into_iter().map(|n| n.name.clone()).collect();
        assert_eq!(names, BTreeSet::from(["f1".into(), "f2".into(), "f3".into(), "f4".into()]));
        assert!(g.ancestry("f1").is_empty());
        assert!(g.ancestry("unknown").is_empty());
    }

    #[test]
    fn taint_reaches_downstream_processes() {
        let g = fig11_graph();
        let taint: BTreeSet<String> = g.taint("f1").into_iter().map(|n| n.name.clone()).collect();
        // f1 was used by p1 which generated f3, which was used by p2 generating f5.
        assert!(taint.contains("p1"));
        assert!(taint.contains("f3"));
        assert!(taint.contains("p2"));
        assert!(taint.contains("f5"));
        assert!(!taint.contains("f2"));
    }

    #[test]
    fn responsible_agents_for_leak_investigation() {
        let g = fig11_graph();
        let agents: Vec<String> =
            g.responsible_agents("f3").into_iter().map(|n| n.name.clone()).collect();
        // f3 was generated by p1 (a1) and used by p2 (a2): both are in scope.
        assert_eq!(agents, vec!["a1".to_string(), "a2".to_string()]);
    }

    #[test]
    fn items_with_tag_query() {
        let mut g = fig11_graph();
        g.node_with_context(NodeKind::DataItem, "public-stat", SecurityContext::public());
        let medical = g.items_with_secrecy_tag(&Tag::new("medical"));
        let names: Vec<&str> = medical.iter().map(|n| n.name.as_str()).collect();
        assert!(names.contains(&"f3"));
        assert!(names.contains(&"f5"));
        assert!(!names.contains(&"public-stat"));
        // f1 has no recorded context, so it is not reported.
        assert!(!names.contains(&"f1"));
    }

    #[test]
    fn from_log_translates_events() {
        let mut log = AuditLog::new("node");
        let ctx = medical_ctx("ann");
        log.record(
            AuditEvent::DataDerived {
                output: "analysis".into(),
                inputs: vec!["reading-1".into()],
                process: "analyser".into(),
                agent: "hospital".into(),
                context: ctx.clone(),
            },
            5,
        );
        log.record(
            AuditEvent::FlowChecked {
                source: "sensor".into(),
                destination: "analyser".into(),
                source_context: ctx.clone(),
                destination_context: ctx.clone(),
                decision: can_flow(&ctx, &ctx),
                data_item: Some("reading-1".into()),
            },
            6,
        );
        // A denied flow leaves no provenance edge.
        log.record(
            AuditEvent::FlowChecked {
                source: "sensor".into(),
                destination: "public".into(),
                source_context: ctx.clone(),
                destination_context: SecurityContext::public(),
                decision: can_flow(&ctx, &SecurityContext::public()),
                data_item: Some("reading-1".into()),
            },
            7,
        );
        let g = ProvenanceGraph::from_log(&log);
        assert!(g.find(NodeKind::DataItem, "analysis").is_some());
        assert!(g.find(NodeKind::Process, "sensor").is_some());
        assert!(g.find(NodeKind::Process, "public").is_none());
        let taint: Vec<String> = g.taint("reading-1").into_iter().map(|n| n.name.clone()).collect();
        assert!(taint.contains(&"analyser".to_string()));
        assert!(!taint.contains(&"public".to_string()));
    }

    #[test]
    fn dot_export_contains_nodes_and_edges() {
        let g = fig11_graph();
        let dot = g.to_dot();
        assert!(dot.starts_with("digraph provenance {"));
        assert!(dot.contains("label=\"f3\""));
        assert!(dot.contains("shape=diamond"));
        assert!(dot.contains("derived-from"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn node_reuse_by_name() {
        let mut g = ProvenanceGraph::new();
        let a = g.node(NodeKind::Process, "p");
        let b = g.node(NodeKind::Process, "p");
        let c = g.node(NodeKind::DataItem, "p");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(g.node_count(), 2);
    }

    #[test]
    fn displays() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(NodeKind::DataItem.to_string(), "data");
        assert_eq!(Relation::ControlledBy.to_string(), "controlled-by");
    }

    proptest! {
        /// Derivation chains built left-to-right are always acyclic, and the last item's
        /// ancestry contains every earlier item.
        #[test]
        fn prop_chain_derivations_acyclic(n in 2usize..12) {
            let mut g = ProvenanceGraph::new();
            for i in 1..n {
                let output = format!("d{i}");
                let input = format!("d{}", i - 1);
                g.record_derivation(&output, &[&input], "proc", "agent", SecurityContext::public(), i as u64);
            }
            prop_assert!(g.derivation_is_acyclic());
            let last = format!("d{}", n - 1);
            let ancestry = g.ancestry(&last);
            prop_assert_eq!(ancestry.len(), n - 1);
        }

        /// Taint of the first item in a chain includes every later derived item.
        #[test]
        fn prop_taint_propagates(n in 2usize..10) {
            let mut g = ProvenanceGraph::new();
            for i in 1..n {
                let output = format!("d{i}");
                let input = format!("d{}", i - 1);
                g.record_derivation(&output, &[&input], &format!("p{i}"), "agent", SecurityContext::public(), i as u64);
            }
            let taint: BTreeSet<String> = g.taint("d0").into_iter().map(|x| x.name.clone()).collect();
            for i in 1..n {
                let name = format!("d{i}");
                prop_assert!(taint.contains(&name));
            }
        }
    }
}
