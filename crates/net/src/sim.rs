//! The network simulator: nodes, domains, links, gateways and message delivery.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// Identifier of a node in the simulated network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// The role a node plays in the IoT architecture (§2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A constrained device: sensor or actuator.
    Device,
    /// A gateway/hub fronting a subsystem (§2.1).
    Gateway,
    /// A cloud or edge service node (§2.2).
    Cloud,
    /// A user-facing endpoint (phone, workstation).
    Endpoint,
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NodeKind::Device => "device",
            NodeKind::Gateway => "gateway",
            NodeKind::Cloud => "cloud",
            NodeKind::Endpoint => "endpoint",
        };
        f.write_str(s)
    }
}

/// An administrative domain: a set of nodes under one party's management, optionally
/// fronted by a gateway (subsystems behind firewalls, proprietary sensor networks,
/// workplaces — §2.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdminDomain {
    /// The domain's name (e.g. `hospital`, `ann-home`, `city-council`).
    pub name: String,
    /// Nodes belonging to the domain.
    pub members: BTreeSet<NodeId>,
    /// The gateway node through which external traffic must pass, if the domain is a
    /// closed subsystem.
    pub gateway: Option<NodeId>,
}

/// Static information about a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeInfo {
    /// The node's id.
    pub id: NodeId,
    /// The node's name (unique in the network).
    pub name: String,
    /// Its architectural role.
    pub kind: NodeKind,
    /// The administrative domain it belongs to.
    pub domain: String,
    /// Whether the node is currently up.
    pub up: bool,
}

/// A directed link between two nodes with a latency in simulated milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// One-way latency in milliseconds.
    pub latency_millis: u64,
}

/// A message in flight or delivered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Wire {
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Opaque payload (the middleware layers its typed messages on top).
    pub payload: Arc<[u8]>,
    /// Simulated send time.
    pub sent_at_millis: u64,
    /// Simulated delivery time.
    pub deliver_at_millis: u64,
}

/// A delivered message as seen by the receiving node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// The sender.
    pub from: NodeId,
    /// The payload.
    pub payload: Arc<[u8]>,
    /// When it was delivered (simulated time).
    pub at_millis: u64,
}

/// Errors raised by the network simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The referenced node does not exist.
    UnknownNode {
        /// The offending id.
        id: NodeId,
    },
    /// There is no (transitive) route between the two nodes.
    NoRoute {
        /// Source node.
        from: NodeId,
        /// Destination node.
        to: NodeId,
    },
    /// The source or destination node is down.
    NodeDown {
        /// The node that is down.
        id: NodeId,
    },
    /// A node with this name already exists.
    DuplicateName {
        /// The duplicate name.
        name: String,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::UnknownNode { id } => write!(f, "unknown node {id}"),
            NetError::NoRoute { from, to } => write!(f, "no route from {from} to {to}"),
            NetError::NodeDown { id } => write!(f, "node {id} is down"),
            NetError::DuplicateName { name } => write!(f, "a node named `{name}` already exists"),
        }
    }
}

impl std::error::Error for NetError {}

/// The simulated network: topology plus an event queue of in-flight messages, advanced
/// by an explicit simulated clock.
#[derive(Debug, Default)]
pub struct Network {
    nodes: Vec<NodeInfo>,
    names: BTreeMap<String, NodeId>,
    links: Vec<Link>,
    domains: BTreeMap<String, AdminDomain>,
    in_flight: Vec<Wire>,
    mailboxes: BTreeMap<NodeId, Vec<Delivery>>,
    now_millis: u64,
    /// Count of messages delivered so far (for benchmarks).
    delivered_count: u64,
}

impl Network {
    /// Creates an empty network at simulated time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current simulated time in milliseconds.
    pub fn now_millis(&self) -> u64 {
        self.now_millis
    }

    /// Adds a node to a domain, creating the domain if needed.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::DuplicateName`] if a node with this name exists already.
    pub fn add_node(
        &mut self,
        name: impl Into<String>,
        kind: NodeKind,
        domain: impl Into<String>,
    ) -> Result<NodeId, NetError> {
        let name = name.into();
        if self.names.contains_key(&name) {
            return Err(NetError::DuplicateName { name });
        }
        let id = NodeId(self.nodes.len() as u32);
        let domain = domain.into();
        self.nodes.push(NodeInfo {
            id,
            name: name.clone(),
            kind,
            domain: domain.clone(),
            up: true,
        });
        self.names.insert(name, id);
        self.mailboxes.insert(id, Vec::new());
        let entry = self.domains.entry(domain.clone()).or_insert(AdminDomain {
            name: domain,
            members: BTreeSet::new(),
            gateway: None,
        });
        entry.members.insert(id);
        if kind == NodeKind::Gateway && entry.gateway.is_none() {
            entry.gateway = Some(id);
        }
        Ok(id)
    }

    /// Adds a bidirectional link between two nodes.
    pub fn link(&mut self, a: NodeId, b: NodeId, latency_millis: u64) -> Result<(), NetError> {
        self.check_node(a)?;
        self.check_node(b)?;
        self.links.push(Link { from: a, to: b, latency_millis });
        self.links.push(Link { from: b, to: a, latency_millis });
        Ok(())
    }

    fn check_node(&self, id: NodeId) -> Result<&NodeInfo, NetError> {
        self.nodes.get(id.0 as usize).ok_or(NetError::UnknownNode { id })
    }

    /// Looks up a node id by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.names.get(name).copied()
    }

    /// Node info by id.
    pub fn node(&self, id: NodeId) -> Option<&NodeInfo> {
        self.nodes.get(id.0 as usize)
    }

    /// All nodes.
    pub fn nodes(&self) -> &[NodeInfo] {
        &self.nodes
    }

    /// The administrative domains.
    pub fn domains(&self) -> impl Iterator<Item = &AdminDomain> + '_ {
        self.domains.values()
    }

    /// The domain a node belongs to.
    pub fn domain_of(&self, id: NodeId) -> Option<&AdminDomain> {
        self.node(id).and_then(|n| self.domains.get(&n.domain))
    }

    /// Whether two nodes are in the same administrative domain.
    pub fn same_domain(&self, a: NodeId, b: NodeId) -> bool {
        match (self.node(a), self.node(b)) {
            (Some(na), Some(nb)) => na.domain == nb.domain,
            _ => false,
        }
    }

    /// Marks a node as down (crash) or up (recovery).
    pub fn set_node_up(&mut self, id: NodeId, up: bool) -> Result<(), NetError> {
        self.check_node(id)?;
        self.nodes[id.0 as usize].up = up;
        Ok(())
    }

    /// Total messages delivered since the start of the simulation.
    pub fn delivered_count(&self) -> u64 {
        self.delivered_count
    }

    /// Computes the shortest-latency route between two nodes (Dijkstra over link
    /// latencies), returning total latency. Only nodes that are up are traversed.
    pub fn route_latency(&self, from: NodeId, to: NodeId) -> Result<u64, NetError> {
        let from_info = self.check_node(from)?;
        let to_info = self.check_node(to)?;
        if !from_info.up {
            return Err(NetError::NodeDown { id: from });
        }
        if !to_info.up {
            return Err(NetError::NodeDown { id: to });
        }
        let mut dist: BTreeMap<NodeId, u64> = BTreeMap::new();
        dist.insert(from, 0);
        let mut frontier: BTreeSet<(u64, NodeId)> = BTreeSet::new();
        frontier.insert((0, from));
        while let Some((d, n)) = frontier.iter().next().copied() {
            frontier.remove(&(d, n));
            if n == to {
                return Ok(d);
            }
            for link in self.links.iter().filter(|l| l.from == n) {
                let target = self.node(link.to).expect("link target exists");
                if !target.up {
                    continue;
                }
                let nd = d + link.latency_millis;
                if dist.get(&link.to).map_or(true, |old| nd < *old) {
                    if let Some(old) = dist.insert(link.to, nd) {
                        frontier.remove(&(old, link.to));
                    }
                    frontier.insert((nd, link.to));
                }
            }
        }
        Err(NetError::NoRoute { from, to })
    }

    /// Sends a payload from one node to another; it will be delivered after the routed
    /// latency when the clock advances far enough.
    pub fn send(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload: impl Into<Arc<[u8]>>,
    ) -> Result<(), NetError> {
        let latency = self.route_latency(from, to)?;
        let wire = Wire {
            from,
            to,
            payload: payload.into(),
            sent_at_millis: self.now_millis,
            deliver_at_millis: self.now_millis + latency,
        };
        self.in_flight.push(wire);
        Ok(())
    }

    /// Advances simulated time by `millis`, delivering every in-flight message whose
    /// delivery time has arrived (to nodes that are still up) in arrival order, send
    /// order breaking ties. Returns the number of messages delivered on this tick.
    pub fn advance(&mut self, millis: u64) -> usize {
        self.now_millis += millis;
        let now = self.now_millis;
        let (mut due, remaining): (Vec<Wire>, Vec<Wire>) = std::mem::take(&mut self.in_flight)
            .into_iter()
            .partition(|wire| wire.deliver_at_millis <= now);
        self.in_flight = remaining;
        // Stable: messages arriving at the same instant keep their send order.
        due.sort_by_key(|wire| wire.deliver_at_millis);
        let mut delivered = 0;
        for wire in due {
            let up = self.node(wire.to).map(|n| n.up).unwrap_or(false);
            // Messages to downed nodes are dropped (the middleware retries).
            if up {
                self.mailboxes.entry(wire.to).or_default().push(Delivery {
                    from: wire.from,
                    payload: wire.payload,
                    at_millis: wire.deliver_at_millis,
                });
                delivered += 1;
                self.delivered_count += 1;
            }
        }
        delivered
    }

    /// Drains the mailbox of a node.
    pub fn receive(&mut self, node: NodeId) -> Vec<Delivery> {
        self.mailboxes.get_mut(&node).map(std::mem::take).unwrap_or_default()
    }

    /// Number of messages currently in flight.
    pub fn in_flight_count(&self) -> usize {
        self.in_flight.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small_network() -> (Network, NodeId, NodeId, NodeId) {
        let mut net = Network::new();
        let sensor = net.add_node("ann-sensor", NodeKind::Device, "ann-home").unwrap();
        let gateway = net.add_node("ann-gateway", NodeKind::Gateway, "ann-home").unwrap();
        let cloud = net.add_node("hospital-cloud", NodeKind::Cloud, "hospital").unwrap();
        net.link(sensor, gateway, 5).unwrap();
        net.link(gateway, cloud, 20).unwrap();
        (net, sensor, gateway, cloud)
    }

    #[test]
    fn add_nodes_and_domains() {
        let (net, sensor, gateway, cloud) = small_network();
        assert_eq!(net.nodes().len(), 3);
        assert_eq!(net.node_by_name("ann-sensor"), Some(sensor));
        assert!(net.same_domain(sensor, gateway));
        assert!(!net.same_domain(sensor, cloud));
        let home = net.domain_of(sensor).unwrap();
        assert_eq!(home.gateway, Some(gateway));
        assert_eq!(home.members.len(), 2);
        assert_eq!(net.domains().count(), 2);
        assert_eq!(net.node(sensor).unwrap().kind, NodeKind::Device);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut net = Network::new();
        net.add_node("a", NodeKind::Device, "d").unwrap();
        let err = net.add_node("a", NodeKind::Cloud, "d").unwrap_err();
        assert!(matches!(err, NetError::DuplicateName { .. }));
    }

    #[test]
    fn routing_uses_shortest_latency() {
        let (mut net, sensor, gateway, cloud) = small_network();
        assert_eq!(net.route_latency(sensor, cloud).unwrap(), 25);
        assert_eq!(net.route_latency(sensor, gateway).unwrap(), 5);
        assert_eq!(net.route_latency(sensor, sensor).unwrap(), 0);
        // Add a faster direct path; routing should prefer it.
        net.link(sensor, cloud, 10).unwrap();
        assert_eq!(net.route_latency(sensor, cloud).unwrap(), 10);
    }

    #[test]
    fn unreachable_and_down_nodes() {
        let mut net = Network::new();
        let a = net.add_node("a", NodeKind::Device, "d1").unwrap();
        let b = net.add_node("b", NodeKind::Device, "d2").unwrap();
        assert!(matches!(net.route_latency(a, b), Err(NetError::NoRoute { .. })));
        net.link(a, b, 1).unwrap();
        assert!(net.route_latency(a, b).is_ok());
        net.set_node_up(b, false).unwrap();
        assert!(matches!(net.route_latency(a, b), Err(NetError::NodeDown { .. })));
        assert!(matches!(net.route_latency(NodeId(99), a), Err(NetError::UnknownNode { .. })));
    }

    #[test]
    fn send_and_deliver_respects_latency() {
        let (mut net, sensor, _gateway, cloud) = small_network();
        net.send(sensor, cloud, &b"reading"[..]).unwrap();
        assert_eq!(net.in_flight_count(), 1);
        // Not delivered before the 25ms route latency has elapsed.
        assert_eq!(net.advance(10), 0);
        assert!(net.receive(cloud).is_empty());
        assert_eq!(net.advance(20), 1);
        let inbox = net.receive(cloud);
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].from, sensor);
        assert_eq!(&inbox[0].payload[..], b"reading");
        assert_eq!(inbox[0].at_millis, 25);
        assert_eq!(net.delivered_count(), 1);
        // Mailbox is drained.
        assert!(net.receive(cloud).is_empty());
    }

    #[test]
    fn one_tick_delivers_in_arrival_order_not_send_order() {
        let mut net = Network::new();
        let a = net.add_node("a", NodeKind::Device, "d").unwrap();
        let b = net.add_node("b", NodeKind::Device, "d").unwrap();
        let c = net.add_node("c", NodeKind::Cloud, "d").unwrap();
        net.link(a, c, 15).unwrap();
        net.link(b, c, 5).unwrap();
        net.send(a, c, &b"slow"[..]).unwrap();
        net.send(b, c, &b"fast-1"[..]).unwrap();
        net.send(b, c, &b"fast-2"[..]).unwrap();
        assert_eq!(net.advance(20), 3);
        let inbox = net.receive(c);
        let seen: Vec<(u64, &[u8])> = inbox.iter().map(|d| (d.at_millis, &d.payload[..])).collect();
        // Equal arrival times keep their send order.
        assert_eq!(seen, [(5, &b"fast-1"[..]), (5, &b"fast-2"[..]), (15, &b"slow"[..])]);
    }

    #[test]
    fn delivered_payload_is_the_senders_buffer() {
        let (mut net, sensor, _gateway, cloud) = small_network();
        let payload: Arc<[u8]> = Arc::from(&b"reading"[..]);
        net.send(sensor, cloud, Arc::clone(&payload)).unwrap();
        net.advance(25);
        let inbox = net.receive(cloud);
        assert!(Arc::ptr_eq(&inbox[0].payload, &payload));
    }

    #[test]
    fn messages_to_downed_nodes_are_dropped() {
        let (mut net, sensor, _gateway, cloud) = small_network();
        net.send(sensor, cloud, &b"x"[..]).unwrap();
        net.set_node_up(cloud, false).unwrap();
        assert_eq!(net.advance(100), 0);
        net.set_node_up(cloud, true).unwrap();
        assert!(net.receive(cloud).is_empty());
        assert_eq!(net.delivered_count(), 0);
    }

    #[test]
    fn route_through_gateway_is_transitive() {
        // Devices in a closed subsystem reach the cloud only via the gateway.
        let (net, sensor, gateway, cloud) = small_network();
        let via_gateway = net.route_latency(sensor, gateway).unwrap()
            + net.route_latency(gateway, cloud).unwrap();
        assert_eq!(net.route_latency(sensor, cloud).unwrap(), via_gateway);
    }

    #[test]
    fn error_display() {
        assert!(NetError::UnknownNode { id: NodeId(3) }.to_string().contains("node3"));
        assert!(NetError::NoRoute { from: NodeId(0), to: NodeId(1) }
            .to_string()
            .contains("no route"));
        assert!(NetError::NodeDown { id: NodeId(2) }.to_string().contains("down"));
        assert!(NetError::DuplicateName { name: "x".into() }.to_string().contains("x"));
        assert_eq!(NodeKind::Gateway.to_string(), "gateway");
    }

    proptest! {
        /// Every sent message is delivered exactly once, in arrival order, after enough
        /// time passes (all nodes up, connected line topology, two senders at different
        /// distances from the receiver).
        #[test]
        fn prop_all_messages_delivered(
            count in 1usize..30,
            far in 1u64..20,
            near in 1u64..20,
        ) {
            let mut net = Network::new();
            let a = net.add_node("a", NodeKind::Device, "d").unwrap();
            let b = net.add_node("b", NodeKind::Gateway, "d").unwrap();
            let c = net.add_node("c", NodeKind::Cloud, "d").unwrap();
            net.link(a, b, far).unwrap();
            net.link(b, c, near).unwrap();
            for i in 0..count {
                let from = if i % 2 == 0 { a } else { b };
                net.send(from, c, vec![i as u8]).unwrap();
            }
            net.advance(far + near + 1);
            let inbox = net.receive(c);
            prop_assert_eq!(inbox.len(), count);
            prop_assert_eq!(net.in_flight_count(), 0);
            prop_assert!(inbox.windows(2).all(|pair| pair[0].at_millis <= pair[1].at_millis));
            for node in [a, b] {
                prop_assert!(net.receive(node).is_empty());
            }
        }

        /// Route latency is symmetric for symmetric topologies.
        #[test]
        fn prop_symmetric_routing(lat1 in 1u64..50, lat2 in 1u64..50) {
            let mut net = Network::new();
            let a = net.add_node("a", NodeKind::Device, "d").unwrap();
            let g = net.add_node("g", NodeKind::Gateway, "d").unwrap();
            let c = net.add_node("c", NodeKind::Cloud, "e").unwrap();
            net.link(a, g, lat1).unwrap();
            net.link(g, c, lat2).unwrap();
            prop_assert_eq!(
                net.route_latency(a, c).unwrap(),
                net.route_latency(c, a).unwrap()
            );
        }
    }
}
