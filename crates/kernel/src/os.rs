//! The simulated OS: processes, kernel objects and IFC-mediated system calls.

use std::collections::BTreeMap;
use std::fmt;

use legaliot_audit::{AuditEvent, AuditLog, BatchedAppender};
use legaliot_ifc::{
    Entity, EntityKind, FlowDecision, IfcError, PrivilegeKind, SecurityContext, Tag,
};

use crate::lsm::{EnforcementMode, HookStats, LsmHooks};

/// Identifier of a process within one simulated OS instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(pub u32);

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

/// Identifier of a kernel object (file, pipe, socket, shared memory segment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KernelObjectId(pub u32);

impl fmt::Display for KernelObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj{}", self.0)
    }
}

/// The kinds of kernel object the simulator models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectKind {
    /// A regular file.
    File,
    /// A pipe between processes.
    Pipe,
    /// A network socket endpoint (hand-off point to the messaging substrate, Fig. 9).
    Socket,
    /// A shared-memory segment.
    SharedMemory,
}

impl fmt::Display for ObjectKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ObjectKind::File => "file",
            ObjectKind::Pipe => "pipe",
            ObjectKind::Socket => "socket",
            ObjectKind::SharedMemory => "shm",
        };
        f.write_str(s)
    }
}

/// Errors raised by the simulated OS API (distinct from flow denials, which are
/// [`SyscallOutcome::Refused`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// The referenced process does not exist.
    UnknownProcess {
        /// The offending pid.
        pid: ProcessId,
    },
    /// The referenced kernel object does not exist.
    UnknownObject {
        /// The offending object id.
        object: KernelObjectId,
    },
    /// An IFC privilege error (e.g. label change without privilege).
    Ifc(IfcError),
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::UnknownProcess { pid } => write!(f, "unknown process {pid}"),
            KernelError::UnknownObject { object } => write!(f, "unknown kernel object {object}"),
            KernelError::Ifc(e) => write!(f, "ifc error: {e}"),
        }
    }
}

impl std::error::Error for KernelError {}

impl From<IfcError> for KernelError {
    fn from(value: IfcError) -> Self {
        KernelError::Ifc(value)
    }
}

/// The outcome of an IFC-mediated system call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyscallOutcome {
    /// The call proceeded.
    Completed,
    /// The call was refused by the enforcement hook; carries the flow decision.
    Refused(FlowDecision),
}

impl SyscallOutcome {
    /// Whether the call proceeded.
    pub fn is_completed(&self) -> bool {
        matches!(self, SyscallOutcome::Completed)
    }
}

#[derive(Debug, Clone)]
struct Process {
    entity: Entity,
}

#[derive(Debug, Clone)]
struct KernelObject {
    entity: Entity,
    kind: ObjectKind,
}

/// One simulated OS instance with CamFlow-style enforcement.
///
/// ```
/// use legaliot_kernel::{Os, EnforcementMode, ObjectKind};
/// use legaliot_ifc::{SecurityContext, Tag, PrivilegeKind};
///
/// let mut os = Os::new("cloud-node-1", EnforcementMode::Enforce);
/// let analyser = os.spawn("analyser", SecurityContext::from_names(["medical"], Vec::<&str>::new()));
/// let file = os.create_object(analyser, "patient-db", ObjectKind::File).unwrap();
/// // The analyser can write to the file it created (same security context)...
/// assert!(os.write(analyser, file, 100).unwrap().is_completed());
/// // ...and an unlabelled process cannot read it back.
/// let curious = os.spawn("curious", SecurityContext::public());
/// assert!(!os.read(curious, file, 110).unwrap().is_completed());
/// ```
#[derive(Debug)]
pub struct Os {
    name: String,
    hooks: LsmHooks,
    processes: BTreeMap<ProcessId, Process>,
    objects: BTreeMap<KernelObjectId, KernelObject>,
    next_pid: u32,
    next_oid: u32,
    audit: BatchedAppender,
}

impl Os {
    /// Creates an OS instance with the given enforcement mode.
    pub fn new(name: impl Into<String>, mode: EnforcementMode) -> Self {
        let name = name.into();
        Os {
            audit: BatchedAppender::new(format!("os:{name}"), 1),
            name,
            hooks: LsmHooks::new(mode),
            processes: BTreeMap::new(),
            objects: BTreeMap::new(),
            next_pid: 1,
            next_oid: 1,
        }
    }

    /// The OS instance's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The enforcement hook statistics (experiment E12).
    pub fn hook_stats(&self) -> HookStats {
        self.hooks.stats()
    }

    /// Switches enforcement mode (trusted operation).
    pub fn set_enforcement_mode(&mut self, mode: EnforcementMode) {
        self.hooks.set_mode(mode);
    }

    /// Takes the audit records written since the last take (offload to the
    /// middleware/auditor). The trail goes on: the next log taken is anchored on this
    /// one's head and continues its ids, so the logs taken in turn verify as one chain.
    pub fn take_audit(&mut self) -> AuditLog {
        self.audit.close()
    }

    /// Spawns a process with the given security context.
    pub fn spawn(&mut self, name: impl Into<String>, context: SecurityContext) -> ProcessId {
        let pid = ProcessId(self.next_pid);
        self.next_pid += 1;
        self.processes.insert(pid, Process { entity: Entity::active(name, context) });
        pid
    }

    /// Forks a process: the child inherits the parent's security context but none of
    /// its privileges (creation flow, §6).
    pub fn fork(
        &mut self,
        parent: ProcessId,
        child_name: impl Into<String>,
    ) -> Result<ProcessId, KernelError> {
        let parent_entity =
            &self.processes.get(&parent).ok_or(KernelError::UnknownProcess { pid: parent })?.entity;
        let child_entity = parent_entity.create_child(child_name, EntityKind::Active);
        let pid = ProcessId(self.next_pid);
        self.next_pid += 1;
        self.processes.insert(pid, Process { entity: child_entity });
        Ok(pid)
    }

    /// Grants a label-change privilege to a process (performed by the application
    /// manager / tag owner via trusted middleware, §8.2.1).
    pub fn grant_privilege(
        &mut self,
        pid: ProcessId,
        tag: Tag,
        kind: PrivilegeKind,
    ) -> Result<(), KernelError> {
        let process = self.processes.get_mut(&pid).ok_or(KernelError::UnknownProcess { pid })?;
        process.entity.privileges_mut().grant(tag, kind);
        Ok(())
    }

    /// A process changes its own security context using its privileges
    /// (declassification / endorsement).
    pub fn change_label(
        &mut self,
        pid: ProcessId,
        add_secrecy: &[Tag],
        remove_secrecy: &[Tag],
        add_integrity: &[Tag],
        remove_integrity: &[Tag],
        at_millis: u64,
    ) -> Result<(), KernelError> {
        let process = self.processes.get_mut(&pid).ok_or(KernelError::UnknownProcess { pid })?;
        let before = process.entity.context().clone();
        for t in add_secrecy {
            process.entity.add_secrecy_tag(t.clone())?;
        }
        for t in remove_secrecy {
            process.entity.remove_secrecy_tag(t)?;
        }
        for t in add_integrity {
            process.entity.add_integrity_tag(t.clone())?;
        }
        for t in remove_integrity {
            process.entity.remove_integrity_tag(t)?;
        }
        let after = process.entity.context().clone();
        let entity_name = process.entity.name().to_string();
        self.audit.append(
            AuditEvent::LabelChanged { entity: entity_name, before, after, algorithm: None },
            at_millis,
        );
        Ok(())
    }

    /// The current security context of a process.
    pub fn process_context(&self, pid: ProcessId) -> Result<&SecurityContext, KernelError> {
        self.processes
            .get(&pid)
            .map(|p| p.entity.context())
            .ok_or(KernelError::UnknownProcess { pid })
    }

    /// The current security context of a kernel object.
    pub fn object_context(&self, object: KernelObjectId) -> Result<&SecurityContext, KernelError> {
        self.objects
            .get(&object)
            .map(|o| o.entity.context())
            .ok_or(KernelError::UnknownObject { object })
    }

    /// Creates a kernel object owned by `creator`; the object inherits the creator's
    /// security context (creation flow).
    pub fn create_object(
        &mut self,
        creator: ProcessId,
        name: impl Into<String>,
        kind: ObjectKind,
    ) -> Result<KernelObjectId, KernelError> {
        let creator_entity = &self
            .processes
            .get(&creator)
            .ok_or(KernelError::UnknownProcess { pid: creator })?
            .entity;
        let entity = creator_entity.create_child(name, EntityKind::Passive);
        let oid = KernelObjectId(self.next_oid);
        self.next_oid += 1;
        self.objects.insert(oid, KernelObject { entity, kind });
        Ok(oid)
    }

    fn flow_checked(
        &mut self,
        source_name: String,
        source_ctx: SecurityContext,
        dest_name: String,
        dest_ctx: SecurityContext,
        data_item: Option<String>,
        at_millis: u64,
    ) -> SyscallOutcome {
        let (decision, permitted) = self.hooks.check_flow(&source_ctx, &dest_ctx);
        if self.hooks.mode() != EnforcementMode::Disabled {
            self.audit.append(
                AuditEvent::FlowChecked {
                    source: source_name,
                    destination: dest_name,
                    source_context: source_ctx,
                    destination_context: dest_ctx,
                    decision: decision.clone(),
                    data_item,
                },
                at_millis,
            );
        }
        if permitted {
            SyscallOutcome::Completed
        } else {
            SyscallOutcome::Refused(decision)
        }
    }

    /// `write(pid, object)`: information flows from the process to the object.
    pub fn write(
        &mut self,
        pid: ProcessId,
        object: KernelObjectId,
        at_millis: u64,
    ) -> Result<SyscallOutcome, KernelError> {
        let (pname, pctx) = {
            let p = self.processes.get(&pid).ok_or(KernelError::UnknownProcess { pid })?;
            (p.entity.name().to_string(), p.entity.context().clone())
        };
        let (oname, octx) = {
            let o = self.objects.get(&object).ok_or(KernelError::UnknownObject { object })?;
            (o.entity.name().to_string(), o.entity.context().clone())
        };
        Ok(self.flow_checked(pname, pctx, oname.clone(), octx, Some(oname), at_millis))
    }

    /// `read(pid, object)`: information flows from the object to the process.
    pub fn read(
        &mut self,
        pid: ProcessId,
        object: KernelObjectId,
        at_millis: u64,
    ) -> Result<SyscallOutcome, KernelError> {
        let (pname, pctx) = {
            let p = self.processes.get(&pid).ok_or(KernelError::UnknownProcess { pid })?;
            (p.entity.name().to_string(), p.entity.context().clone())
        };
        let (oname, octx) = {
            let o = self.objects.get(&object).ok_or(KernelError::UnknownObject { object })?;
            (o.entity.name().to_string(), o.entity.context().clone())
        };
        Ok(self.flow_checked(oname.clone(), octx, pname, pctx, Some(oname), at_millis))
    }

    /// Inter-process communication: information flows from `from` to `to` (pipe write +
    /// read collapsed into one mediated flow).
    pub fn ipc(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        at_millis: u64,
    ) -> Result<SyscallOutcome, KernelError> {
        let (fname, fctx) = {
            let p = self.processes.get(&from).ok_or(KernelError::UnknownProcess { pid: from })?;
            (p.entity.name().to_string(), p.entity.context().clone())
        };
        let (tname, tctx) = {
            let p = self.processes.get(&to).ok_or(KernelError::UnknownProcess { pid: to })?;
            (p.entity.name().to_string(), p.entity.context().clone())
        };
        Ok(self.flow_checked(fname, fctx, tname, tctx, None, at_millis))
    }

    /// The kind of a kernel object.
    pub fn object_kind(&self, object: KernelObjectId) -> Result<ObjectKind, KernelError> {
        self.objects.get(&object).map(|o| o.kind).ok_or(KernelError::UnknownObject { object })
    }

    /// Number of processes.
    pub fn process_count(&self) -> usize {
        self.processes.len()
    }

    /// Number of kernel objects.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn medical_ctx() -> SecurityContext {
        SecurityContext::from_names(["medical", "ann"], ["hosp-dev"])
    }

    #[test]
    fn created_objects_inherit_context() {
        let mut os = Os::new("node", EnforcementMode::Enforce);
        let p = os.spawn("analyser", medical_ctx());
        let f = os.create_object(p, "db", ObjectKind::File).unwrap();
        assert_eq!(os.object_context(f).unwrap(), &medical_ctx());
        assert_eq!(os.object_kind(f).unwrap(), ObjectKind::File);
        assert_eq!(os.process_count(), 1);
        assert_eq!(os.object_count(), 1);
    }

    #[test]
    fn fork_inherits_context_without_privileges() {
        let mut os = Os::new("node", EnforcementMode::Enforce);
        let parent = os.spawn("parent", medical_ctx());
        os.grant_privilege(parent, Tag::new("ann"), PrivilegeKind::SecrecyRemove).unwrap();
        let child = os.fork(parent, "child").unwrap();
        assert_eq!(os.process_context(child).unwrap(), &medical_ctx());
        // The child cannot declassify: privileges were not inherited.
        let err = os.change_label(child, &[], &[Tag::new("ann")], &[], &[], 0).unwrap_err();
        assert!(matches!(err, KernelError::Ifc(_)));
        // The parent can.
        os.change_label(parent, &[], &[Tag::new("ann")], &[], &[], 0).unwrap();
        assert!(!os.process_context(parent).unwrap().secrecy().contains_name("ann"));
    }

    #[test]
    fn write_and_read_enforce_flow_rule() {
        let mut os = Os::new("node", EnforcementMode::Enforce);
        let analyser = os.spawn("analyser", medical_ctx());
        let file = os.create_object(analyser, "db", ObjectKind::File).unwrap();
        assert!(os.write(analyser, file, 1).unwrap().is_completed());
        assert!(os.read(analyser, file, 2).unwrap().is_completed());

        let curious = os.spawn("curious", SecurityContext::public());
        // Reading secret data into a public process is refused.
        let outcome = os.read(curious, file, 3).unwrap();
        assert!(matches!(outcome, SyscallOutcome::Refused(FlowDecision::Denied(_))));
        // Writing from a public process into the medical file fails the integrity check
        // (the file requires hosp-dev integrity).
        let outcome = os.write(curious, file, 4).unwrap();
        assert!(!outcome.is_completed());
        // All four checks were audited.
        let audit = os.take_audit();
        assert_eq!(audit.len(), 4);
        assert_eq!(audit.denied_flows().count(), 2);
    }

    #[test]
    fn ipc_between_same_domain_processes() {
        let mut os = Os::new("node", EnforcementMode::Enforce);
        let a = os.spawn("a", medical_ctx());
        let b = os.spawn("b", medical_ctx());
        let public = os.spawn("p", SecurityContext::public());
        assert!(os.ipc(a, b, 1).unwrap().is_completed());
        // Medical data must not reach the public process (secrecy).
        assert!(!os.ipc(a, public, 2).unwrap().is_completed());
        // The public process cannot write to the analyser either: the analyser requires
        // hosp-dev integrity the public process lacks.
        assert!(!os.ipc(public, a, 3).unwrap().is_completed());
    }

    #[test]
    fn audit_only_mode_permits_but_records() {
        let mut os = Os::new("node", EnforcementMode::AuditOnly);
        let secret = os.spawn("secret", medical_ctx());
        let public = os.spawn("public", SecurityContext::public());
        assert!(os.ipc(secret, public, 1).unwrap().is_completed());
        assert_eq!(os.hook_stats().observed_violations, 1);
        assert_eq!(os.take_audit().denied_flows().count(), 1);
    }

    #[test]
    fn disabled_mode_skips_audit() {
        let mut os = Os::new("node", EnforcementMode::Disabled);
        let secret = os.spawn("secret", medical_ctx());
        let public = os.spawn("public", SecurityContext::public());
        assert!(os.ipc(secret, public, 1).unwrap().is_completed());
        assert_eq!(os.take_audit().len(), 0);
        assert_eq!(os.hook_stats().invocations, 1);
    }

    #[test]
    fn unknown_ids_error() {
        let mut os = Os::new("node", EnforcementMode::Enforce);
        let p = os.spawn("p", SecurityContext::public());
        assert!(matches!(
            os.read(ProcessId(99), KernelObjectId(1), 0),
            Err(KernelError::UnknownProcess { .. })
        ));
        assert!(matches!(
            os.read(p, KernelObjectId(99), 0),
            Err(KernelError::UnknownObject { .. })
        ));
        assert!(matches!(os.fork(ProcessId(99), "c"), Err(KernelError::UnknownProcess { .. })));
        assert!(matches!(
            os.process_context(ProcessId(99)),
            Err(KernelError::UnknownProcess { .. })
        ));
        assert!(matches!(
            os.object_context(KernelObjectId(99)),
            Err(KernelError::UnknownObject { .. })
        ));
        assert!(matches!(
            os.grant_privilege(ProcessId(99), Tag::new("t"), PrivilegeKind::SecrecyAdd),
            Err(KernelError::UnknownProcess { .. })
        ));
    }

    #[test]
    fn endorsement_pipeline_fig5_at_os_level() {
        // Zeb's raw reading can reach the analyser only after the sanitiser endorses it.
        let mut os = Os::new("node", EnforcementMode::Enforce);
        let zeb_ctx = SecurityContext::from_names(["medical", "zeb"], ["zeb-dev", "consent"]);
        let analyser_ctx = SecurityContext::from_names(["medical", "zeb"], ["hosp-dev", "consent"]);

        let device = os.spawn("zeb-device", zeb_ctx.clone());
        let raw = os.create_object(device, "raw-reading", ObjectKind::File).unwrap();
        let analyser = os.spawn("zeb-analyser", analyser_ctx);
        // Direct read of the raw reading by the analyser is refused (integrity).
        assert!(!os.read(analyser, raw, 1).unwrap().is_completed());

        // The sanitiser starts in Zeb's context, reads, endorses itself, writes out.
        let sanitiser = os.spawn("sanitiser", zeb_ctx);
        os.grant_privilege(sanitiser, Tag::new("hosp-dev"), PrivilegeKind::IntegrityAdd).unwrap();
        os.grant_privilege(sanitiser, Tag::new("zeb-dev"), PrivilegeKind::IntegrityRemove).unwrap();
        assert!(os.read(sanitiser, raw, 2).unwrap().is_completed());
        os.change_label(sanitiser, &[], &[], &[Tag::new("hosp-dev")], &[Tag::new("zeb-dev")], 3)
            .unwrap();
        let standard = os.create_object(sanitiser, "standard-reading", ObjectKind::File).unwrap();
        assert!(os.write(sanitiser, standard, 4).unwrap().is_completed());
        assert!(os.read(analyser, standard, 5).unwrap().is_completed());
        // The label change is in the audit trail.
        let changes = os.take_audit().of_kind(legaliot_audit::AuditEventKind::LabelChanged).count();
        assert_eq!(changes, 1);
    }

    #[test]
    fn take_audit_leaves_fresh_log() {
        let mut os = Os::new("node", EnforcementMode::Enforce);
        let a = os.spawn("a", SecurityContext::public());
        let b = os.spawn("b", SecurityContext::public());
        os.ipc(a, b, 1).unwrap();
        let taken = os.take_audit();
        assert_eq!(taken.len(), 1);
        assert!(os.take_audit().is_empty());
        assert_eq!(os.name(), "node");
    }

    /// Each take continues the chain the last one ended: its anchor is the previous
    /// log's head and its ids follow on, so the logs taken in turn verify as one chain
    /// from genesis.
    #[test]
    fn successive_takes_continue_one_chain() {
        let mut os = Os::new("node", EnforcementMode::Enforce);
        let a = os.spawn("a", medical_ctx());
        let b = os.spawn("b", SecurityContext::public());
        os.ipc(a, b, 1).unwrap();
        os.ipc(b, a, 2).unwrap();
        let first = os.take_audit();
        os.ipc(a, a, 3).unwrap();
        os.grant_privilege(b, Tag::new("medical"), PrivilegeKind::SecrecyAdd).unwrap();
        os.change_label(b, &[Tag::new("medical")], &[], &[], &[], 4).unwrap();
        os.ipc(a, b, 5).unwrap();
        let second = os.take_audit();

        assert_eq!((first.len(), second.len()), (2, 3));
        assert!(first.verify_chain().is_intact() && second.verify_chain().is_intact());
        assert_eq!(second.anchor_hash(), first.head_hash());
        let ids: Vec<u64> =
            first.records().iter().chain(second.records()).map(|record| record.id.0).collect();
        assert_eq!(ids, [0, 1, 2, 3, 4]);
        let both = [first.records(), second.records()].concat();
        assert!(AuditLog::verify_records(0, &both).is_intact());
    }

    #[test]
    fn error_display() {
        assert!(KernelError::UnknownProcess { pid: ProcessId(1) }.to_string().contains("pid1"));
        assert!(KernelError::UnknownObject { object: KernelObjectId(2) }
            .to_string()
            .contains("obj2"));
        assert_eq!(ObjectKind::SharedMemory.to_string(), "shm");
        assert_eq!(ProcessId(3).to_string(), "pid3");
    }

    proptest! {
        /// Transparency invariant: in Enforce mode, a refused call never changes any
        /// context, and hook counters always add up.
        #[test]
        fn prop_refusal_has_no_side_effects(tags in proptest::collection::btree_set("[a-c]", 0..3)) {
            let mut os = Os::new("node", EnforcementMode::Enforce);
            let secret_ctx = SecurityContext::from_names(tags.iter().map(String::as_str), Vec::<&str>::new());
            let secret = os.spawn("secret", secret_ctx.clone());
            let public = os.spawn("public", SecurityContext::public());
            let before_secret = os.process_context(secret).unwrap().clone();
            let before_public = os.process_context(public).unwrap().clone();
            let _ = os.ipc(secret, public, 0).unwrap();
            prop_assert_eq!(os.process_context(secret).unwrap(), &before_secret);
            prop_assert_eq!(os.process_context(public).unwrap(), &before_public);
            let stats = os.hook_stats();
            prop_assert_eq!(stats.invocations, stats.allowed + stats.denied + stats.observed_violations);
        }
    }
}
