//! An inert name kept for `benchmark/`, which still imports it; it goes when the
//! benchmark stops naming it (ROADMAP's cache-retirement item). Nothing here remembers
//! a decision: the paper re-evaluates a flow when a context changes (§8.2.2), and a
//! flow question is answered by [`can_flow`] each time it is asked.

use crate::flow::{can_flow, FlowDecision};
use crate::tag::SecurityContext;

/// A stateless pass-through to [`can_flow`]; the hashes are ignored and no answer is
/// ever replayed.
///
/// ```
/// use legaliot_ifc::{can_flow, DecisionCache, SecurityContext};
/// let src = SecurityContext::from_names(["medical"], Vec::<&str>::new());
/// let dst = SecurityContext::from_names(["medical", "stats"], Vec::<&str>::new());
/// let (decision, hit) = DecisionCache::new().check(&src, 1, &dst, 2);
/// assert_eq!((decision, hit), (can_flow(&src, &dst), false));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct DecisionCache;

impl DecisionCache {
    /// Creates the pass-through.
    pub fn new() -> Self {
        DecisionCache
    }

    /// `(can_flow(source, destination), false)`: the question asked now, never a hit.
    pub fn check(
        &mut self,
        source: &SecurityContext,
        _source_hash: u64,
        destination: &SecurityContext,
        _destination_hash: u64,
    ) -> (FlowDecision, bool) {
        (can_flow(source, destination), false)
    }
}
