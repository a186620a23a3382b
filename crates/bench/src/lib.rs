//! Benchmark support crate. The Criterion harness `benches/paper_experiments.rs` runs
//! the paper experiments (E2–E17); this library only hosts shared helpers.

/// Builds a secrecy-only security context with `n` distinct tags, used by the label-size
/// and tag-scale experiments (E3, E14).
pub fn context_with_tags(n: usize) -> legaliot_ifc::SecurityContext {
    legaliot_ifc::SecurityContext::from_names(
        (0..n).map(|i| format!("tag-{i}")),
        Vec::<String>::new(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_builder_sizes() {
        assert_eq!(context_with_tags(0).secrecy().len(), 0);
        assert_eq!(context_with_tags(16).secrecy().len(), 16);
    }
}
