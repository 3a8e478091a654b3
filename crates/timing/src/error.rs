use std::fmt;

/// Errors produced by timing-graph algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TimingError {
    /// The graph contains a cycle (timing graphs must be DAGs).
    CyclicGraph,
    /// An input/output index was out of range.
    PortOutOfRange {
        /// What was being looked up ("input" or "output").
        kind: &'static str,
        /// The offending index.
        index: usize,
        /// Number of available ports.
        available: usize,
    },
    /// No path exists where one was required (e.g. asking for the critical
    /// path of a graph whose outputs are unreachable).
    NoPath,
    /// A [`LevelSchedule`](crate::levels::LevelSchedule) was used with a
    /// graph whose shape no longer matches the one it was built from
    /// (the graph was mutated after levelization).
    StaleSchedule,
}

impl fmt::Display for TimingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimingError::CyclicGraph => write!(f, "timing graph contains a cycle"),
            TimingError::PortOutOfRange {
                kind,
                index,
                available,
            } => write!(f, "{kind} index {index} out of range (have {available})"),
            TimingError::NoPath => write!(f, "no input-to-output path exists"),
            TimingError::StaleSchedule => {
                write!(
                    f,
                    "level schedule no longer matches the graph it was built from"
                )
            }
        }
    }
}

impl std::error::Error for TimingError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(TimingError::CyclicGraph.to_string().contains("cycle"));
        assert!(TimingError::NoPath.to_string().contains("no input"));
    }
}
