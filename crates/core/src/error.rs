//! Error type shared by every fallible operation in the crate.

use std::error::Error;
use std::fmt;

/// Errors produced by the HD computing substrate.
///
/// Every public fallible function in this crate returns
/// `Result<_, HdError>`. The variants carry enough context to diagnose a
/// misuse without a debugger.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum HdError {
    /// Two hypervectors (or a hypervector and a model) were combined while
    /// having different dimensionalities.
    DimensionMismatch {
        /// Dimensionality expected by the receiver.
        expected: usize,
        /// Dimensionality actually supplied.
        actual: usize,
    },
    /// A dimension of zero was supplied where a positive one is required.
    EmptyDimension,
    /// A class label was out of range for the model.
    ClassOutOfRange {
        /// The offending label.
        class: usize,
        /// Number of classes in the model.
        num_classes: usize,
    },
    /// A feature vector had the wrong number of features for an encoder.
    FeatureCountMismatch {
        /// Number of features the encoder was built for.
        expected: usize,
        /// Number of features supplied.
        actual: usize,
    },
    /// An invalid configuration parameter (message explains which).
    InvalidConfig(String),
    /// A similarity or norm was requested of an all-zero hypervector.
    ZeroNorm,
    /// An operation needed a non-empty collection (e.g. training data).
    EmptyInput(&'static str),
    /// A NaN (or, where finiteness is required, an infinity) where a
    /// number was needed — e.g. a NaN query feature poisons every
    /// similarity score. The payload names the values affected.
    NonFinite(&'static str),
    /// A compiled encode plan was applied with an encoder of its
    /// dimension but another configuration (features, levels or seed)
    /// than the one it was compiled against.
    EncoderMismatch,
}

impl fmt::Display for HdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HdError::DimensionMismatch { expected, actual } => write!(
                f,
                "hypervector dimension mismatch: expected {expected}, got {actual}"
            ),
            HdError::EmptyDimension => write!(f, "hypervector dimension must be positive"),
            HdError::ClassOutOfRange { class, num_classes } => write!(
                f,
                "class label {class} out of range for model with {num_classes} classes"
            ),
            HdError::FeatureCountMismatch { expected, actual } => write!(
                f,
                "feature count mismatch: encoder expects {expected} features, got {actual}"
            ),
            HdError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            HdError::ZeroNorm => write!(f, "operation undefined on an all-zero hypervector"),
            HdError::EmptyInput(what) => write!(f, "empty input: {what}"),
            HdError::NonFinite(what) => write!(f, "non-finite value in {what}"),
            HdError::EncoderMismatch => write!(
                f,
                "encode plan was compiled against another encoder configuration"
            ),
        }
    }
}

impl Error for HdError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_unpunctuated() {
        let variants: Vec<HdError> = vec![
            HdError::DimensionMismatch {
                expected: 8,
                actual: 4,
            },
            HdError::EmptyDimension,
            HdError::ClassOutOfRange {
                class: 9,
                num_classes: 3,
            },
            HdError::FeatureCountMismatch {
                expected: 617,
                actual: 28,
            },
            HdError::InvalidConfig("levels must be >= 2".to_owned()),
            HdError::ZeroNorm,
            HdError::EmptyInput("training set"),
            HdError::NonFinite("similarity scores"),
            HdError::EncoderMismatch,
        ];
        for v in variants {
            let s = v.to_string();
            assert!(!s.is_empty());
            assert!(!s.ends_with('.'), "no trailing punctuation: {s}");
            assert!(
                s.chars().next().is_some_and(|c| c.is_lowercase()),
                "starts lowercase: {s}"
            );
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<HdError>();
    }

    #[test]
    fn implements_std_error() {
        let e: Box<dyn Error> = Box::new(HdError::ZeroNorm);
        assert!(e.source().is_none());
    }
}
