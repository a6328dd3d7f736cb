//! Error type of the serving subsystem.

use std::fmt;

use privehd_core::HdError;

/// Everything that can go wrong between submitting a query and reading
/// its prediction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The server is shutting down (or has shut down); the request was
    /// not accepted.
    Closed,
    /// The bounded submission queue is full; the caller should back off
    /// and retry (the serving layer sheds load instead of buffering
    /// unboundedly).
    QueueFull,
    /// This tenant's per-[`crate::ModelId`] queue quota is full; the
    /// tenant should back off while other tenants keep being served
    /// (the weighted-fair scheduler sheds one tenant's flood without
    /// crowding the rest). The wire front-end reports it as `Busy`.
    TenantOverQuota,
    /// No model has been published to the registry yet.
    NoModel,
    /// The underlying HD computation failed (dimension mismatch, zero
    /// norms, …).
    Model(HdError),
    /// A publish was refused because the model is only partially
    /// trained: the listed class indices have zero-norm (never-bundled)
    /// weights and could never be predicted. Use
    /// [`crate::ShardedRegistry::publish_partial`] to serve such a
    /// model deliberately.
    UntrainedClasses(Vec<usize>),
    /// An invalid serving configuration was supplied.
    InvalidConfig(String),
    /// A transport-level (socket) operation of the wire front-end
    /// failed; the message carries the underlying I/O error text.
    Transport(String),
    /// Serving this request panicked inside the engine — a bug, not a
    /// property of the query. The panic was contained to this request
    /// (the worker keeps serving); its message is in the worker's panic
    /// log.
    Internal,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Closed => write!(f, "serving engine is shut down"),
            ServeError::QueueFull => write!(f, "submission queue is full"),
            ServeError::TenantOverQuota => {
                write!(f, "per-tenant submission quota is full")
            }
            ServeError::NoModel => write!(f, "no model published in the registry"),
            ServeError::Model(e) => write!(f, "model error: {e}"),
            ServeError::UntrainedClasses(classes) => write!(
                f,
                "model is partially trained: classes {classes:?} have zero-norm weights \
                 (publish_partial serves them anyway)"
            ),
            ServeError::InvalidConfig(msg) => write!(f, "invalid serve config: {msg}"),
            ServeError::Transport(msg) => write!(f, "wire transport error: {msg}"),
            ServeError::Internal => write!(f, "internal serving fault: request handling panicked"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<HdError> for ServeError {
    fn from(e: HdError) -> Self {
        ServeError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(ServeError::Closed.to_string().contains("shut down"));
        assert!(ServeError::QueueFull.to_string().contains("queue"));
        assert!(ServeError::TenantOverQuota.to_string().contains("tenant"));
        assert!(ServeError::NoModel.to_string().contains("registry"));
        assert!(ServeError::Model(HdError::ZeroNorm)
            .to_string()
            .contains("model error"));
        assert!(ServeError::Internal.to_string().contains("panicked"));
    }

    #[test]
    fn hd_errors_convert() {
        let e: ServeError = HdError::EmptyDimension.into();
        assert_eq!(e, ServeError::Model(HdError::EmptyDimension));
    }
}
