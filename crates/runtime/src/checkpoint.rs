//! Versioned checkpoint format for complete simulation state (ISSUE 10).
//!
//! A checkpoint is a deterministic JSON serialization of everything a
//! [`SimRunner`](crate::SimRunner) needs to continue a run as if it had
//! never stopped: the machine (allocator free lists, bandwidth windows,
//! TLB arrays, fault-plan counters and RNG position), every workload's
//! page tables, profiler internals, generator cursors and per-thread RNG
//! streams, the policy's internal state, and the run's metric
//! accumulators. The headline contract is *restore-replay identity*:
//! checkpoint at quantum Q, restore, run to completion — the artifacts
//! are byte-identical to the straight run.
//!
//! What is deliberately NOT serialized:
//! - **Telemetry** — recording never affects simulation results; a
//!   restored run starts with a disabled sink.
//! - **The policy object and profiler factory** — code, not data. The
//!   checkpoint stores the policy's *name* and its serialized state; the
//!   caller reconstructs the object (same kind, same config) and the
//!   restore replays the state into it.

use vulcan_json::Value;

/// Format tag every checkpoint carries.
pub const CHECKPOINT_FORMAT: &str = "vulcan-checkpoint";

/// Current checkpoint format version. Bump on any breaking layout
/// change; older readers refuse newer versions with a typed error.
pub const CHECKPOINT_VERSION: u64 = 1;

/// Why a checkpoint could not be loaded. The CLI maps every variant to
/// exit code 2 (usage/input error) — never a panic, never partial state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// The payload is not a checkpoint at all: unparseable JSON
    /// (truncated file, wrong file) or a missing/foreign format tag.
    Malformed(String),
    /// A real checkpoint, but a format version this build cannot read.
    Version {
        /// Version found in the payload.
        found: u64,
        /// Version this build supports.
        supported: u64,
    },
    /// Structurally a checkpoint, semantically inconsistent (bad field,
    /// mismatched array lengths, unknown enum tag).
    Invalid(String),
    /// The caller supplied a policy whose name differs from the one the
    /// checkpoint was taken under.
    PolicyMismatch {
        /// Policy name recorded in the checkpoint.
        expected: String,
        /// Name of the policy supplied at restore.
        found: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Malformed(e) => write!(f, "not a vulcan checkpoint: {e}"),
            CheckpointError::Version { found, supported } => write!(
                f,
                "unsupported checkpoint version {found} (this build reads version {supported})"
            ),
            CheckpointError::Invalid(e) => write!(f, "invalid checkpoint: {e}"),
            CheckpointError::PolicyMismatch { expected, found } => write!(
                f,
                "checkpoint was taken under policy \"{expected}\" but \"{found}\" was supplied"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Parse checkpoint text and validate its header. Returns the parsed
/// value only when the format tag matches and the version is supported,
/// so callers never touch fields of a payload from the future.
pub fn parse_checkpoint(text: &str) -> Result<Value, CheckpointError> {
    let v = vulcan_json::parse(text).map_err(|e| CheckpointError::Malformed(e.to_string()))?;
    validate_header(&v)?;
    Ok(v)
}

/// Validate the `format`/`version` header of a parsed checkpoint.
pub fn validate_header(v: &Value) -> Result<(), CheckpointError> {
    let format = v
        .get("format")
        .and_then(Value::as_str)
        .ok_or_else(|| CheckpointError::Malformed("missing \"format\" tag".to_string()))?;
    if format != CHECKPOINT_FORMAT {
        return Err(CheckpointError::Malformed(format!(
            "format tag is \"{format}\", expected \"{CHECKPOINT_FORMAT}\""
        )));
    }
    let version = v
        .get("version")
        .and_then(Value::as_u64)
        .ok_or_else(|| CheckpointError::Malformed("missing \"version\"".to_string()))?;
    if version != CHECKPOINT_VERSION {
        return Err(CheckpointError::Version {
            found: version,
            supported: CHECKPOINT_VERSION,
        });
    }
    Ok(())
}

/// The policy name recorded in a (header-validated) checkpoint. Restore
/// paths use this to construct the right policy before replaying state.
pub fn policy_name(v: &Value) -> Result<&str, CheckpointError> {
    v.get("policy")
        .and_then(|p| p.get("name"))
        .and_then(Value::as_str)
        .ok_or_else(|| CheckpointError::Invalid("missing policy name".to_string()))
}

/// The quantum index the checkpoint was taken at (quanta already run).
pub fn quantum_index(v: &Value) -> Result<u64, CheckpointError> {
    v.get("state")
        .and_then(|s| s.get("quantum_index"))
        .and_then(Value::as_u64)
        .ok_or_else(|| CheckpointError::Invalid("missing state.quantum_index".to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_garbage_and_truncation() {
        let err = parse_checkpoint("not json at all").unwrap_err();
        assert!(matches!(err, CheckpointError::Malformed(_)), "{err}");
        // A truncated payload is a parse error, not a partial success.
        let err = parse_checkpoint("{\"format\": \"vulcan-checkpoint\", \"ver").unwrap_err();
        assert!(matches!(err, CheckpointError::Malformed(_)), "{err}");
    }

    #[test]
    fn rejects_foreign_format_tag() {
        let err =
            parse_checkpoint("{\"format\": \"some-other-tool\", \"version\": 1}").unwrap_err();
        let CheckpointError::Malformed(msg) = err else {
            panic!("expected Malformed")
        };
        assert!(msg.contains("some-other-tool"), "{msg}");
    }

    #[test]
    fn rejects_future_version_with_typed_error() {
        let err =
            parse_checkpoint("{\"format\": \"vulcan-checkpoint\", \"version\": 99}").unwrap_err();
        assert_eq!(
            err,
            CheckpointError::Version {
                found: 99,
                supported: CHECKPOINT_VERSION
            }
        );
        assert!(err.to_string().contains("version 99"), "{err}");
    }

    #[test]
    fn accepts_current_header() {
        let v = parse_checkpoint("{\"format\": \"vulcan-checkpoint\", \"version\": 1}").unwrap();
        assert!(validate_header(&v).is_ok());
        assert!(matches!(
            policy_name(&v).unwrap_err(),
            CheckpointError::Invalid(_)
        ));
    }
}
