//! The net-layer error type.

use std::fmt;

use fedomd_federated::CohortConfigError;
use fedomd_transport::WireError;

/// Anything that can go wrong between two FedOMD processes.
#[derive(Debug)]
pub enum NetError {
    /// The run configuration itself is invalid (e.g. a NaN cohort
    /// `sample_frac`); rejected before any socket is touched, on both the
    /// server and the client side, so a bad config can never reach the
    /// handshake's run spec looking legitimate.
    Config(CohortConfigError),
    /// Socket-level failure (connect, read, write, bind).
    Io(std::io::Error),
    /// A frame failed the codec (bad magic, checksum, oversized prefix).
    Wire(WireError),
    /// The server refused this client's handshake; the string is the
    /// server's stated reason (version skew, bad id, the first run spec
    /// key that differs, duplicate join).
    Rejected(String),
    /// The peer violated the join protocol (e.g. garbage where a
    /// handshake message belongs).
    Protocol(String),
    /// A `--resume` checkpoint could not be loaded or does not match the
    /// run configuration.
    Checkpoint(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Config(e) => write!(f, "invalid run config: {e}"),
            NetError::Io(e) => write!(f, "i/o: {e}"),
            NetError::Wire(e) => write!(f, "wire: {e}"),
            NetError::Rejected(why) => write!(f, "handshake rejected: {why}"),
            NetError::Protocol(why) => write!(f, "protocol violation: {why}"),
            NetError::Checkpoint(why) => write!(f, "checkpoint: {why}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Wire(e)
    }
}

impl From<CohortConfigError> for NetError {
    fn from(e: CohortConfigError) -> Self {
        NetError::Config(e)
    }
}
