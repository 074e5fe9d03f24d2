//! Error type for the core algorithm.

use popcorn_dense::DenseError;
use popcorn_sparse::SparseError;
use std::fmt;

/// Errors produced by the kernel k-means solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A configuration parameter is invalid (k = 0, k > n, bad tolerance, ...).
    InvalidConfig(String),
    /// The input data is unusable (empty, wrong shape, non-finite values).
    InvalidInput(String),
    /// The requested operation is not supported by this solver (e.g. fitting
    /// Lloyd's algorithm from a precomputed kernel matrix).
    Unsupported(String),
    /// The modeled working set does not fit in the simulated device's memory
    /// under the requested tiling policy (and, for `TilePolicy::Auto`, cannot
    /// be made to fit by shrinking the tile).
    DeviceMemoryExceeded {
        /// Bytes the configuration would need resident at once.
        required_bytes: u64,
        /// The device's modeled memory capacity.
        available_bytes: u64,
    },
    /// One device of a sharded topology cannot hold its assigned shard
    /// resident — like [`CoreError::DeviceMemoryExceeded`], but naming the
    /// offending device so heterogeneous-pool failures are actionable.
    DeviceShardMemoryExceeded {
        /// Topology index of the device whose shard does not fit.
        device: usize,
        /// Bytes the shard layout would need resident on that device.
        required_bytes: u64,
        /// That device's modeled memory capacity.
        available_bytes: u64,
    },
    /// A host buffer cannot be allocated: its size overflows, or the
    /// allocator refused it (the dense copy of points whose largest feature
    /// index is huge, say).
    HostAllocationFailed {
        /// What the buffer would hold.
        what: &'static str,
        /// Its shape, `(rows, cols)`.
        shape: (usize, usize),
        /// The bytes it needs, exact.
        bytes: u128,
    },
    /// An underlying dense kernel failed.
    Dense(DenseError),
    /// An underlying sparse kernel failed.
    Sparse(SparseError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            CoreError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            CoreError::Unsupported(msg) => write!(f, "unsupported operation: {msg}"),
            CoreError::DeviceMemoryExceeded {
                required_bytes,
                available_bytes,
            } => write!(
                f,
                "device memory exceeded: the working set needs {required_bytes} bytes resident \
                 but the device holds {available_bytes} bytes; use a smaller --tile-rows, the \
                 auto tiling policy, or a larger --device-mem"
            ),
            CoreError::DeviceShardMemoryExceeded {
                device,
                required_bytes,
                available_bytes,
            } => write!(
                f,
                "device {device} cannot hold its shard: the shard layout needs \
                 {required_bytes} bytes resident but device {device} holds {available_bytes} \
                 bytes; move the boundaries, use the auto tiling policy, or drop the device"
            ),
            CoreError::HostAllocationFailed {
                what,
                shape: (rows, cols),
                bytes,
            } => write!(
                f,
                "cannot allocate {what} on the host: {rows} x {cols} entries need {bytes} bytes"
            ),
            CoreError::Dense(e) => write!(f, "dense kernel error: {e}"),
            CoreError::Sparse(e) => write!(f, "sparse kernel error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<DenseError> for CoreError {
    fn from(e: DenseError) -> Self {
        CoreError::Dense(e)
    }
}

impl From<SparseError> for CoreError {
    fn from(e: SparseError) -> Self {
        CoreError::Sparse(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(CoreError::InvalidConfig("k = 0".into())
            .to_string()
            .contains("k = 0"));
        assert!(CoreError::InvalidInput("empty".into())
            .to_string()
            .contains("empty"));
        assert!(CoreError::Unsupported("no kernel".into())
            .to_string()
            .contains("no kernel"));
        let d: CoreError = DenseError::EmptyMatrix { op: "gemm" }.into();
        assert!(d.to_string().contains("gemm"));
        let s: CoreError = SparseError::Empty { op: "selection" }.into();
        assert!(s.to_string().contains("selection"));
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<CoreError>();
    }
}
