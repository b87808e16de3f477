//! Small shared utilities.

pub mod hash;
pub mod rng;

pub use hash::{fnv1a32, FxBuildHasher, FxHashMap, FxHasher};
pub use rng::Rng;
